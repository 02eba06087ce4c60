"""Sliding-window periodogram rate estimator.

Each window of the mean-removed signal ``y`` is zero-padded to a fixed
DFT length and the breathing rate read off as the frequency of the
largest in-band PSD bin.  No taper is applied; the window advances by
``hop_samples`` (one sample reproduces the reference configuration of
a 30 s window with maximum overlap).  The windows are transformed in
blocks, one ``rfft`` call per block, and only the in-band bins are kept.
:func:`dft_estimate_batch` takes several streams sampled at the same
times, and a block then holds windows of every stream;
:func:`dft_estimate` is the batch of one.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp import is_uniform
from .common import EstimateSeries, EstimatorError, check_rows

# Windows per rfft call, counted over all rows of a batch (at least one
# window a row): a block's padded input and full spectrum stay
# near 1 MB each at the default 2048-point DFT.  Timings on a bed trace
# were flat from 16 to 512.
_WINDOWS_PER_FFT = 64


@dataclass(frozen=True)
class DftConfig:
    """Periodogram settings.

    ``window_s`` is converted to samples with ceil(window_s * fs).
    ``band_hz`` restricts the peak search; the DC bin is always
    excluded.  Ties resolve toward the lower frequency.
    """

    n_dft: int = 2048
    window_s: float = 30.0
    hop_samples: int = 1
    band_hz: tuple[float, float] = (0.1, 1.25)

    def __post_init__(self):
        if self.n_dft < 2:
            raise EstimatorError("n_dft must be at least 2")
        if self.window_s <= 0:
            raise EstimatorError("window_s must be positive")
        if self.hop_samples < 1:
            raise EstimatorError("hop_samples must be at least 1")
        if not 0 < self.band_hz[0] < self.band_hz[1]:
            raise EstimatorError("band_hz must satisfy 0 < low < high")

    def window_samples(self, sample_rate_hz) -> int:
        return int(np.ceil(self.window_s * sample_rate_hz))


def dft_estimate(times_s, y, cfg: DftConfig = DftConfig()) -> EstimateSeries:
    """Estimate the breathing rate in every sliding window of ``y``.

    Parameters
    ----------
    times_s, y : arrays
        Uniformly sampled mean-removed signal.  Uneven timestamps are
        rejected; resample first.
    cfg : DftConfig

    Returns
    -------
    EstimateSeries
        One estimate per window, stamped at the window's last sample.
        ``aux`` carries the spectrogram of the search band (``psd``,
        one row per window, and its ``freq_hz``; bins outside
        ``band_hz`` are not kept) and the per-window dominant-tone
        reconstruction (``recon``), evaluated at the window end.
    """
    return dft_estimate_batch(times_s, [y], cfg)[0]


def dft_estimate_batch(times_s, rows, cfg: DftConfig = DftConfig()):
    """:func:`dft_estimate` on each stream in ``rows``, sampled at ``times_s``.

    Each block of windows, taken from all rows, goes through one
    ``rfft`` call.  Each row's series is bit for bit the one
    :func:`dft_estimate` gives on that row alone; the rows' ``psd``
    arrays are views into one (rows, windows, bins) array.
    """
    times_s, y = check_rows(times_s, rows)
    if len(times_s) < 2:
        raise EstimatorError("signal too short")
    if not is_uniform(times_s):
        raise EstimatorError(
            "periodogram estimator requires uniform sampling; resample first")
    fs = 1.0 / float(np.median(np.diff(times_s)))
    nw = cfg.window_samples(fs)
    if cfg.n_dft < nw:
        raise EstimatorError(
            f"n_dft ({cfg.n_dft}) must be at least the window length ({nw})")
    if len(times_s) < nw:
        raise EstimatorError(
            f"signal has {len(times_s)} samples but one window needs {nw}; "
            "provide a longer trace")

    freqs = np.fft.rfftfreq(cfg.n_dft, d=1.0 / fs)
    band = (freqs >= cfg.band_hz[0]) & (freqs <= cfg.band_hz[1])
    band[0] = False
    if not np.any(band):
        raise EstimatorError("search band contains no DFT bins")
    band_idx = np.flatnonzero(band)
    in_band = slice(band_idx[0], band_idx[-1] + 1)  # freqs increase
    band_freqs = freqs[in_band]

    n_rows = len(y)
    starts = np.arange(0, len(times_s) - nw + 1, cfg.hop_samples)
    windows = sliding_window_view(y, nw, axis=1)[:, ::cfg.hop_samples]
    psd = np.empty((n_rows, len(starts), len(band_freqs)))
    peak = np.empty((n_rows, len(starts)), dtype=np.intp)
    peak_spec = np.empty((n_rows, len(starts)), dtype=complex)
    # Only each window's psd and peak bin outlive the block's spectrum.
    # rfft takes a contiguous copy of the block's windows faster than the
    # strided view, whose (rows, windows) loop it runs row by row.
    step = max(1, _WINDOWS_PER_FFT // n_rows)
    for j in range(0, len(starts), step):
        block = slice(j, j + step)
        spec = np.fft.rfft(np.ascontiguousarray(windows[:, block]),
                           cfg.n_dft)[..., in_band]
        psd[:, block] = np.abs(spec) ** 2
        peak[:, block] = np.argmax(psd[:, block], axis=2)  # lower f wins
        peak_spec[:, block] = np.take_along_axis(
            spec, peak[:, block, None], axis=2)[..., 0]
    f_hat = band_freqs[peak]
    amp = 2 * np.abs(peak_spec) / nw
    phase = np.angle(peak_spec)
    recon = amp * np.cos(2 * np.pi * f_hat * (nw - 1) / fs + phase)

    return [EstimateSeries(
        method="dft", times_s=times_s[starts + nw - 1], f_hat_hz=f_hat[r],
        aux={"psd": psd[r], "freq_hz": band_freqs, "recon": recon[r],
             "window_start_s": times_s[starts], "sample_rate_hz": fs},
    ) for r in range(n_rows)]
