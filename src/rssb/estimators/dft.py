"""Sliding-window periodogram rate estimator.

Each window of the mean-removed signal ``y`` is zero-padded to a fixed
DFT length and the breathing rate read off as the frequency of the
largest in-band PSD bin.  No taper is applied, and a window starts at
every sample: the reference configuration of a 30 s window with
maximum overlap.

Only the in-band bins are computed, as running sums: with
w_k = exp(-2 pi i k / n_dft) and C_k[t] = sum_{u<t} y[u] w_k^(u - s0),
the window starting at s has spectrum w_k^-(s - s0) (C_k[s+nw] - C_k[s])
at bin k.  This is the non-recursive form of the sliding DFT (Jacobsen
& Lyons, "The sliding DFT", IEEE SP Magazine 20(2), 2003): each window
is a difference of two sums, so rounding error does not grow from one
window to the next as in the recursive update.  The sums restart at a
window start every ``_SAMPLES_PER_SUM`` samples, so their error stays
bounded on long traces.  The work is O(n · bins) per stream instead of
one ``n_dft``-point FFT per window, and the psd needs no
w_k^-(s - s0): only the peak bin is rotated, for the phase of
``recon``.
:func:`dft_estimate_batch` takes several streams sampled at the same
times; :func:`dft_estimate` is the batch of one.
"""

from dataclasses import dataclass

import numpy as np

from ..dsp import is_uniform, nominal_rate_hz
from .common import EstimateSeries, EstimatorError, check_finite, check_rows

# Window starts per running sum: a block holds the 512 windows that
# start within 512 samples of its first one, so blocks depend only on
# the window index and a row's estimates not on its batch.  At the
# default 30 s window a block's sums and twiddle table take at most
# 1.8 MB each.  On a bed row, 1024 ran 15-25% faster but raised the
# benchmark's peak RSS by 5.5 MB, 512 by 2.4 MB.
_SAMPLES_PER_SUM = 512


@dataclass(frozen=True)
class DftConfig:
    """Periodogram settings.

    ``window_s`` is converted to samples with ceil(window_s * fs), and a
    window starts at every sample.  ``band_hz`` restricts the peak
    search; the DC bin is always excluded.  Ties resolve toward the
    lower frequency.
    """

    n_dft: int = 2048
    window_s: float = 30.0
    band_hz: tuple[float, float] = (0.1, 1.25)

    def __post_init__(self):
        check_finite(self)
        if self.n_dft < 2:
            raise EstimatorError("n_dft must be at least 2")
        if self.window_s <= 0:
            raise EstimatorError("window_s must be positive")
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

    Every row shares one table of in-band twiddle factors, and each
    row's running sums restart at the same windows, so each row's
    series is bit for bit the one :func:`dft_estimate` gives on that
    row alone; the rows' ``psd`` arrays are views into one
    (rows, windows, bins) array.
    """
    times_s, y = check_rows(times_s, rows)
    if len(times_s) < 2:
        raise EstimatorError("signal too short")
    if not is_uniform(times_s):
        raise EstimatorError(
            "periodogram estimator requires uniform sampling; resample first")
    fs = nominal_rate_hz(times_s)
    nw = cfg.window_samples(fs)
    window = f"{nw} samples, window_s={cfg.window_s!r} at {fs!r} Hz"
    if cfg.n_dft < nw:
        raise EstimatorError(f"n_dft ({cfg.n_dft}) must be at least the "
                             f"window length ({window})")
    if len(times_s) < nw:
        raise EstimatorError(
            f"signal has {len(times_s)} samples but one window needs "
            f"{window}; provide a longer trace")

    freqs = np.fft.rfftfreq(cfg.n_dft, d=1.0 / fs)
    band = (freqs >= cfg.band_hz[0]) & (freqs <= cfg.band_hz[1])
    band[0] = False
    if not np.any(band):
        raise EstimatorError("search band contains no DFT bins")
    band_idx = np.flatnonzero(band)
    bins = np.arange(band_idx[0], band_idx[-1] + 1)  # freqs increase
    band_freqs = freqs[bins]

    n_rows, n = y.shape
    starts = np.arange(n - nw + 1)
    per_sum = min(_SAMPLES_PER_SUM, len(starts))
    span = per_sum - 1 + nw  # samples under one block's windows
    # w_k^t for t < span, from the n_dft roots of unity, exact in phase
    roots = np.exp(-2j * np.pi * np.arange(cfg.n_dft) / cfg.n_dft)
    twiddle = roots[np.outer(np.arange(span), bins) % cfg.n_dft]
    sums = np.zeros((span + 1, len(bins)), dtype=complex)

    psd = np.empty((n_rows, len(starts), len(bins)))
    peak = np.empty((n_rows, len(starts)), dtype=np.intp)
    peak_spec = np.empty((n_rows, len(starts)), dtype=complex)
    for j in range(0, len(starts), per_sum):
        block = slice(j, j + per_sum)
        shift = starts[block] - starts[j]
        m = shift[-1] + nw  # samples under the block's windows
        for r, row in enumerate(y):
            # sums[0] stays 0, so sums[t] is C_k[t]
            np.multiply(row[starts[j]:starts[j] + m, None], twiddle[:m],
                        out=sums[1:m + 1])
            np.cumsum(sums[:m + 1], axis=0, out=sums[:m + 1])
            spec = sums[nw:m + 1] - sums[:m + 1 - nw]
            window_psd = np.abs(spec, out=psd[r, block])
            window_psd **= 2
            k = peak[r, block] = np.argmax(window_psd, axis=1)  # lower f wins
            # only the peak bin needs its phase: times w_k^-(s - s0)
            peak_spec[r, block] = (spec[np.arange(len(spec)), k]
                                   * roots[-bins[k] * shift % cfg.n_dft])
    f_hat = band_freqs[peak]
    amp = 2 * np.abs(peak_spec) / nw
    phase = np.angle(peak_spec)
    recon = amp * np.cos(2 * np.pi * f_hat * (nw - 1) / fs + phase)

    return [EstimateSeries(
        method="dft", times_s=times_s[starts + nw - 1], f_hat_hz=f_hat[r],
        aux={"psd": psd[r], "freq_hz": band_freqs, "recon": recon[r],
             "window_start_s": times_s[starts], "sample_rate_hz": fs},
    ) for r in range(n_rows)]
