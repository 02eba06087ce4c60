"""Sliding-window periodogram rate estimator.

The breathing rate of each window of the mean-removed signal ``y`` is
the frequency of its largest in-band PSD bin, with no taper.  A window
starts at every sample (the reference 30 s window, maximum overlap), and
the bins are those of a DFT spanning 65.536 s, round(fs · 2048 / 31.25)
points at rate fs: 0.0153 Hz apart at any rate, 2048 points at 31.25 Hz.

Only the in-band bins are computed, as running sums: with
w_k = exp(-2 pi i k / n_dft) and C_k[t] = sum_{u<t} y[u] w_k^(u - s0),
the window starting at s has spectrum w_k^-(s - s0) (C_k[s+nw] - C_k[s])
at bin k, also for windows longer than the grid.  This is the
non-recursive form of the sliding DFT (Jacobsen & Lyons, "The sliding
DFT", IEEE SP Magazine 20(2), 2003): each window is a difference of two
sums, so rounding error does not grow from one window to the next as in
the recursive update.  The sums restart at a window start every
``_SAMPLES_PER_SUM`` samples, so their error stays bounded on long
traces.  The work is O(n · bins) per stream, and the psd needs no
w_k^-(s - s0): only the peak bin is rotated, for the phase of ``recon``.
:func:`dft_estimate_batch` takes several streams sampled at the same
times; :func:`dft_estimate` is the batch of one.

The psd of a block of windows is formed in one buffer that the next
block overwrites, so an estimate holds O(windows) outputs and
O(block · bins) of work, never the (windows × bins) spectrogram;
:func:`dft_spectrogram` runs the same blocks and keeps their psd.
"""

from dataclasses import dataclass
from typing import NamedTuple

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
    window starts at every sample; it may be longer than the 65.536 s
    the DFT spans.  ``band_hz`` restricts the peak search; the DC bin is
    always excluded.  Ties resolve toward the lower frequency.
    """

    window_s: float = 30.0
    band_hz: tuple[float, float] = (0.1, 1.25)

    def __post_init__(self):
        check_finite(self)
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
        ``aux`` carries the frequencies of the search band (``freq_hz``;
        bins outside ``band_hz`` are not computed) and the per-window
        dominant-tone reconstruction (``recon``), evaluated at the
        window end.  The psd is not kept: :func:`dft_spectrogram`
        returns it.
    """
    return dft_estimate_batch(times_s, [y], cfg)[0]


def dft_estimate_batch(times_s, rows, cfg: DftConfig = DftConfig()):
    """:func:`dft_estimate` on each stream in ``rows``, sampled at ``times_s``.

    Every row shares one table of in-band twiddle factors, and each
    row's running sums restart at the same windows, so each row's
    series is bit for bit the one :func:`dft_estimate` gives on that
    row alone.
    """
    plan = _plan(times_s, rows, cfg)
    n_rows = len(plan.y)
    peak = np.empty((n_rows, plan.n_windows), dtype=np.intp)
    peak_spec = np.empty((n_rows, plan.n_windows), dtype=complex)
    for r, block, spec, psd in _block_spectra(plan):
        k = peak[r, block] = np.argmax(psd, axis=1)  # lower f wins
        # only the peak bin needs its phase: times w_k^-(s - s0)
        shift = np.arange(len(spec))
        peak_spec[r, block] = (spec[shift, k]
                               * plan.roots[-plan.bins[k] * shift
                                            % plan.n_dft])
    nw, fs = plan.nw, plan.fs
    f_hat = plan.freq_hz[peak]
    amp = 2 * np.abs(peak_spec) / nw
    phase = np.angle(peak_spec)
    recon = amp * np.cos(2 * np.pi * f_hat * (nw - 1) / fs + phase)

    starts = np.arange(plan.n_windows)
    return [EstimateSeries(
        method="dft", times_s=plan.times_s[starts + nw - 1],
        f_hat_hz=f_hat[r],
        aux={"freq_hz": plan.freq_hz, "recon": recon[r],
             "window_start_s": plan.times_s[starts], "sample_rate_hz": fs},
    ) for r in range(n_rows)]


def dft_spectrogram(times_s, y, cfg: DftConfig = DftConfig()):
    """The in-band psd of every sliding window of ``y``.

    Takes what :func:`dft_estimate` takes and runs the same sums, so
    each window's largest psd bin is that window's estimate.  Returns
    ``(window_end_s, freq_hz, psd)``: the last sample time of each
    window, the frequencies of the search band, and a (windows, bins)
    array, the only part of the dft whose memory grows as windows times
    bins.
    """
    plan = _plan(times_s, [y], cfg)
    psd = np.empty((plan.n_windows, len(plan.bins)))
    for _, block, _, block_psd in _block_spectra(plan):
        psd[block] = block_psd
    return plan.times_s[plan.nw - 1:].copy(), plan.freq_hz, psd


class _Plan(NamedTuple):
    """Checked rows and what their windows and band need."""

    times_s: np.ndarray
    y: np.ndarray  # (rows, samples)
    fs: float
    nw: int  # samples per window
    n_windows: int  # one starts at every sample
    n_dft: int
    bins: np.ndarray  # DFT indices of the band, contiguous and increasing
    freq_hz: np.ndarray  # their frequencies
    roots: np.ndarray  # the n_dft roots of unity, w^t = roots[t % n_dft]


def _plan(times_s, rows, cfg):
    """Check ``rows`` sampled at ``times_s`` and lay out their windows and
    search band; raises EstimatorError when no estimate can be made."""
    times_s, y = check_rows(times_s, rows)
    if len(times_s) < 2:
        raise EstimatorError("signal too short")
    if not is_uniform(times_s):
        raise EstimatorError(
            "periodogram estimator requires uniform sampling; resample first")
    fs = nominal_rate_hz(times_s)
    nw = cfg.window_samples(fs)
    if len(times_s) < nw:
        raise EstimatorError(f"signal has {len(times_s)} samples but one "
                             f"window needs {nw}, window_s={cfg.window_s!r} "
                             f"at {fs!r} Hz; provide a longer trace")

    n_dft = max(1, round(fs * 2048 / 31.25))  # 65.536 s: 2048 at 31.25 Hz
    freqs = np.fft.rfftfreq(n_dft, d=1.0 / fs)
    band = (freqs >= cfg.band_hz[0]) & (freqs <= cfg.band_hz[1])
    band[0] = False
    if not np.any(band):
        raise EstimatorError("search band contains no DFT bins")
    band_idx = np.flatnonzero(band)
    bins = np.arange(band_idx[0], band_idx[-1] + 1)  # freqs increase
    roots = np.exp(-2j * np.pi * np.arange(n_dft) / n_dft)
    return _Plan(times_s, y, fs, nw, len(times_s) - nw + 1, n_dft, bins,
                 freqs[bins], roots)


def _block_spectra(plan):
    """Yield ``(r, block, spec, psd)`` for each block of window starts
    and each row ``r``: the slice of the block's windows, their in-band
    spectra w_k^(s - s0) X_k (phase unrotated, s0 the block's first
    start) and their psd, (windows, bins) each.  ``spec`` and ``psd``
    are buffers that the next item overwrites.
    """
    y, nw, n_windows = plan.y, plan.nw, plan.n_windows
    n_dft, bins = plan.n_dft, plan.bins
    per_sum = min(_SAMPLES_PER_SUM, n_windows)
    span = per_sum - 1 + nw  # samples under one block's windows
    # w_k^t for t < span, exact in phase
    twiddle = plan.roots[np.outer(np.arange(span), bins) % n_dft]
    sums = np.zeros((span + 1, len(bins)), dtype=complex)
    spec = np.empty((per_sum, len(bins)), dtype=complex)
    psd = np.empty((per_sum, len(bins)))
    for j in range(0, n_windows, per_sum):
        count = min(per_sum, n_windows - j)  # windows in the block
        m = count - 1 + nw  # samples under them
        spec_j, psd_j = spec[:count], psd[:count]
        for r, row in enumerate(y):
            # sums[0] stays 0, so sums[t] is C_k[t]
            np.multiply(row[j:j + m, None], twiddle[:m], out=sums[1:m + 1])
            np.cumsum(sums[:m + 1], axis=0, out=sums[:m + 1])
            np.subtract(sums[nw:m + 1], sums[:m + 1 - nw], out=spec_j)
            np.abs(spec_j, out=psd_j)
            psd_j **= 2
            yield r, slice(j, j + count), spec_j, psd_j
