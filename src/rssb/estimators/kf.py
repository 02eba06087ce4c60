"""Kalman-filter rate estimator on a fixed frequency grid.

Models the preprocessed signal ``z`` as a DC term plus one sine/cosine
coefficient pair per grid frequency, all following independent random
walks.  The observation row is built from the actual sample timestamps,
so unevenly spaced or missing samples need no special handling.  The
rate estimate is the grid frequency whose coefficient pair currently
has the largest amplitude.

The covariance and gain recursion depends only on the timestamps and
the config, never on ``z``.  :func:`kf_estimate_batch` therefore runs it
once for any number of streams sampled at the same times and steps all
their states together; :func:`kf_estimate` is the batch of one.
"""

from dataclasses import dataclass

import numpy as np

from .common import EstimateSeries, EstimatorError


@dataclass(frozen=True)
class KfConfig:
    """Random-walk harmonic filter settings.

    The grid holds ``n_bins`` frequencies uniformly spaced on
    (0, max_freq_hz], i.e. f_n = n * max_freq_hz / n_bins.  The default
    75 bins up to 1.25 Hz give 1 bpm spacing over 1..75 bpm.
    ``amp_floor`` flags steps whose largest amplitude is too small to
    mean anything (a constant input never excites the oscillating
    states).
    """

    n_bins: int = 75
    max_freq_hz: float = 1.25
    process_var: float = 0.01
    meas_var: float = 1.0
    init_cov: float = 1.0
    amp_floor: float = 1e-6

    def __post_init__(self):
        if self.n_bins < 1:
            raise EstimatorError("n_bins must be at least 1")
        if self.max_freq_hz <= 0:
            raise EstimatorError("max_freq_hz must be positive")
        if min(self.process_var, self.meas_var, self.init_cov) <= 0:
            raise EstimatorError("variances must be positive")

    def grid_hz(self):
        n = np.arange(1, self.n_bins + 1)
        return n * self.max_freq_hz / self.n_bins


def kf_estimate(times_s, z, cfg: KfConfig = KfConfig()) -> EstimateSeries:
    """Track Fourier coefficients of ``z`` and report the dominant bin.

    Returns an EstimateSeries with one estimate per sample (after the
    corresponding measurement update).  ``aux`` holds the filtered
    reconstruction (``recon``), the per-step dominant amplitude
    (``peak_amp``), a low-amplitude flag array, the DC history and the
    final coefficient amplitudes per grid frequency.
    """
    return kf_estimate_batch(times_s, [z], cfg)[0]


def kf_estimate_batch(times_s, rows, cfg: KfConfig = KfConfig()):
    """:func:`kf_estimate` on every stream in ``rows``, sampled at ``times_s``.

    The covariance recursion runs once and the states of all rows step
    together as one (rows, 2 * n_bins + 1) matrix.  Each row's series is
    bit for bit the one :func:`kf_estimate` gives on that row alone; the
    series share one ``final_cov`` array.
    """
    times_s = np.asarray(times_s, dtype=float)
    z = np.asarray(rows, dtype=float)
    if z.ndim != 2 or z.shape[1] != len(times_s):
        raise EstimatorError("times and values must have equal length")
    if len(times_s) == 0:
        raise EstimatorError("empty input")
    if not np.all(np.isfinite(z)):
        raise EstimatorError("measurements must be finite")
    if np.any(np.diff(times_s) <= 0):
        raise EstimatorError("timestamps must be strictly increasing")

    grid = cfg.grid_hz()
    nb = cfg.n_bins
    dim = 2 * nb + 1
    n_rows, n = z.shape

    # Observation rows for all samples at once; column layout is
    # [dc, sin terms, cos terms].
    phase = 2 * np.pi * np.outer(times_s, grid)
    g_all = np.empty((n, dim))
    g_all[:, 0] = 1.0
    g_all[:, 1:nb + 1] = np.sin(phase)
    g_all[:, nb + 1:] = np.cos(phase)

    x = np.zeros((n_rows, dim))
    x[:, 0] = z[:, 0]
    p = np.eye(dim) * cfg.init_cov
    p_diag = p.reshape(-1)[::dim + 1]  # a view: writes go to p
    pg = np.empty(dim)
    buf = np.empty_like(p)

    f_hat = np.empty((n_rows, n))
    recon = np.empty((n_rows, n))
    peak_amp = np.empty((n_rows, n))
    dc = np.empty((n_rows, n))
    row_idx = np.arange(n_rows)
    q = cfg.process_var

    # x @ g would be one gemv over all rows, which sums in another order
    # than the dot product a single row gets; vecdot keeps one dot per row.
    for k in range(n):
        if k > 0:
            p_diag += q  # random walk: F = I
        g = g_all[k]
        np.matmul(p, g, out=pg)
        gain = pg / (float(g @ pg) + cfg.meas_var)
        x += (z[:, k] - np.vecdot(x, g))[:, None] * gain
        # p = (d + d.T) / 2 with d = p - outer(gain, pg), in place; the
        # transposed copy is faster than adding p.T, and * 0.5 is exact
        np.copyto(buf, gain[:, None])
        buf *= pg
        p -= buf
        np.copyto(buf, p.T)
        buf += p
        np.multiply(buf, 0.5, out=p)

        amps = np.hypot(x[:, 1:nb + 1], x[:, nb + 1:])
        best = np.argmax(amps, axis=1)  # first max: lower f wins
        f_hat[:, k] = grid[best]
        peak_amp[:, k] = amps[row_idx, best]
        recon[:, k] = np.vecdot(x, g)
        dc[:, k] = x[:, 0]

    return [EstimateSeries(
        method="kf", times_s=times_s.copy(), f_hat_hz=f_hat[r],
        aux={"recon": recon[r], "peak_amp": peak_amp[r],
             "low_amplitude": peak_amp[r] < cfg.amp_floor,
             "dc": dc[r], "grid_hz": grid,
             "final_amplitudes": np.hypot(x[r, 1:nb + 1], x[r, nb + 1:]),
             "final_state": x[r], "final_cov": p},
    ) for r in range(n_rows)]
