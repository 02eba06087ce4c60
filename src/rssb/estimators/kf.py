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
their states together; :func:`kf_estimate` is the batch of one.  The
gains of the last drop-free grid are also kept, so later calls on the
same grid and config reuse them.  The reuse is per process: each worker
of a parallel sweep fills its own.
"""

from dataclasses import dataclass

import numpy as np

from ..dsp import is_uniform
from .common import EstimateSeries, EstimatorError, check_rows

# Steps handled a block at a time: observation rows are built and the
# state history is scored (hypot, argmax, recon) per block.  Large enough
# that numpy's per-call cost vanishes, small enough that 32 rows of
# history stay near 5 MB.
_BLOCK_STEPS = 128

# The gains and final covariance of the last drop-free grid, keyed on
# (times_s.tobytes(), cfg).  A grid with drops is a random draw per trace
# and never comes back, so it is not retained.
_retained = None


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

    The covariance recursion runs once for all rows, or not at all when
    the last call on a drop-free grid had the same times and config, and
    the states of all rows step together as one (rows, 2 * n_bins + 1)
    matrix.  Each row's series is bit for bit the one :func:`kf_estimate`
    gives on that row alone.  The series of one call share one
    ``final_cov`` array, which no other call sees.
    """
    times_s, z = check_rows(times_s, rows)

    grid = cfg.grid_hz()
    nb = cfg.n_bins
    dim = 2 * nb + 1
    n_rows, n = z.shape
    gains, final_cov = _gains(times_s, cfg)

    x = np.zeros((n_rows, dim))
    x[:, 0] = z[:, 0]
    f_hat = np.empty((n_rows, n))
    recon = np.empty((n_rows, n))
    peak_amp = np.empty((n_rows, n))
    dc = np.empty((n_rows, n))
    history = np.empty((n_rows, min(n, _BLOCK_STEPS), dim))

    # x @ g would be one gemv over all rows, which sums in another order
    # than the dot product a single row gets; vecdot keeps one dot per row.
    for start in range(0, n, _BLOCK_STEPS):
        block = slice(start, min(start + _BLOCK_STEPS, n))
        g_block = _observation_rows(times_s[block], grid)
        for k, g in enumerate(g_block, start):
            x += (z[:, k] - np.vecdot(x, g))[:, None] * gains[k]
            history[:, k - start] = x
        states = history[:, :len(g_block)]
        amps = np.hypot(states[..., 1:nb + 1], states[..., nb + 1:])
        # argmax takes the first max: the lower f wins
        f_hat[:, block] = grid[np.argmax(amps, axis=2)]
        peak_amp[:, block] = amps.max(axis=2)
        recon[:, block] = np.vecdot(states, g_block)
        dc[:, block] = states[..., 0]

    final_cov = final_cov.copy()
    return [EstimateSeries(
        method="kf", times_s=times_s.copy(), f_hat_hz=f_hat[r],
        aux={"recon": recon[r], "peak_amp": peak_amp[r],
             "low_amplitude": peak_amp[r] < cfg.amp_floor,
             "dc": dc[r], "grid_hz": grid,
             "final_amplitudes": np.hypot(x[r, 1:nb + 1], x[r, nb + 1:]),
             "final_state": x[r], "final_cov": final_cov},
    ) for r in range(n_rows)]


def _observation_rows(times_s, grid):
    """One observation row per sample: [dc, sin terms, cos terms].

    The phase is built in the cos columns and the trig runs in place, so
    no temporary of the phase's size is made.
    """
    nb = len(grid)
    g = np.empty((len(times_s), 2 * nb + 1))
    g[:, 0] = 1.0
    phase = np.outer(times_s, grid, out=g[:, nb + 1:])
    phase *= 2 * np.pi
    np.sin(phase, out=g[:, 1:nb + 1])
    np.cos(phase, out=phase)
    return g


def _gains(times_s, cfg):
    """Read-only ``(gains, final_cov)`` of :func:`_gain_recursion`, reused
    when the last drop-free grid and config are asked for again."""
    global _retained
    key = (times_s.tobytes(), cfg)
    retained = _retained  # one read: another thread may replace it
    if retained is not None and retained[0] == key:
        return retained[1]
    result = _gain_recursion(times_s, cfg)
    for array in result:
        array.flags.writeable = False
    if is_uniform(times_s):
        _retained = (key, result)
    return result


def _gain_recursion(times_s, cfg):
    """Kalman gain of every step and the final covariance.

    Returns the gains as an (n, 2 * n_bins + 1) array and the covariance
    after the last update.  Observation rows are built a block at a time,
    so only the gain table grows with n.
    """
    grid = cfg.grid_hz()
    dim = 2 * cfg.n_bins + 1
    gains = np.empty((len(times_s), dim))
    p = np.eye(dim) * cfg.init_cov
    p_diag = p.reshape(-1)[::dim + 1]  # a view: writes go to p
    pg = np.empty(dim)
    buf = np.empty_like(p)
    for start in range(0, len(times_s), _BLOCK_STEPS):
        g_block = _observation_rows(times_s[start:start + _BLOCK_STEPS], grid)
        for k, g in enumerate(g_block, start):
            if k > 0:
                p_diag += cfg.process_var  # random walk: F = I
            np.matmul(p, g, out=pg)
            gain = np.divide(pg, float(g @ pg) + cfg.meas_var, out=gains[k])
            # p = (d + d.T) / 2 with d = p - outer(gain, pg), in place;
            # the transposed copy is faster than adding p.T, and * 0.5
            # is exact
            np.einsum("i,j->ij", gain, pg, out=buf)
            p -= buf
            np.copyto(buf, p.T)
            buf += p
            np.multiply(buf, 0.5, out=p)
    return gains, p
