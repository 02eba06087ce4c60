"""Kalman-filter rate estimator on a fixed frequency grid.

Models the preprocessed signal ``z`` as a DC term plus one sine/cosine
coefficient pair per grid frequency, all following independent random
walks.  The observation row is built from the actual sample timestamps,
so unevenly spaced or missing samples need no special handling.  The
rate estimate is the grid frequency whose coefficient pair currently
has the largest amplitude.  Bins are scored by their squared amplitude,
and ``hypot`` is taken at the peak only (and over the bins of a state
whose squares tie or nearly tie), which gives the bin and amplitude of
an argmax over ``hypot`` bit for bit (:func:`_peaks`).

The covariance and gain recursion depends only on the timestamps and
the config, never on ``z``.  It keeps the covariance as one lower
triangle and applies each measurement update with the symmetric BLAS
kernels ``dsymv`` and ``dsyr``, so kf matches the full-matrix loop it
replaced within rounding (a tolerance the tests pin), not bit for bit.
:func:`kf_estimate_batch` runs the recursion once for any number of
streams sampled at the same times and steps all their states together,
gains and states in one pass over blocks of steps; :func:`kf_estimate`
is the batch of one.  The gains of the last drop-free grid are also
kept, so later calls on the same grid and config reuse them.  The reuse
is per process: each worker of a parallel sweep fills its own.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv, dsyr

from ..dsp import is_uniform
from .common import EstimateSeries, EstimatorError, check_finite, check_rows

# Steps handled a block at a time: observation rows are built, gains
# computed and the state history scored (squared amplitudes, argmax,
# hypot at the peak, recon) per block.  Large enough that numpy's
# per-call cost vanishes, small enough that 32 rows of history stay near
# 5 MB.
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
        check_finite(self)
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

    x = np.zeros((n_rows, dim))
    x[:, 0] = z[:, 0]
    f_hat = np.empty((n_rows, n))
    recon = np.empty((n_rows, n))
    peak_amp = np.empty((n_rows, n))
    dc = np.empty((n_rows, n))
    history = np.empty((n_rows, min(n, _BLOCK_STEPS), dim))
    final_cov = np.empty((dim, dim))

    # x @ g would be one gemv over all rows, which sums in another order
    # than the dot product a single row gets; vecdot keeps one dot per row.
    start = 0
    for g_block, gains in _gain_blocks(times_s, cfg, final_cov):
        block = slice(start, start + len(g_block))
        for k, (g, gain) in enumerate(zip(g_block, gains), start):
            x += (z[:, k] - np.vecdot(x, g))[:, None] * gain
            history[:, k - start] = x
        states = history[:, :len(g_block)]
        best, peak_amp[:, block] = _peaks(states[..., 1:nb + 1],
                                          states[..., nb + 1:])
        f_hat[:, block] = grid[best]
        recon[:, block] = np.vecdot(states, g_block)
        dc[:, block] = states[..., 0]
        start = block.stop

    return [EstimateSeries(
        method="kf", times_s=times_s.copy(), f_hat_hz=f_hat[r],
        aux={"recon": recon[r], "peak_amp": peak_amp[r],
             "low_amplitude": peak_amp[r] < cfg.amp_floor,
             "dc": dc[r], "grid_hz": grid,
             "final_amplitudes": np.hypot(x[r, 1:nb + 1], x[r, nb + 1:]),
             "final_state": x[r], "final_cov": final_cov},
    ) for r in range(n_rows)]


def _peaks(sin, cos):
    """The bin and amplitude of each state's largest coefficient pair.

    ``sin`` and ``cos`` hold the pairs, bins on the last axis.  Returns
    what ``np.argmax`` and ``max`` over ``np.hypot(sin, cos)`` give, bit
    for bit (argmax takes the first max: the lower f wins), but scores
    the bins by their squared amplitude, two squares and an add, and
    takes ``hypot`` at the peak only.  Each square is within a few ulps
    of the exact one (within 2**-1073 where it underflows) and ``hypot``
    within one ulp, so a bin whose square is below the edge, (1 - 2**-40)
    times the largest square less 2**-1070, has a ``hypot`` below the
    peak's.  A largest square that overflows counts as the largest
    finite double, and the overflow raises no warning.  Where more than
    one bin reaches the edge (a tie or near-tie), or none does (the state
    holds NaN), the state's bins are scored by ``hypot`` instead.
    """
    with np.errstate(over="ignore"):
        square = np.multiply(sin, sin)
        square += np.multiply(cos, cos)
    best = np.argmax(square, axis=-1)[..., None]
    largest = np.take_along_axis(square, best, axis=-1)
    edge = np.minimum(largest, np.finfo(float).max)
    edge *= 1 - 2.0 ** -40
    edge -= 2.0 ** -1070
    near = np.count_nonzero(square >= edge, axis=-1) != 1
    if near.any():
        best[near] = np.argmax(np.hypot(sin[near], cos[near]),
                               axis=-1)[:, None]
    peak = np.hypot(np.take_along_axis(sin, best, axis=-1),
                    np.take_along_axis(cos, best, axis=-1))
    return best[..., 0], peak[..., 0]


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


def _gain_blocks(times_s, cfg, final_cov):
    """Yield ``(observation rows, gains)`` per block of steps, then fill
    ``final_cov`` with the covariance after the last update.

    The gains of the last drop-free grid and config are read from the
    retained table; otherwise :func:`_gain_recursion` computes them, and
    a drop-free grid copies them into a new table to retain.
    """
    global _retained
    key = (times_s.tobytes(), cfg)
    retained = _retained  # one read: another thread may replace it
    if retained is not None and retained[0] == key:
        gains, cov = retained[1]
        grid = cfg.grid_hz()
        for start in range(0, len(times_s), _BLOCK_STEPS):
            block = slice(start, start + _BLOCK_STEPS)
            yield _observation_rows(times_s[block], grid), gains[block]
        np.copyto(final_cov, cov)
        return
    if not is_uniform(times_s):  # a random draw per trace: never retained
        yield from _gain_recursion(times_s, cfg, final_cov)
        return
    table = np.empty((len(times_s), final_cov.shape[0]))
    start = 0
    for g_block, gains in _gain_recursion(times_s, cfg, final_cov):
        table[start:start + len(gains)] = gains
        start += len(gains)
        yield g_block, gains
    cov = final_cov.copy()
    for array in (table, cov):
        array.flags.writeable = False
    _retained = (key, (table, cov))


def _gain_recursion(times_s, cfg, final_cov):
    """Kalman gains a block at a time, and the final covariance.

    Yields the observation rows of each block of ``_BLOCK_STEPS`` steps
    with their gains, in one buffer that the next block overwrites.  The
    covariance is kept as the lower triangle of a Fortran-ordered array:
    ``dsymv`` forms P g and ``dsyr`` applies the rank-1 update
    P -= (P g)(P g)' / s to that triangle only, so P stays symmetric
    with no pass to enforce it.  After the last block the triangle is
    mirrored into ``final_cov``, which is then exactly symmetric.
    """
    grid = cfg.grid_hz()
    dim = 2 * cfg.n_bins + 1
    p = np.asfortranarray(np.eye(dim) * cfg.init_cov)
    p_diag = p.reshape(-1, order="F")[::dim + 1]  # a view: writes go to p
    # each step leaves P g in its gains row and the innovation variance
    # in s; the block's rows are divided by their s in one call
    gains = np.empty((min(len(times_s), _BLOCK_STEPS), dim))
    s = np.empty((len(gains), 1))
    for start in range(0, len(times_s), _BLOCK_STEPS):
        g_block = _observation_rows(times_s[start:start + _BLOCK_STEPS], grid)
        for k, g in enumerate(g_block):
            if start + k > 0:
                p_diag += cfg.process_var  # random walk: F = I
            # positional, as keyword parsing costs about 2 us a step; the
            # f2py order is dsymv(alpha, a, x, beta, y, offx, incx, offy,
            # incy, lower, overwrite_y) and dsyr(alpha, x, lower, incx,
            # offx, n, a, overwrite_a)
            pg = dsymv(1.0, p, g, 0.0, gains[k], 0, 1, 0, 1, 1, 1)
            s[k] = s_k = float(g @ pg) + cfg.meas_var
            dsyr(-1.0 / s_k, pg, 1, 1, 0, dim, p, 1)
        m = len(g_block)
        gains[:m] /= s[:m]
        yield g_block, gains[:m]
    np.add(np.tril(p), np.tril(p, -1).T, out=final_cov)
