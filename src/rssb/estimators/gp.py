"""Quasi-periodic Gaussian-process tracker with unknown fundamental.

The breathing signal is modeled as a Gaussian process with the
periodic covariance

    K(tau) = kernel_var * exp(-2 * sin(pi*f*tau)**2 / lengthscale**2)

whose cosine expansion gives one independent two-state harmonic
oscillator per multiple of the fundamental plus a DC random walk
(state-space form of the periodic kernel).  The unknown fundamental is
tracked on a log scale as an additional state with geometric-
Brownian-motion dynamics, which makes the filter jointly nonlinear:
conditional on the log-frequency trajectory everything else is
linear-Gaussian.

The filter exploits exactly that structure: sigma points are drawn
over the scalar log-frequency only, the harmonic substate is pushed
through each sigma point's rotation analytically, and the measurement
update is the plain linear one (the observation does not involve the
log-frequency directly).  The predicted moments are the unscented ones,
assembled as one weighted outer product over augmented sigma points
[log-frequency; linear mean], and are symmetrized; the measurement
update P -= (P h)(P h)' / s keeps the covariance exactly symmetric.

Each prior and posterior is kept above an eigenvalue floor, but the
floor is tested a block of ``_BLOCK_STEPS`` steps at a time.  A block
first runs without it; then one stacked Cholesky call tests every
prior and posterior the block left, each against its step's trace
shift.  If all pass, no floor would have fired and the block stands.
Otherwise it runs again from the state before it, with the floor of
:func:`_recondition` (one stacked ``eigh``) at every step, so outputs
are those of flooring every step.  A state that runs away, a
covariance or rate that is not finite or a rate that underflows to 0,
raises :class:`EstimatorError` naming the time of the first bad step;
no floating-point warning is reported.

:func:`gp_estimate_batch` steps any number of streams sampled at the
same times in lockstep, on stacked means and covariances, each row bit
for bit as it runs alone; :func:`gp_estimate` is the batch of one.  It
matches the per-sample loop as first written within 1e-10 of each
output's largest magnitude, with equal floor counts (a tolerance the
tests pin), not bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .common import EstimateSeries, EstimatorError, check_rows

# Steps run a block at a time, and the floors of a whole block are tested
# by one stacked Cholesky call.  Large enough that numpy's per-call cost
# vanishes, small enough that the priors and posteriors of 16 rows stay
# near 1 MB.
_BLOCK_STEPS = 128


def kernel_cosine_weights(kernel_var, lengthscale, n_harmonics):
    """Cosine-series weights of the periodic kernel.

    Returns ``(q0, qn)`` with ``qn`` of length ``n_harmonics`` such
    that K(tau) = q0 + sum_n qn[n-1] * cos(2*pi*n*f*tau) exactly as
    n_harmonics -> inf:

        q0 = kernel_var * exp(-1/l**2) * I_0(1/l**2)
        qn = 2 * kernel_var * exp(-1/l**2) * I_n(1/l**2)

    The per-step process noise of the state-space form is 2*dt times
    these weights.
    """
    inv_l2 = 1.0 / lengthscale ** 2
    scale = kernel_var * math.exp(-inv_l2)
    n = np.arange(1, n_harmonics + 1)
    return scale * special.iv(0, inv_l2), 2 * scale * special.iv(n, inv_l2)


@dataclass(frozen=True)
class GpConfig:
    """Tracker settings.

    ``freq_drift`` is the diffusion strength of the log-frequency:
    per step it drifts by -freq_drift**2 * dt / 2 and receives noise of
    variance freq_drift * dt.  Initial harmonic-block variances are
    100 * kernel_var / (2**n * n!), so 1/(2**n * n!) at the default.
    As they scale with ``kernel_var``, scaling the input by c and
    ``kernel_var``, ``meas_var`` and ``init_dc_var`` by c**2 leaves the
    rate unchanged (bit for bit when c is a power of two, within
    roundoff otherwise).  The DC block starts at ``init_dc_var`` and the
    log-frequency at ``init_log_freq_var``.
    """

    n_harmonics: int = 2
    kernel_var: float = 0.01
    lengthscale: float = 0.9
    freq_drift: float = 1e-4
    meas_var: float = 1.0
    init_log_freq: float = math.log(15.0 / 60.0)
    init_log_freq_var: float = 0.02
    init_dc_var: float = math.sqrt(0.1)
    ut_alpha: float = 0.1
    ut_beta: float = 2.0
    ut_kappa: float = 0.0

    def __post_init__(self):
        if self.n_harmonics < 1:
            raise EstimatorError("n_harmonics must be at least 1")
        if min(self.kernel_var, self.lengthscale, self.meas_var,
               self.init_log_freq_var, self.init_dc_var) <= 0:
            raise EstimatorError("variances and lengthscale must be positive")
        if self.freq_drift < 0:
            raise EstimatorError("freq_drift must be non-negative")


def _sigma_weights(cfg: GpConfig):
    """Scaled unscented weights for the one-dimensional sigma set."""
    lam = cfg.ut_alpha ** 2 * (1 + cfg.ut_kappa) - 1
    wm = np.array([lam / (1 + lam), 0.5 / (1 + lam), 0.5 / (1 + lam)])
    wc = wm.copy()
    wc[0] += 1 - cfg.ut_alpha ** 2 + cfg.ut_beta
    return math.sqrt(1 + lam), wm, wc


def _diagonal(x):
    """Writable view of the diagonals of the stack of square matrices ``x``."""
    return x.reshape(*x.shape[:-2], -1)[..., ::x.shape[-1] + 1]


def _block_passes(cov, eye):
    """Whether no floor of :func:`_recondition` would fire in a block.

    ``cov`` holds the block's symmetric priors, then its posteriors,
    shape ``(2, steps, rows, d, d)``; ``eye`` is the identity of size d.
    All must be finite (numpy's factorization does not reject NaN), and
    each minus 2e-12 times the trace of its step's prior must have a
    Cholesky factor.  The trace bounds the largest eigenvalue of a PSD
    matrix, and a posterior's diagonal is never above its prior's, so a
    factor proves the smallest eigenvalue above twice the floor: a
    matrix near the test's edge does not fire either way.
    """
    if not np.isfinite(cov).all():
        return False
    shift = np.multiply.outer(
        2e-12 * np.maximum(_diagonal(cov[0]).sum(-1), 1e-30), eye)
    try:
        np.linalg.cholesky(cov - shift)
    except np.linalg.LinAlgError:
        return False
    return True


def _recondition(p, sym, counts):
    """Floor the eigenvalues of each matrix of the stack ``p`` at 1e-12
    of the largest, into ``sym``, with one stacked ``eigh`` call.

    ``sym`` holds ``p`` symmetrized, ``(p + p.mT) / 2``, or is ``p``
    itself when ``p`` is exactly symmetric.  A floored matrix,
    symmetrized, replaces its row of ``sym`` and adds one to its entry
    of ``counts`` (a list, updated in place).  Returns False, flooring
    nothing, when ``p`` is not finite.  :func:`gp_estimate_batch` calls
    it at every step of a block whose stacked test
    (:func:`_block_passes`) failed, and nowhere else.
    """
    if not np.isfinite(p).all():
        return False
    vals, vecs = np.linalg.eigh(p)
    floors = np.maximum(vals.max(-1), 1e-30) * 1e-12
    for r in np.flatnonzero(vals.min(-1) < floors):
        floored_vals = np.maximum(vals[r], floors[r])
        floored = vecs[r] @ np.diag(floored_vals) @ vecs[r].T
        sym[r] = (floored + floored.T) / 2
        counts[r] += 1
    return True


def gp_estimate(times_s, z, cfg: GpConfig = GpConfig()) -> EstimateSeries:
    """Track the fundamental frequency and harmonic amplitudes of ``z``.

    Handles uneven timestamps; each step uses the actual time delta.
    Returns one estimate per sample, f_hat = exp(log-frequency mean)
    after the measurement update.  ``aux`` carries the filtered
    reconstruction (``recon``), the DC history, the first component of
    every harmonic block (``harmonic_cos``, one column per harmonic)
    and ``recondition_count``, the number of times the eigenvalue floor
    fired.  The floor is tested by one stacked Cholesky call per block
    of steps; only a block that fails it runs again, with the floor's
    ``eigh`` at every step.  The outputs match the per-sample loop as
    first written within 1e-10 of each one's largest magnitude, with an
    equal count (a tolerance the tests pin), not bit for bit.  Raises
    :class:`EstimatorError` if the state runs away (see
    :func:`gp_estimate_batch`).
    """
    return gp_estimate_batch(times_s, [z], cfg)[0]


def gp_estimate_batch(times_s, rows, cfg: GpConfig = GpConfig()):
    """:func:`gp_estimate` on each stream in ``rows``, sampled at ``times_s``.

    All rows step together on stacked (rows, d) means and (rows, d, d)
    covariances.  Each row's series is bit for bit the one a batch of
    that row alone gives: every product is one BLAS call per matrix or
    vector, as on a single row, and every other operation is element
    by element.  A block of steps that one row's floor test fails runs
    again for all rows, which changes nothing for a row whose floor
    would not fire.  If any row's covariance at a floored step, or its
    mean or f_hat at any step, is not finite, or an f_hat underflows to
    0, the state ran away: :class:`EstimatorError` names the time of the
    first such step.  It is the only report; floating-point warnings are
    suppressed.
    """
    times_s, z = check_rows(times_s, rows)
    n_rows, n = z.shape
    zt = z.T.copy()

    nh = cfg.n_harmonics
    lin_dim = 1 + 2 * nh
    dim = 1 + lin_dim
    harmonics = np.arange(1, nh + 1)

    q0, qn = kernel_cosine_weights(cfg.kernel_var, cfg.lengthscale, nh)
    gamma, wm, wc = _sigma_weights(cfg)
    sigma_offsets = gamma * np.array([0.0, 1.0, -1.0])
    wm_stack = wm[:, None, None]

    h_row = np.zeros(dim)
    h_row[1] = 1.0
    h_row[2::2] = 1.0

    # kernel_var * 100 is exactly 1.0 at the default 0.01
    harm_var = [cfg.kernel_var * 100 / (2.0 ** j * math.factorial(j))
                for j in harmonics]
    # p holds the symmetric covariance after each step, q the predicted
    # one before it is symmetrized
    p = np.tile(np.diag(np.r_[cfg.init_log_freq_var, cfg.init_dc_var,
                              np.repeat(harm_var, 2)]), (n_rows, 1, 1))
    q = np.empty_like(p)
    q_diag = _diagonal(q)
    eye = np.eye(dim)

    # per-step terms of the dynamics, one row per time delta: the drift
    # of the log-frequency, the angle per Hz of each harmonic, and the
    # process noise of the whole diagonal
    dts = np.diff(times_s)[:, None]
    log_freq_drift = 0.5 * cfg.freq_drift ** 2 * dts
    angle_per_hz = 2 * np.pi * dts * harmonics
    noise = dts * np.r_[cfg.freq_drift, 2 * q0, 2 * np.repeat(qn, 2)]

    # linear dynamics per row and sigma point: identity DC, then a
    # rotation by 2*pi*n*f*dt per harmonic, written through strided
    # views of the flattened blocks at (row, col) for j = 1, 3, ...
    a = np.tile(np.eye(lin_dim), (n_rows, 3, 1, 1))
    blocks = a.reshape(n_rows, 3, -1)
    step = 2 * (lin_dim + 1)
    cos_jj = blocks[..., lin_dim + 1::lin_dim + 1].reshape(
        n_rows, 3, nh, 2)                        # cos at (j, j), (j+1, j+1)
    sin_lo = blocks[..., 2 * lin_dim + 1::step]  # sin at (j+1, j)
    sin_up = blocks[..., lin_dim + 2::step]      # -sin at (j, j+1)

    # sigma points [log-frequency; linear mean] per row
    u = np.empty((n_rows, 3, dim))
    # the mean of step k is history[:, k]; step 0 starts from m_init
    history = np.empty((n_rows, n, dim))
    m_init = np.zeros((n_rows, dim))
    m_init[:, 0] = cfg.init_log_freq
    m_init[:, 1] = z[:, 0]
    counts = [0] * n_rows
    # the priors, then the posteriors, of the steps of one block
    cov = np.empty((2, min(n, _BLOCK_STEPS), n_rows, dim, dim))

    def runaway(k):
        """The error for a state that ran away by step ``k``: it names
        the first step whose mean or f_hat is not finite, or whose f_hat
        underflowed to 0, else ``k``."""
        mean = history[:, :k + 1]
        f_hat = np.exp(mean[..., 0])
        finite = np.isfinite(mean).all(-1) & np.isfinite(f_hat)
        bad = ~(finite & (f_hat > 0)).all(0)
        first = bad.argmax() if bad.any() else k
        why = "not finite" if not finite[:, first].all() else "a rate of 0"
        return EstimatorError(f"gp: the tracker state ran away ({why}) "
                              f"at t = {times_s[first]:.6g} s")

    def run_block(start, p, block, gated):
        """Run the steps of one block from step ``start``, where ``p`` is
        the covariance of the step before (the initial one at step 0).
        Each step writes its prior and posterior into the next matrices
        of ``block``.  Gated, each step floors both (:func:`_recondition`)
        as it goes, and raises if either is not finite; otherwise nothing
        is tested."""
        for k, prior, post in zip(range(start, n), *block):
            m = history[:, k]
            if k == 0:
                m[...] = m_init
                prior[...] = p
            else:
                # Condition the linear substate on sigma points of the
                # log-frequency, propagate each branch, then re-merge
                # moments.
                m_prev = history[:, k - 1]
                pss = p[:, 0, :1]
                psl = p[:, 0, 1:]
                slope = psl / pss
                pl_cond = p[:, 1:, 1:] - slope[:, :, None] * psl[:, None]
                offsets = np.sqrt(pss) * sigma_offsets
                np.add(m_prev[:, :1] - log_freq_drift[k - 1], offsets,
                       out=u[..., 0])

                theta = np.exp(u[..., 0])[..., None] * angle_per_hz[k - 1]
                cos_jj[...] = np.cos(theta)[..., None]
                np.sin(theta, out=sin_lo)
                np.negative(sin_lo, out=sin_up)
                np.matvec(a, m_prev[:, None, 1:]
                          + slope[:, None] * offsets[..., None],
                          out=u[..., 1:])
                rot_cov = ((a * wm_stack) @ pl_cond[:, None] @ a.mT).sum(1)

                # unscented moments: mean sum_j wm u_j, covariance
                # sum_j wc (u_j - mean)(u_j - mean)' plus the branch spread
                np.vecmat(wm, u, out=m)
                np.subtract(u, m[:, None], out=u)
                np.matmul(u.mT * wc, u, out=q)
                q[:, 1:, 1:] += rot_cov
                np.add(q_diag, noise[k - 1], out=q_diag)
                np.add(q, q.mT, out=prior)
                prior /= 2
            if gated and k > 0 and not _recondition(q, prior, counts):
                raise runaway(k)

            # Each posterior entry (ph_i * ph_j) / s equals its transpose,
            # so it stays exactly symmetric.
            ph = np.matvec(prior, h_row)
            s = np.vecdot(ph, h_row) + cfg.meas_var
            m += ph * ((zt[k] - np.vecdot(m, h_row)) / s)[:, None]
            update = ph[:, :, None] * ph[:, None]
            update /= s[:, None, None]
            np.subtract(prior, update, out=post)
            if gated and not _recondition(post, post, counts):
                raise runaway(k)
            p = post

    # Each block of steps runs once without the floor.  If every prior
    # and posterior it leaves passes the stacked test, no floor would
    # have fired, and a floor that does not fire changes nothing.
    # Otherwise the block runs again, gated, from the state before it;
    # only that run can floor.
    with np.errstate(all="ignore"):
        for start in range(0, n, _BLOCK_STEPS):
            block = cov[:, :n - start]
            run_block(start, p, block, gated=False)
            if not _block_passes(block, eye):
                run_block(start, p, block, gated=True)
            p = block[1, -1].copy()
        f_hat = np.exp(history[:, :, 0])
        if not ((f_hat > 0).all() and np.isfinite(f_hat).all()
                and np.isfinite(history).all()):
            raise runaway(n - 1)
    recon = np.vecdot(history, h_row)
    return [EstimateSeries(
        method="gp", times_s=times_s.copy(), f_hat_hz=f_hat[r],
        aux={"recon": recon[r], "dc": history[r, :, 1].copy(),
             "harmonic_cos": history[r, :, 2::2].copy(),
             "recondition_count": counts[r],
             "final_state": history[r, -1].copy(), "final_cov": p[r].copy()},
    ) for r in range(n_rows)]
