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
log-frequency directly).  The predicted covariance is the unscented
spread of augmented sigma points [log-frequency; linear mean] plus the
rotated covariance of the linear substate given the log-frequency, and
is symmetrized; the measurement update P -= (P h)(P h)' / s keeps the
covariance exactly symmetric.

Each prior and posterior is kept above an eigenvalue floor, but the
floor is tested a block of up to ``_BLOCK_STEPS`` steps at a time (fewer
where the block's buffers would pass ``_BLOCK_BYTES``; outputs do not
depend on the block length).  A block first runs without it; then one
stacked Cholesky call tests every prior and posterior the block left,
each against its step's trace shift.  If all pass, no floor would have
fired and the block stands.  Otherwise it runs again from the state
before it, with the floor of :func:`_recondition` (one stacked
``eigh``) at every step, so outputs are those of flooring every step.
A state that runs away, a covariance or rate that is not finite or a
rate that underflows to 0, raises :class:`EstimatorError` naming the
time of the first bad step; no floating-point warning is reported.

:func:`gp_estimate_batch` steps any number of streams sampled at the
same times in lockstep, on stacked means and covariances, each row bit
for bit as it runs alone; :func:`gp_estimate` is the batch of one.  It
matches the per-sample loop as first written within 1e-10 of each
output's largest magnitude, with equal floor counts (a tolerance the
tests pin), not bit for bit: at most 5e-12 was seen on the tests'
draws, and 2.1e-11 on bed traces at -18 dB.

A step of a few rows costs numpy's fixed cost per call, not arithmetic,
so a step is 21 numpy calls, one code path for any number of rows, each
writing into a work array or view that a call builds once.  The
predicted covariance is one matmul of stacked factors, halved, in which
the linear substate is conditioned on the log-frequency as a rank-one
term, pll - g g' with g = psl / sqrt(pss); the sigma means, with g
beside them, are one matmul, and their rotations another; every
harmonic rotation of every branch is written by one complex exp; and
the measurement update is one stacked update of the covariance and the
mean.  The step's terms that change with the time delta are
precomputed: a shift of the whole mean for the drift of the
log-frequency, each harmonic's angle with the phase of each row of its
rotation, and per block half the process noise on the diagonals of
whole matrices that hold -0.0 elsewhere (x + -0.0 is x).
"""

import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy import special

from .common import EstimateSeries, EstimatorError, check_finite, check_rows

# Steps run a block at a time, and the floors of a whole block are tested
# by one stacked Cholesky call.  128 steps make numpy's per-call cost
# vanish; a block takes fewer, but at least one, where its buffers would
# pass _BLOCK_BYTES.  At the default two harmonics (dim 6) that first
# happens at 45 rows.
_BLOCK_STEPS = 128
_BLOCK_BYTES = 12 << 20


def _block_steps(n_rows, dim):
    """Steps per block for ``n_rows`` rows of ``dim`` states.  Per step
    and row a block holds the prior and posterior states, (dim + 2) x
    dim each, the noise matrix, and the stacked test's copy and Cholesky
    factor of both covariances, dim x dim each: dim (7 dim + 4)
    doubles."""
    step_bytes = n_rows * dim * (7 * dim + 4) * 8
    return max(1, min(_BLOCK_STEPS, _BLOCK_BYTES // step_bytes))


def kernel_cosine_weights(kernel_var, lengthscale, n_harmonics):
    """Cosine-series weights of the periodic kernel.

    Returns ``(q0, qn)`` with ``qn`` of length ``n_harmonics`` such
    that K(tau) = q0 + sum_n qn[n-1] * cos(2*pi*n*f*tau) exactly as
    n_harmonics -> inf:

        q0 = kernel_var * exp(-1/l**2) * I_0(1/l**2)
        qn = 2 * kernel_var * exp(-1/l**2) * I_n(1/l**2)

    The per-step process noise of the state-space form is 2*dt times
    these weights.  Raises :class:`EstimatorError` naming the
    lengthscale when a weight is not finite: below a lengthscale of
    about 0.0374, I_0(1/l**2) overflows, and below about 0.0366
    exp(-1/l**2) underflows to 0 as well.
    """
    try:
        inv_l2 = 1.0 / lengthscale ** 2
    except OverflowError:  # the square overflows, so 1/l**2 is 0
        inv_l2 = 0.0
    except ZeroDivisionError:  # the square underflows to 0
        inv_l2 = math.inf
    scale = kernel_var * math.exp(-inv_l2)
    n = np.arange(1, n_harmonics + 1)
    with np.errstate(all="ignore"):
        q0 = scale * special.iv(0, inv_l2)
        qn = 2 * scale * special.iv(n, inv_l2)
    if not (np.isfinite(q0) and np.isfinite(qn).all()):
        raise EstimatorError(
            f"lengthscale={lengthscale!r} with kernel_var={kernel_var!r} "
            f"gives kernel weights that are not finite (I_n(1/l**2) "
            f"overflows below a lengthscale of about 0.0374)")
    return q0, qn


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

    A config whose tracker cannot be formed raises
    :class:`EstimatorError`: every float field must be finite; the top
    harmonic's initial variance must be a positive normal double, which
    bounds ``n_harmonics`` at 149 at the default ``kernel_var``; and
    the kernel weights must be finite (:func:`kernel_cosine_weights`).
    The sigma points over the log-frequency are fixed
    (:func:`_sigma_weights`).
    """

    n_harmonics: int = 2
    kernel_var: float = 0.01
    lengthscale: float = 0.9
    freq_drift: float = 1e-4
    meas_var: float = 1.0
    init_log_freq: float = math.log(15.0 / 60.0)
    init_log_freq_var: float = 0.02
    init_dc_var: float = math.sqrt(0.1)

    def __post_init__(self):
        check_finite(self)
        if self.n_harmonics < 1:
            raise EstimatorError("n_harmonics must be at least 1")
        if min(self.kernel_var, self.lengthscale, self.meas_var,
               self.init_log_freq_var, self.init_dc_var) <= 0:
            raise EstimatorError("variances and lengthscale must be positive")
        if self.freq_drift < 0:
            raise EstimatorError("freq_drift must be non-negative")
        # 2**n * n! exceeds every double from n = 171 on, where
        # math.factorial's result no longer converts to one
        n = self.n_harmonics
        top_var = (self.kernel_var * 100 / (2.0 ** n * math.factorial(n))
                   if n <= 170 else 0.0)
        if not sys.float_info.min <= top_var < math.inf:
            raise EstimatorError(
                f"n_harmonics={n} with kernel_var={self.kernel_var!r} gives "
                f"the top harmonic an initial variance 100 * kernel_var / "
                f"(2**n * n!) = {top_var!r}, not a positive normal double "
                f"(at kernel_var=0.01, n_harmonics is at most 149)")
        kernel_cosine_weights(self.kernel_var, self.lengthscale, n)


def _sigma_weights():
    """gamma and the mean and covariance weights of the sigma points
    [0, +gamma, -gamma] over the log-frequency: the scaled unscented
    transform (Julier, ACC 2002) at alpha = 0.1, beta = 2 (optimal for a
    Gaussian prior) and kappa = 0, the tracker's one configuration, with
    lambda = alpha**2 (1 + kappa) - 1 and gamma = sqrt(1 + lambda)."""
    alpha, beta, kappa = 0.1, 2.0, 0.0
    lam = alpha ** 2 * (1 + kappa) - 1
    wm = np.array([lam / (1 + lam), 0.5 / (1 + lam), 0.5 / (1 + lam)])
    wc = wm.copy()
    wc[0] += 1 - alpha ** 2 + beta
    return math.sqrt(1 + lam), wm, wc


def _diagonal(x):
    """Writable view of the diagonals of the stack of square matrices ``x``."""
    return x.reshape(*x.shape[:-2], -1)[..., ::x.shape[-1] + 1]


def _block_passes(cov):
    """Whether no floor of :func:`_recondition` would fire in a block.

    ``cov`` holds the block's symmetric priors, then its posteriors,
    shape ``(2, steps, rows, d, d)``.  All must be finite (numpy's
    factorization does not reject NaN), and each minus 2e-12 times the
    trace of its step's prior must have a Cholesky factor.  The trace
    bounds the largest eigenvalue of a PSD matrix, and a posterior's
    diagonal is never above its prior's, so a factor proves the smallest
    eigenvalue above twice the floor: a matrix near the test's edge does
    not fire either way.  The shift is subtracted from the diagonals of
    a copy only, which leaves the entries off them as they are.
    """
    if not np.isfinite(cov).all():
        return False
    shifted = cov.copy()
    diagonals = _diagonal(shifted)
    diagonals -= 2e-12 * np.maximum(_diagonal(cov[0]).sum(-1, keepdims=True),
                                    1e-30)
    try:
        np.linalg.cholesky(shifted)
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
    it, with each exactly symmetric prior and posterior as both ``p``
    and ``sym``, at every step of a block whose stacked test
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


@np.errstate(all="ignore")
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
    gamma, wm, wc = _sigma_weights()
    sigma_offsets = gamma * np.array([0.0, 1.0, -1.0])

    h_row = np.zeros(dim)
    h_row[1] = 1.0
    h_row[2::2] = 1.0

    # kernel_var * 100 is exactly 1.0 at the default 0.01
    harm_var = [cfg.kernel_var * 100 / (2.0 ** j * math.factorial(j))
                for j in harmonics]
    # A state is the covariance, then a constant row e = [0, 1, 0, ...]
    # with e h = 1, then the mean: (rows, dim + 2, dim).  p holds the
    # state the next block starts from.
    p = np.zeros((n_rows, dim + 2, dim))
    p[:, :dim] = np.diag(np.r_[cfg.init_log_freq_var, cfg.init_dc_var,
                               np.repeat(harm_var, 2)])
    p[:, dim, 1] = 1.0
    p[:, dim + 1, 0] = cfg.init_log_freq
    p[:, dim + 1, 1] = z[:, 0]

    # per-step terms of the dynamics, row k for the step into sample k
    # (row 0 is not used): a shift of the whole mean, the drift of the
    # log-frequency and 0 beyond it, so that m - shift passes the linear
    # mean through exactly; per harmonic, its angle per Hz over the step
    # for both rows of its rotation, then the phase of each row, 0 and
    # pi/2; half the process noise of the whole diagonal
    dts = np.diff(times_s, prepend=times_s[0])[:, None]
    shift = np.zeros((n, dim))
    shift[:, :1] = 0.5 * np.float64(cfg.freq_drift) ** 2 * dts
    angles = np.empty((n, 2, 2 * nh))
    angles[:, 0] = np.repeat(2 * np.pi * dts * harmonics, 2, axis=1)
    angles[:, 1] = np.tile([0.0, np.pi / 2], nh)
    half_noise = dts * np.r_[cfg.freq_drift, 2 * q0,
                             2 * np.repeat(qn, 2)] / 2

    # The sigma points of the log-frequency, and the linear state given
    # each, are v_j = (m - shift) + spread_j * [sqrt(pss), psl / sqrt(pss)]
    # with spread_j = gamma * (0, 1, -1)[j].  One product gives each with
    # g = [0, psl / sqrt(pss)] beside it: sigma_map @ [m - shift; g;
    # sqrt(pss) e_0] = [v_0; g; v_1; g; v_2; g].
    sigma_map = np.zeros((3, 2, 3))
    sigma_map[:, 0] = np.c_[np.ones(3), sigma_offsets, sigma_offsets]
    sigma_map[:, 1, 1] = 1.0
    sigma_map = sigma_map.reshape(6, 3)
    # Each branch j rotates both by its dynamics: identity DC, then a
    # rotation by 2*pi*n*f*dt per harmonic, giving the sigma point
    # u_j = [v_j[0], a_j v_j[1:]] and ag_j = [0, a_j g[1:]].  Given
    # the log-frequency the linear part's covariance is
    # pll - g g', so the predicted covariance before its noise is
    #   sum_j wc_j dev_j dev_j' + sum_j wm_j a_j (pll - g g') a_j'
    # with dev_j = u_j - sum_i wm_i u_i, halved, as one product
    # left' @ right summed over 6 + 3 * dim rows:
    #   left  = [-w_j ag_j; wc_j / 2 * dev_j; [0, 0; 0, pll (w_j a_j')]]
    #   right = [ag_j; dev_j; [1, 0; 0, a_j']]
    # for j = 0, 1, 2, with w = wm / 2; pll is exactly symmetric.  One
    # constant map, dev_map, takes [u_j; ag_j] to the first 6 rows of
    # both.  right's blocks [1, 0; 0, a_j'] are also what rotates u_j and
    # ag_j.  In them a harmonic's rotation has rows (cos, sin) and
    # (-sin, cos), and one complex exp writes both rows of every one,
    # each row viewed as one complex number: exp(i theta) and
    # exp(i (theta + pi/2)).  Row 0 and column 0 of left's last blocks
    # stay 0.
    w = wm / 2
    dev = np.eye(3) - wm
    dev_map = np.zeros((2, 6, 6))
    dev_map[0, range(3), range(1, 6, 2)] = -w
    dev_map[0, 3:, ::2] = wc[:, None] / 2 * dev
    dev_map[1, range(3), range(1, 6, 2)] = 1.0
    dev_map[1, 3:, ::2] = dev
    wide = 6 + 3 * dim
    factors = np.zeros((n_rows, 2, wide, dim))
    left, right = factors[:, 0], factors[:, 1]
    left_t, factors_dev = left.mT, factors[:, :, :6]
    left_rot = left[:, 6:].reshape(n_rows, 3, dim, dim)[..., 1:, 1:]
    rot = right[:, 6:].reshape(n_rows, 3, dim, dim)
    rot[...] = np.eye(dim)
    rot_c = rot.view(np.complex128)[:, :, 2:, 1:]
    rot_blocks = as_strided(rot_c, shape=(n_rows, 3, nh, 2), strides=(
        *rot_c.strides[:2], 2 * rot_c.strides[2] + rot_c.strides[3],
        rot_c.strides[2]))
    w_rot = np.tile(w[:, None, None], (n_rows, 1, dim, dim))
    rot_w = np.empty((n_rows, 3, dim, dim))
    rot_w_lin = rot_w[..., 1:, 1:]

    # Every other work array of a step, allocated once, with every view
    # a step takes of one: each numpy call of a step writes into one.
    basis = np.zeros((n_rows, 3, dim))  # [m - shift; g; sqrt(pss) e_0]
    centre, g_lin, std = basis[:, 0], basis[:, 1, 1:], basis[:, 2, :1]
    v_g = np.empty((n_rows, 3, 2, dim))  # [v_j; g] per branch
    v_rows, v_freq = v_g.reshape(n_rows, 6, dim), v_g[:, :, 0, 0]
    u_ag = np.empty((n_rows, 3, 2, dim))  # [u_j; ag_j] per branch
    u, u_ag_rows = u_ag[:, :, 0], u_ag.reshape(n_rows, 1, 6, dim)
    rate_one = np.ones((n_rows, 3, 2))  # [exp(v_j[0]), 1]
    rate = rate_one[..., 0]
    itheta = np.zeros((n_rows, 3, nh, 2), complex)
    theta = itheta.imag.reshape(n_rows, 3, 2 * nh)
    q = np.empty((n_rows, dim, dim))  # half the prior, not symmetrized
    q_t = q.mT
    gain = np.empty((n_rows, dim + 2))  # [prior h; e h = 1; h m - z]
    gain_col, ph_one, ph_row = gain[..., None], gain[:, :dim + 1], \
        gain[:, None, :dim]
    innov = gain[:, dim + 1]
    h_meas = np.r_[h_row, cfg.meas_var]
    s = np.empty(n_rows)
    s_b = s[:, None, None]
    update = np.empty((n_rows, dim + 2, dim))

    # the means of step k are history[k]
    history = np.empty((n, n_rows, dim))
    counts = [0] * n_rows
    # the prior states, then the posterior ones, of the steps of one
    # block, and half the process noise of each step of the block on the
    # diagonal; cov holds the covariances of states, post_means the
    # posterior means
    block_steps = min(n, _block_steps(n_rows, dim))
    states = np.empty((2, block_steps, n_rows, dim + 2, dim))
    states[0, :, :, dim] = p[:, dim]
    cov, post_means = states[..., :dim, :], states[1, :, :, dim + 1]
    block_noise = np.full(states.shape[1:3] + (dim, dim), -0.0)
    block_noise_diag = _diagonal(block_noise)

    def starts_from(state):
        """The views a step takes of the ``state`` it starts from: the
        linear block of its covariance (broadcast over branches), its
        log-frequency variance, that variance's covariances with the
        linear state, and its mean."""
        return (state[:, None, 1:dim, 1:dim], state[:, 0, :1],
                state[:, 0, 1:dim], state[:, dim + 1])

    # per slot of a block: its prior state, the prior's covariance and
    # mean, its posterior state and covariance, its noise, and the views
    # of the state it starts from (p for the first slot, else the
    # posterior of the slot before)
    slots = [(prior_state, prior_state[:, :dim], prior_state[:, dim + 1],
              post_state, post_state[:, :dim], step_noise,
              starts_from(p if i == 0 else states[1, i - 1]))
             for i, (prior_state, post_state, step_noise)
             in enumerate(zip(*states, block_noise))]

    def runaway(k):
        """The error for a state that ran away by step ``k``: it names
        the first step whose mean or f_hat is not finite, or whose f_hat
        underflowed to 0, else ``k``."""
        mean = history[:k + 1]
        f_hat = np.exp(mean[..., 0])
        finite = np.isfinite(mean).all(-1) & np.isfinite(f_hat)
        bad = ~(finite & (f_hat > 0)).all(1)
        first = bad.argmax() if bad.any() else k
        why = "not finite" if not finite[first].all() else "a rate of 0"
        return EstimatorError(f"gp: the tracker state ran away ({why}) "
                              f"at t = {times_s[first]:.6g} s")

    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, \
        np.divide
    matmul, matvec, vecmat, vecdot = np.matmul, np.matvec, np.vecmat, \
        np.vecdot
    sqrt, exp = np.sqrt, np.exp

    def run_block(start, gated):
        """Run the steps of one block from step ``start``, from the state
        of the step before (p).  Each step writes its prior and posterior
        states into its slot of ``states``.  Gated, each step floors both
        covariances (:func:`_recondition`) as it goes, and raises if
        either is not finite; otherwise nothing is tested."""

        def ran_away(k, mean):
            """The error at step ``k`` of the block, whose mean is
            ``mean``."""
            history[start:k] = post_means[:k - start]
            history[k] = mean
            return runaway(k)

        for k, (prior_state, prior, m, post_state, post, step_noise,
                (pll, pss, psl, m_prev)), z_k, shift_k, angles_k in zip(
                    range(start, n), slots, zt[start:], shift[start:],
                    angles[start:]):
            if k == 0:
                np.copyto(prior_state, p)
            else:
                # sigma points and the rotation of each branch
                sqrt(pss, std)
                divide(psl, std, g_lin)
                subtract(m_prev, shift_k, centre)
                matmul(sigma_map, basis, v_rows)
                exp(v_freq, rate)
                matmul(rate_one, angles_k, theta)
                exp(itheta, rot_blocks)
                matmul(v_g, rot, u_ag)
                # the factors of the predicted covariance, and the mean
                # sum_j wm_j u_j
                multiply(rot, w_rot, rot_w)
                matmul(pll, rot_w_lin, left_rot)
                vecmat(wm, u, m)
                matmul(dev_map, u_ag_rows, factors_dev)
                # the prior: q = left' right + half the noise, then
                # q + q', exactly symmetric
                matmul(left_t, right, q)
                add(q, step_noise, q)
                add(q, q_t, prior)
            if gated and k > 0 and not _recondition(prior, prior, counts):
                raise ran_away(k, m)

            # [post; e'; m'] = [prior; e; m] - [ph; 1; h m - z] ph' / s,
            # with ph = prior h and s = h ph + meas_var: the posterior
            # prior - (ph ph') / s, whose entries (ph_i * ph_j) / s
            # equal their transposes, so it stays exactly symmetric, and
            # the mean m + ph (z - h m) / s.  e' is not used.
            matvec(prior_state, h_row, gain)
            vecdot(ph_one, h_meas, s)
            subtract(innov, z_k, innov)
            multiply(gain_col, ph_row, update)
            divide(update, s_b, update)
            subtract(prior_state, update, post_state)
            if gated and not _recondition(post, post, counts):
                raise ran_away(k, post_state[:, dim + 1])

    # Each block of steps runs once without the floor.  If every prior
    # and posterior it leaves passes the stacked test, no floor would
    # have fired, and a floor that does not fire changes nothing.
    # Otherwise the block runs again, gated, from the state before it;
    # only that run can floor.
    for start in range(0, n, block_steps):
        steps = min(n - start, block_steps)
        block_noise_diag[:steps] = half_noise[start:start + steps, None]
        run_block(start, gated=False)
        if not _block_passes(cov[:, :steps]):
            run_block(start, gated=True)
        history[start:start + steps] = post_means[:steps]
        np.copyto(p, states[1, steps - 1])
    f_hat = np.exp(history[..., 0].T, out=np.empty((n_rows, n)))
    if not ((f_hat > 0).all() and np.isfinite(f_hat).all()
            and np.isfinite(history).all()):
        raise runaway(n - 1)
    means = history.transpose(1, 0, 2)  # one row per stream
    recon = np.vecdot(means, h_row, out=np.empty((n_rows, n)))
    return [EstimateSeries(
        method="gp", times_s=times_s.copy(), f_hat_hz=f_hat[r],
        aux={"recon": recon[r], "dc": means[r, :, 1].copy(),
             "harmonic_cos": means[r, :, 2::2].copy(),
             "recondition_count": counts[r],
             "final_state": means[r, -1].copy(),
             "final_cov": p[r, :dim].copy()},
    ) for r in range(n_rows)]
