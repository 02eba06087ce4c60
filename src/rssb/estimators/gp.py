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
log-frequency directly).  Both steps symmetrize the covariance; its
eigenvalue floor is checked by ``eigh`` only if a Cholesky test fails.

:func:`gp_estimate_batch` steps any number of streams sampled at the
same times in lockstep, on stacked means and covariances, each row bit
for bit as it runs alone; :func:`gp_estimate` is the batch of one.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg.lapack import dpotrf

from .common import EstimateSeries, EstimatorError, check_rows


def periodic_kernel(tau_s, kernel_var, lengthscale, freq_hz):
    """Quasi-periodic covariance function evaluated at lags ``tau_s``."""
    tau_s = np.asarray(tau_s, dtype=float)
    return kernel_var * np.exp(
        -2 * np.sin(np.pi * freq_hz * tau_s) ** 2 / lengthscale ** 2)


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


def kernel_cosine_truncation(kernel_var, lengthscale, freq_hz, n_harmonics,
                             n_lags=512):
    """Worst-case error of the n-harmonic kernel truncation over one period."""
    tau = np.linspace(0, 1.0 / freq_hz, n_lags)
    q0, qn = kernel_cosine_weights(kernel_var, lengthscale, n_harmonics)
    n = np.arange(1, n_harmonics + 1)
    approx = q0 + np.cos(2 * np.pi * freq_hz * np.outer(tau, n)) @ qn
    return float(np.max(np.abs(approx - periodic_kernel(tau, kernel_var,
                                                        lengthscale, freq_hz))))


@dataclass(frozen=True)
class GpConfig:
    """Tracker settings.

    ``freq_drift`` is the diffusion strength of the log-frequency:
    per step it drifts by -freq_drift**2 * dt / 2 and receives noise of
    variance freq_drift * dt.  Initial harmonic-block variances decay
    as 1/(2**n * n!); the DC block starts at sqrt(0.1) and the
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


def _recondition(p, counts):
    """Symmetrize each matrix of the stack ``p``; floor its eigenvalues
    at 1e-12 of the largest.

    ``eigh`` runs on a matrix only when ``sym - 2e-12 * trace(sym) * I``
    has no Cholesky factor: the trace bounds the largest eigenvalue of a
    PSD matrix, so a factor proves the smallest far above the floor.
    Each time the floor fires it adds one to the matrix's entry of
    ``counts`` (a list, updated in place).  Returns the symmetrized stack.
    """
    sym = p + p.mT
    sym /= 2
    shifted = sym.copy()
    diag = shifted.reshape(len(p), -1)[:, ::p.shape[-1] + 1]  # a view
    diag -= 2e-12 * np.maximum(diag.sum(1), 1e-30)[:, None]
    for r, mat in enumerate(shifted):
        # mat is symmetric: its transpose is Fortran-ordered, so dpotrf
        # factors it in place, without a copy
        if dpotrf(mat.T, overwrite_a=True)[1] == 0:
            continue
        vals, vecs = np.linalg.eigh(p[r])
        floor = max(vals.max(), 1e-30) * 1e-12
        if vals.min() < floor:
            floored = vecs @ np.diag(np.maximum(vals, floor)) @ vecs.T
            sym[r] = (floored + floored.T) / 2
            counts[r] += 1
    return sym


def gp_estimate(times_s, z, cfg: GpConfig = GpConfig()) -> EstimateSeries:
    """Track the fundamental frequency and harmonic amplitudes of ``z``.

    Handles uneven timestamps; each step uses the actual time delta.
    Returns one estimate per sample, f_hat = exp(log-frequency mean)
    after the measurement update.  ``aux`` carries the filtered
    reconstruction (``recon``), the DC history, the first component of
    every harmonic block (``harmonic_cos``, one column per harmonic)
    and ``recondition_count``, the number of times the eigenvalue floor
    fired (checked by ``eigh`` only when a Cholesky test fails).
    """
    return gp_estimate_batch(times_s, [z], cfg)[0]


def gp_estimate_batch(times_s, rows, cfg: GpConfig = GpConfig()):
    """:func:`gp_estimate` on each stream in ``rows``, sampled at ``times_s``.

    All rows step together on stacked (rows, d) means and (rows, d, d)
    covariances.  Each row's series is bit for bit the one a batch of
    that row alone gives: every product is one BLAS call per matrix or
    vector, as on a single row, and the log-frequency goes through
    ``math.exp`` element by element.
    """
    times_s, z = check_rows(times_s, rows)
    n_rows, n = z.shape

    nh = cfg.n_harmonics
    lin_dim = 1 + 2 * nh
    dim = 1 + lin_dim
    harmonics = np.arange(1, nh + 1)

    q0, qn = kernel_cosine_weights(cfg.kernel_var, cfg.lengthscale, nh)
    q_lin = np.r_[q0, np.repeat(qn, 2)]
    gamma, wm, wc = _sigma_weights(cfg)

    h_row = np.zeros(dim)
    h_row[1] = 1.0
    h_row[2::2] = 1.0

    m = np.zeros((n_rows, dim))
    m[:, 0] = cfg.init_log_freq
    m[:, 1] = z[:, 0]
    harm_var = [1.0 / (2.0 ** j * math.factorial(j)) for j in harmonics]
    p = np.tile(np.diag(np.r_[cfg.init_log_freq_var, cfg.init_dc_var,
                              np.repeat(harm_var, 2)]), (n_rows, 1, 1))

    # per-step terms of the dynamics, one entry per time delta
    dts = np.diff(times_s)
    log_freq_drift = 0.5 * cfg.freq_drift ** 2 * dts
    log_freq_noise = cfg.freq_drift * dts
    lin_noise = 2 * dts[:, None] * q_lin
    lin_diag = slice(dim + 1, None, dim + 1)  # of a flattened d x d matrix

    # linear dynamics per row and sigma point: identity DC, then a
    # rotation by 2*pi*n*f*dt per harmonic, written through strided
    # views of the flattened blocks at (row, col) for j = 1, 3, ...
    a = np.tile(np.eye(lin_dim), (n_rows, 3, 1, 1))
    blocks = a.reshape(n_rows, 3, -1)
    step = 2 * (lin_dim + 1)
    cos_j = blocks[..., lin_dim + 1::step]       # cos at (j, j)
    cos_j1 = blocks[..., step::step]             # cos at (j+1, j+1)
    sin_lo = blocks[..., 2 * lin_dim + 1::step]  # sin at (j+1, j)
    sin_up = blocks[..., lin_dim + 2::step]      # -sin at (j, j+1)
    sigma_sign = np.array([0.0, 1.0, -1.0])

    history = np.empty((n_rows, n, dim))
    counts = [0] * n_rows

    for k in range(n):
        if k > 0:
            # Condition the linear substate on sigma points of the
            # log-frequency, propagate each branch, then re-merge moments.
            pss = p[:, 0, 0]
            psl = p[:, 0, 1:]
            slope = psl / pss[:, None]
            pl_cond = p[:, 1:, 1:] - slope[:, :, None] * psl[:, None, :]
            spread = gamma * np.sqrt(pss)
            s_pts = m[:, :1] + spread[:, None] * sigma_sign
            s_pts_new = s_pts - log_freq_drift[k - 1]

            # math.exp, not np.exp: the two differ in the last bit
            freqs = np.array([math.exp(pt) for pt in s_pts_new.ravel()
                              .tolist()]).reshape(n_rows, 3, 1)
            theta = freqs * harmonics  # then 2 * pi * theta * dt
            theta *= 2 * np.pi
            theta *= dts[k - 1]
            cos_j[...] = cos_j1[...] = np.cos(theta)
            sin_lo[...] = np.sin(theta)
            np.negative(sin_lo, out=sin_up)
            lin_pts = np.matvec(a, m[:, None, 1:] + slope[:, None]
                                * (s_pts - m[:, :1])[..., None])
            # weighted branch covariances summed over j in order, from 0
            rot_cov = np.add.reduce(
                wm[:, None, None] * (a @ pl_cond[:, None] @ a.mT),
                axis=1, initial=0.0)

            s_mean = np.vecdot(wm, s_pts_new)
            lin_mean = np.vecmat(wm, lin_pts)
            s_dev = s_pts_new - s_mean[:, None]
            lin_dev = lin_pts - lin_mean[:, None]

            m[:, 0] = s_mean
            m[:, 1:] = lin_mean
            p[:, 0, 0] = np.vecdot(wc, s_dev ** 2) + log_freq_noise[k - 1]
            p[:, 0, 1:] = np.vecmat(wc * s_dev, lin_dev)
            p[:, 1:, 0] = p[:, 0, 1:]
            p[:, 1:, 1:] = (lin_dev.mT * wc) @ lin_dev + rot_cov
            p.reshape(n_rows, -1)[:, lin_diag] += lin_noise[k - 1]
            p = _recondition(p, counts)

        ph = np.matvec(p, h_row)
        gain = ph / (np.vecdot(h_row, ph) + cfg.meas_var)[:, None]
        m = m + gain * (z[:, k] - np.vecdot(h_row, m))[:, None]
        p -= gain[:, :, None] * ph[:, None]
        p = _recondition(p, counts)
        history[:, k] = m

    f_hat = np.array([math.exp(s) for s in history[:, :, 0].ravel().tolist()])
    f_hat = f_hat.reshape(n_rows, n)
    recon = np.vecdot(h_row, history)
    return [EstimateSeries(
        method="gp", times_s=times_s.copy(), f_hat_hz=f_hat[r],
        aux={"recon": recon[r], "dc": history[r, :, 1].copy(),
             "harmonic_cos": history[r, :, 2::2].copy(),
             "recondition_count": counts[r],
             "final_state": m[r].copy(), "final_cov": p[r].copy()},
    ) for r in range(n_rows)]
