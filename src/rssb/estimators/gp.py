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
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special
from scipy.linalg.lapack import dpotrf

from .common import EstimateSeries, EstimatorError, check_stream


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


def _recondition(p, count):
    """Symmetrize ``p``; floor its eigenvalues at 1e-12 of the largest.

    Returns the matrix and ``count``, plus one if the floor fired.
    ``eigh`` runs only when ``sym - 2e-12 * trace(sym) * I`` has no
    Cholesky factor: the trace bounds the largest eigenvalue of a PSD
    matrix, so a factor proves the smallest far above the floor.
    """
    sym = (p + p.T) / 2
    shift = 2e-12 * max(sym.trace(), 1e-30)
    if dpotrf(sym - shift * np.eye(len(p)))[1] == 0:
        return sym, count
    vals, vecs = np.linalg.eigh(p)
    floor = max(vals.max(), 1e-30) * 1e-12
    if vals.min() < floor:
        p = vecs @ np.diag(np.maximum(vals, floor)) @ vecs.T
        return (p + p.T) / 2, count + 1
    return sym, count


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
    times_s = np.asarray(times_s, dtype=float)
    z = np.asarray(z, dtype=float)
    check_stream(times_s, z)

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

    m = np.zeros(dim)
    m[0] = cfg.init_log_freq
    m[1] = z[0]
    harm_var = [1.0 / (2.0 ** n * math.factorial(n)) for n in harmonics]
    p = np.diag(np.r_[cfg.init_log_freq_var, cfg.init_dc_var,
                      np.repeat(harm_var, 2)])

    # linear dynamics per sigma point: identity DC, then a rotation by
    # 2*pi*n*f*dt per harmonic with (cos, cos, sin, -sin) at ``rot_at``
    a = np.tile(np.eye(lin_dim), (3, 1, 1))
    cos_at = np.arange(1, lin_dim, 2) * (lin_dim + 1)
    rot_at = np.r_[cos_at, cos_at + lin_dim + 1, cos_at + lin_dim, cos_at + 1]

    f_hat = np.empty(len(z))
    recon = np.empty(len(z))
    dc = np.empty(len(z))
    harm_cos = np.empty((len(z), nh))
    recondition_count = 0

    for k in range(len(z)):
        if k > 0:
            dt = times_s[k] - times_s[k - 1]
            # Condition the linear substate on sigma points of the
            # log-frequency, propagate each branch, then re-merge moments.
            pss = p[0, 0]
            psl = p[0, 1:]
            slope = psl / pss
            pl_cond = p[1:, 1:] - np.outer(slope, psl)
            spread = gamma * math.sqrt(pss)
            s_pts = m[0] + np.array([0.0, spread, -spread])
            s_pts_new = s_pts - 0.5 * cfg.freq_drift ** 2 * dt

            freqs = np.array([math.exp(pt) for pt in s_pts_new])[:, None]
            theta = 2 * np.pi * (freqs * harmonics) * dt
            c, s = np.cos(theta), np.sin(theta)
            a.reshape(3, -1)[:, rot_at] = np.concatenate([c, c, s, -s], 1)
            lin_pts = np.empty((3, lin_dim))
            rot_cov = np.zeros((lin_dim, lin_dim))
            for j in range(3):
                lin_pts[j] = a[j] @ (m[1:] + slope * (s_pts[j] - m[0]))
                rot_cov += wm[j] * (a[j] @ pl_cond @ a[j].T)

            s_mean = float(wm @ s_pts_new)
            lin_mean = wm @ lin_pts
            s_dev = s_pts_new - s_mean
            lin_dev = lin_pts - lin_mean

            m[0] = s_mean
            m[1:] = lin_mean
            p[0, 0] = float(wc @ s_dev ** 2) + cfg.freq_drift * dt
            p[0, 1:] = (wc * s_dev) @ lin_dev
            p[1:, 0] = p[0, 1:]
            p[1:, 1:] = (lin_dev.T * wc) @ lin_dev + rot_cov
            p[1:, 1:].flat[::lin_dim + 1] += 2 * dt * q_lin  # its diagonal
            p, recondition_count = _recondition(p, recondition_count)

        ph = p @ h_row
        s_innov = float(h_row @ ph) + cfg.meas_var
        gain = ph / s_innov
        m = m + gain * (z[k] - float(h_row @ m))
        p = p - np.outer(gain, ph)
        p, recondition_count = _recondition(p, recondition_count)

        f_hat[k] = math.exp(m[0])
        recon[k] = float(h_row @ m)
        dc[k] = m[1]
        harm_cos[k] = m[2::2]

    return EstimateSeries(
        method="gp", times_s=times_s.copy(), f_hat_hz=f_hat,
        aux={"recon": recon, "dc": dc, "harmonic_cos": harm_cos,
             "recondition_count": recondition_count,
             "final_state": m.copy(), "final_cov": p.copy()},
    )
