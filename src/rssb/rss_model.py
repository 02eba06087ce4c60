"""Reflection model of received signal strength around a breathing body.

The received power relative to the unperturbed link is governed by the
two-ray interference ratio

    R = 1 + G**2 - 2*G*cos(2*pi*delta/lambda)

where G is the effective reflection coefficient of the echo and delta
its excess path length.  On a logarithmic scale the same quantity has
the exact cosine series

    R_db = -20*log10(e) * sum_i (G**i / i) * cos(2*pi*i*delta/lambda)

and a small periodic displacement of the reflector turns each cosine
into a phase-modulated tone.  This module exposes the exact ratio, the
series coefficients, and the harmonic (Bessel) expansions of the
breathing-modulated signal on both scales, together with the energy
summaries and truncation rules built on them.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .geometry import (LinkGeometry, MediumParams, ReflectorMotion,
                       effective_reflection, excess_path, fresnel_coefficient,
                       gradient_projection, incidence_cosine)

DB_PER_LN = 10.0 / math.log(10.0)
"""Scale factor between natural log and decibels, 10*log10(e)."""

DEFAULT_SERIES_ORDER = 50
"""Default truncation of the log-scale coefficient series over i."""


def dilog(x):
    """Dilogarithm Li_2(x) = sum_{i>=1} x**i / i**2 on [0, 1].

    Li_2(1) = pi**2/6.  Evaluated through the Spence integral, accurate
    to machine precision on the closed interval.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("dilog argument must lie in [0, 1]")
    out = special.spence(1.0 - x)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ReflectionState:
    """Scenario-derived scalars feeding every model formula.

    ``direction_gain`` is the excess-path derivative along the (unit)
    breathing direction and lies in [-2, 2]; ``speed_gain_mps`` is the
    same projection of the bulk velocity vector.  ``mod_index_rad`` and
    ``static_phase_rad`` are the phase-modulation depth and resting
    phase, 2*pi*A*direction_gain/lambda and 2*pi*delta0/lambda.
    """

    wavelength_m: float
    breath_freq_hz: float
    excess_path_m: float
    direction_gain: float
    speed_gain_mps: float
    fresnel: float
    reflection: float
    mod_index_rad: float
    static_phase_rad: float

    @property
    def contrast(self) -> float:
        """Fringe contrast 2G/(1 + G**2), in [0, 1) for G < 1."""
        g = self.reflection
        return 2 * g / (1 + g * g)

    @property
    def center_shift_hz(self) -> float:
        """Tone displacement speed_gain/lambda caused by bulk motion."""
        return self.speed_gain_mps / self.wavelength_m


def reflection_state(link: LinkGeometry, motion: ReflectorMotion,
                     medium: MediumParams) -> ReflectionState:
    """Evaluate all per-position model quantities at the rest position."""
    delta0 = excess_path(link, motion.rest)
    dir_gain = gradient_projection(link, motion.rest, motion.direction)
    speed_gain = gradient_projection(link, motion.rest, motion.velocity_mps)
    p_inner, _ = incidence_cosine(link, motion.rest)
    gamma = fresnel_coefficient(p_inner, medium)
    g = effective_reflection(gamma, delta0, link.node_distance,
                             medium.path_gain_exponent)
    lam = medium.wavelength_m
    return ReflectionState(
        wavelength_m=lam,
        breath_freq_hz=motion.breath_freq_hz,
        excess_path_m=delta0,
        direction_gain=dir_gain,
        speed_gain_mps=speed_gain,
        fresnel=gamma,
        reflection=g,
        mod_index_rad=2 * np.pi * motion.amplitude_m * dir_gain / lam,
        static_phase_rad=2 * np.pi * delta0 / lam,
    )


def _check_reflection(reflection):
    reflection = np.asarray(reflection, dtype=float)
    if np.any(reflection < 0) or np.any(reflection >= 1):
        raise ValueError("reflection coefficient must lie in [0, 1)")
    return reflection


def ratio_exact(reflection, excess_path_m, wavelength_m):
    """Two-ray interference ratio 1 + G**2 - 2*G*cos(2*pi*delta/lambda).

    Bounded between (1-G)**2 and (1+G)**2, hence strictly positive for
    G < 1.
    """
    g = _check_reflection(reflection)
    out = 1 + g * g - 2 * g * np.cos(2 * np.pi * np.asarray(excess_path_m) / wavelength_m)
    return float(out) if out.ndim == 0 else out


def ratio_db_exact(reflection, excess_path_m, wavelength_m):
    """Interference ratio expressed in dB, 10*log10(ratio_exact)."""
    out = 10.0 * np.log10(ratio_exact(reflection, excess_path_m, wavelength_m))
    return float(out) if out.ndim == 0 else out


def log_series_coefficients(reflection, n_terms=DEFAULT_SERIES_ORDER):
    """Cosine-series coefficients of ln(1 - contrast*cos(theta)).

    Returns the array [b_0, b_1, ..., b_n] with b_0 = -ln(1 + G**2)
    and b_i = -2*G**i/i, so that

        ln(1 - k*cos(theta)) = b_0 + sum_i b_i cos(i*theta),
        ln(ratio_exact)      = sum_{i>=1} b_i cos(i*theta).

    The tail beyond ``n_terms`` is bounded by the geometric remainder
    2*G**(n+1)/((n+1)*(1-G)).
    """
    g = float(_check_reflection(reflection))
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    i = np.arange(1, n_terms + 1, dtype=float)
    coeffs = np.empty(n_terms + 1)
    coeffs[0] = -np.log1p(g * g)
    coeffs[1:] = -2.0 * g ** i / i
    return coeffs


@dataclass(frozen=True)
class HarmonicModel:
    """Truncated harmonic expansion of the breathing-modulated signal.

    ``coeffs`` holds c_1..c_M.  Odd multiples of the fundamental appear
    as sine terms and even multiples as cosine terms:

        x(t) = dc + sum_{m odd} c_m * sin(2*pi*m*f*t)
                  + sum_{m even} c_m * cos(2*pi*m*f*t)

    ``scale`` records whether the coefficients describe the linear
    ratio or its dB form.
    """

    scale: str
    fundamental_hz: float
    dc: float
    coeffs: tuple

    @property
    def truncation_m(self) -> int:
        """Number of harmonics M kept."""
        return len(self.coeffs)

    def coefficient(self, m: int) -> float:
        """Coefficient of harmonic ``m`` (1-based)."""
        if not 1 <= m <= self.truncation_m:
            raise ValueError(f"harmonic index {m} outside 1..{self.truncation_m}")
        return self.coeffs[m - 1]

    def evaluate(self, t):
        """Reconstruct the truncated time series at time(s) ``t``."""
        t = np.asarray(t, dtype=float)
        base = 2 * np.pi * self.fundamental_hz * t
        out = np.full(t.shape, self.dc)
        for m, c in enumerate(self.coeffs, 1):
            out += c * (np.sin(m * base) if m % 2 else np.cos(m * base))
        return out


def linear_harmonics(state: ReflectionState, truncation_m=2) -> HarmonicModel:
    """Harmonic coefficients of the linear-scale ratio under breathing.

    First-order expansion in the displacement: the ratio becomes
    dc + harmonics of the breathing rate with

        dc  = 1 + G**2 - 2*G*J_0(a)*cos(psi)
        c_m = 4*G*J_m(a)*sin(psi)   (m odd)
        c_m = -4*G*J_m(a)*cos(psi)  (m even)

    where a is the modulation index and psi the resting phase.
    """
    if truncation_m < 1:
        raise ValueError("truncation_m must be at least 1")
    g = state.reflection
    a, psi = state.mod_index_rad, state.static_phase_rad
    m = np.arange(1, truncation_m + 1)
    # a < 0 when the motion projection is negative; the expansions rely
    # on J_m(-x) = (-1)**m * J_m(x), which special.jv satisfies
    jm = special.jv(m, a)
    coeffs = np.where(m % 2 == 1, 4 * g * jm * np.sin(psi),
                      -4 * g * jm * np.cos(psi))
    dc = 1 + g * g - 2 * g * special.jv(0, a) * np.cos(psi)
    return HarmonicModel("linear", state.breath_freq_hz, float(dc),
                         tuple(coeffs))


def log_harmonics(state: ReflectionState, truncation_m=2,
                  series_order=DEFAULT_SERIES_ORDER) -> HarmonicModel:
    """Harmonic coefficients of the dB-scale signal under breathing.

    Each term of the log series contributes to every harmonic, so the
    coefficients are sums over the series index i up to
    ``series_order``:

        dc  = -20*log10(e) * sum_i J_0(i*a) * (G**i/i) * cos(i*psi)
        c_m = +40*log10(e) * sum_i J_m(i*a) * (G**i/i) * sin(i*psi)  (m odd)
        c_m = -40*log10(e) * sum_i J_m(i*a) * (G**i/i) * cos(i*psi)  (m even)

    The geometric factor G**i/i makes the tail negligible at the
    default order for any G bounded away from 1.
    """
    if truncation_m < 1:
        raise ValueError("truncation_m must be at least 1")
    if series_order < 1:
        raise ValueError("series_order must be at least 1")
    g = state.reflection
    _check_reflection(g)
    a, psi = state.mod_index_rad, state.static_phase_rad
    i = np.arange(1, series_order + 1, dtype=float)
    weight = g ** i / i
    dc = -2 * DB_PER_LN * np.sum(special.jv(0, i * a) * weight
                                 * np.cos(i * psi))
    coeffs = np.empty(truncation_m)
    for m in range(1, truncation_m + 1):
        jm = special.jv(m, i * a)
        if m % 2:
            coeffs[m - 1] = 4 * DB_PER_LN * np.sum(jm * weight * np.sin(i * psi))
        else:
            coeffs[m - 1] = -4 * DB_PER_LN * np.sum(jm * weight * np.cos(i * psi))
    return HarmonicModel("log", state.breath_freq_hz, float(dc),
                         tuple(coeffs))


@dataclass(frozen=True)
class MovingHarmonics:
    """Harmonic model of a reflector that also drifts with bulk velocity.

    The breathing coefficients are unchanged; bulk motion displaces the
    tones instead.  On the linear scale every tone shifts by
    ``center_shift_hz``; on the dB scale the i-th series term shifts by
    ``i * center_shift_hz``, so the modeled tone set is
    {i*center_shift_hz + m*f}.
    """

    model: HarmonicModel
    center_shift_hz: float

    def tone_frequencies(self, series_order=1):
        """Modeled tone frequencies up to the stored truncation.

        For the linear scale pass ``series_order=1``; larger values
        enumerate the dB-scale tones i*shift + m*f for i up to the
        requested order and |m| up to the truncation.
        """
        m = np.arange(-self.model.truncation_m, self.model.truncation_m + 1)
        i = np.arange(1, series_order + 1)
        freqs = (np.multiply.outer(i, self.center_shift_hz)
                 [:, None] + m[None, :] * self.model.fundamental_hz)
        return np.unique(freqs.ravel())


def moving_harmonics(state: ReflectionState, truncation_m=2,
                     series_order=DEFAULT_SERIES_ORDER,
                     scale="log") -> MovingHarmonics:
    """Breathing harmonics of a drifting reflector plus the tone shift."""
    if scale == "log":
        model = log_harmonics(state, truncation_m, series_order)
    elif scale == "linear":
        model = linear_harmonics(state, truncation_m)
    else:
        raise ValueError(f"unknown scale {scale!r}")
    return MovingHarmonics(model, state.center_shift_hz)


def signal_energy_total(reflection) -> float:
    """Series energy sum_{i>=1} G**(2i) / i**2 = Li_2(G**2)."""
    g = float(_check_reflection(reflection))
    return float(dilog(g * g))


def signal_energy_approx(state: ReflectionState,
                         series_order=DEFAULT_SERIES_ORDER) -> float:
    """Energy carried by the first two dB-scale harmonics, c_1**2 + c_2**2."""
    model = log_harmonics(state, truncation_m=2, series_order=series_order)
    return float(model.coefficient(1) ** 2 + model.coefficient(2) ** 2)


def carson_truncation(mod_index_rad, breath_freq_hz) -> int:
    """Number of breathing harmonics worth retaining for a modulation depth.

    Chooses the smallest M whose Bessel weights capture 98 % of the
    total sideband energy, sum_{m<=M} J_m(a)**2 >= 0.98 * (1 - J_0(a)**2)/2,
    but never fewer than the conservative two-term truncation used for
    breathing-scale drives.  A zero drive keeps only the fundamental
    slot.
    """
    if breath_freq_hz < 0:
        raise ValueError("breath_freq_hz must be non-negative")
    a = abs(float(mod_index_rad))
    if a == 0:
        return 1
    total = (1 - special.jv(0, a) ** 2) / 2
    target = 0.98 * total
    cum = 0.0
    m = 0
    while cum < target:
        m += 1
        cum += special.jv(m, a) ** 2
        if m > 1000:
            raise RuntimeError("harmonic energy accumulation failed to converge")
    return max(2, m)
