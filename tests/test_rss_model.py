"""Reflection-model oracles.

The harmonic expansions are checked against Fourier analysis of the
exact waveform, the series coefficients against direct quadrature, and
the two-harmonic energy against its coefficients and its nulls, so no
expected value below depends on the code under test.
"""

import math

import numpy as np
import pytest
from scipy import special

from rssb.presets import DESK_LINK, DESK_MEDIUM, bed_scenario, midline_scenario
from rssb.rss_model import (DB_PER_LN, ReflectionState, linear_harmonics,
                            log_harmonics, log_series_coefficients,
                            ratio_db_exact, ratio_exact, reflection_state,
                            signal_energy_approx)


def synthetic_state(reflection, mod_index_rad, static_phase_rad,
                    breath_freq_hz=0.25, wavelength_m=0.125):
    """ReflectionState with the modulation scalars set directly."""
    return ReflectionState(
        wavelength_m=wavelength_m,
        breath_freq_hz=breath_freq_hz,
        excess_path_m=static_phase_rad * wavelength_m / (2 * np.pi),
        direction_gain=1.0,
        speed_gain_mps=0.0,
        fresnel=reflection,
        reflection=reflection,
        mod_index_rad=mod_index_rad,
        static_phase_rad=static_phase_rad,
    )


def fourier_coefficients(x):
    """(dc, sin, cos) coefficients of one exactly-sampled period."""
    spec = np.fft.rfft(x) / len(x)
    return spec[0].real, -2 * spec.imag, 2 * spec.real


# --- exact ratio ------------------------------------------------------------

def test_ratio_worked_examples():
    lam = 0.125
    assert ratio_exact(0.0, 0.3, lam) == pytest.approx(1.0)
    assert ratio_exact(0.5, lam / 2, lam) == pytest.approx(2.25, rel=1e-12)
    assert ratio_exact(0.5, lam, lam) == pytest.approx(0.25, rel=1e-12)
    assert ratio_db_exact(0.0, 0.3, lam) == pytest.approx(0.0, abs=1e-12)
    assert ratio_db_exact(0.5, lam / 2, lam) == pytest.approx(
        10 * math.log10(2.25), rel=1e-12)


def test_ratio_bounds():
    g = 0.7
    delta = np.linspace(0, 0.5, 1000)
    r = ratio_exact(g, delta, 0.125)
    assert np.all(r >= (1 - g) ** 2 - 1e-12)
    assert np.all(r <= (1 + g) ** 2 + 1e-12)


def test_ratio_rejects_unit_reflection():
    with pytest.raises(ValueError):
        ratio_exact(1.0, 0.1, 0.125)
    with pytest.raises(ValueError):
        ratio_exact(-0.1, 0.1, 0.125)


# --- log-scale series -------------------------------------------------------

def test_series_coefficients_worked_values():
    b = log_series_coefficients(0.5, 3)
    assert b[0] == pytest.approx(-math.log(1.25), rel=1e-12)
    assert b[1] == pytest.approx(-1.0, rel=1e-12)
    assert b[2] == pytest.approx(-0.25, rel=1e-12)
    assert b[3] == pytest.approx(-1.0 / 12, rel=1e-12)
    with pytest.raises(ValueError):
        log_series_coefficients(0.5, 0)
    with pytest.raises(ValueError):
        log_series_coefficients(1.0)


def test_series_matches_quadrature():
    # Fourier-cosine quadrature of ln(1 - contrast*cos(theta)) on a
    # trapezoid grid; periodic smoothness makes it exact to roundoff.
    g = 0.7
    contrast = 2 * g / (1 + g * g)
    theta = np.arange(16384) * (2 * np.pi / 16384)
    integrand = np.log(1 - contrast * np.cos(theta))
    b = log_series_coefficients(g, 10)
    assert np.mean(integrand) == pytest.approx(b[0], abs=1e-10)
    for i in range(1, 11):
        moment = 2 * np.mean(integrand * np.cos(i * theta))
        assert moment == pytest.approx(b[i], abs=1e-10)


@pytest.mark.parametrize("g", [0.0, 1e-300, 1e-5, 0.05, 0.3367, 0.7, 0.99])
def test_log_harmonics_weights_are_the_series_coefficients(g):
    # log_harmonics weighs series term i by -b_i / 2; that must be G**i/i
    # exactly, subnormal terms included, so its coefficients do not move
    for order in (1, 2, 50, 400):
        i = np.arange(1, order + 1, dtype=float)
        b = log_series_coefficients(g, order)
        assert np.array_equal(-b[1:] / 2, g ** i / i)


def test_high_order_series_reproduces_exact_db():
    g = 0.6
    rng = np.random.default_rng(3)
    delta = rng.uniform(0, 1, 100)
    theta = 2 * np.pi * delta / 0.125
    b = log_series_coefficients(g, 200)
    i = np.arange(1, 201)
    series_db = DB_PER_LN * (np.cos(np.outer(theta, i)) @ b[1:])
    exact_db = ratio_db_exact(g, delta, 0.125)
    assert np.max(np.abs(series_db - exact_db)) < 1e-9


# --- harmonic expansions ----------------------------------------------------

def test_linear_harmonics_zero_drive():
    state = synthetic_state(0.4, 0.0, 1.2)
    model = linear_harmonics(state, truncation_m=4)
    for m in range(1, 5):
        assert model.coefficient(m) == pytest.approx(0.0, abs=1e-15)
    assert model.dc == pytest.approx(1 + 0.16 - 0.8 * math.cos(1.2), rel=1e-12)


def test_linear_harmonics_match_fourier_analysis():
    g, a, psi = 0.3, 0.5, np.pi / 3
    state = synthetic_state(g, a, psi)
    model = linear_harmonics(state, truncation_m=4)
    phi = np.arange(4096) * (2 * np.pi / 4096)
    exact = 1 + g * g - 2 * g * np.cos(psi + a * np.sin(phi))
    dc, sin_c, cos_c = fourier_coefficients(exact)
    assert dc == pytest.approx(model.dc, abs=1e-8)
    for m in range(1, 5):
        want_sin = sin_c[m] if m % 2 else 0.0
        want_cos = 0.0 if m % 2 else cos_c[m]
        got = model.coefficient(m)
        assert got == pytest.approx(want_sin + want_cos, abs=1e-8)
    # the worked value for the fundamental
    assert model.coefficient(1) == pytest.approx(
        4 * 0.3 * special.jv(1, 0.5) * math.sin(np.pi / 3), rel=1e-12)


@pytest.mark.parametrize("mod_index", [0.8, -0.8])
def test_log_harmonics_match_fourier_analysis(mod_index):
    g, psi = 0.5, 1.0
    state = synthetic_state(g, mod_index, psi)
    model = log_harmonics(state, truncation_m=4, series_order=50)
    phi = np.arange(4096) * (2 * np.pi / 4096)
    theta = psi + mod_index * np.sin(phi)
    exact = 10 * np.log10(1 + g * g - 2 * g * np.cos(theta))
    dc, sin_c, cos_c = fourier_coefficients(exact)
    assert dc == pytest.approx(model.dc, abs=1e-6)
    for m in range(1, 5):
        expected = sin_c[m] if m % 2 else cos_c[m]
        assert model.coefficient(m) == pytest.approx(expected, abs=1e-6)
        # parity of the drive keeps the other quadrature empty
        other = cos_c[m] if m % 2 else sin_c[m]
        assert abs(other) < 1e-9


def test_log_harmonics_parity_suppression():
    for n in range(3):
        state = synthetic_state(0.5, 0.8, n * np.pi)
        model = log_harmonics(state, truncation_m=4)
        lin = linear_harmonics(state, truncation_m=4)
        for m in (1, 3):
            assert abs(model.coefficient(m)) < 1e-12
            assert abs(lin.coefficient(m)) < 1e-12
    for n in range(3):
        state = synthetic_state(0.5, 0.8, (2 * n + 1) * np.pi / 2)
        lin = linear_harmonics(state, truncation_m=4)
        for m in (2, 4):
            assert abs(lin.coefficient(m)) < 1e-12


def test_log_harmonics_low_reflection_limit():
    # As G -> 0 only the i=1 series term survives, so the dB-scale
    # coefficients approach the linear ones times the dB factor.
    state = synthetic_state(1e-4, 0.8, 1.0)
    log_m = log_harmonics(state, truncation_m=3)
    lin_m = linear_harmonics(state, truncation_m=3)
    for m in range(1, 4):
        assert log_m.coefficient(m) == pytest.approx(
            DB_PER_LN * lin_m.coefficient(m), rel=1e-3)


def test_log_harmonics_series_order_converges():
    state = synthetic_state(0.7, 0.9, 1.3)
    ref = log_harmonics(state, truncation_m=4, series_order=400)
    errs = []
    for order in (5, 20, 50):
        model = log_harmonics(state, truncation_m=4, series_order=order)
        errs.append(max(abs(model.coefficient(m) - ref.coefficient(m))
                        for m in range(1, 5)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-9


def test_harmonic_model_interface():
    state = synthetic_state(0.5, 0.8, 1.0)
    model = log_harmonics(state, truncation_m=4)
    with pytest.raises(ValueError):
        model.coefficient(0)
    with pytest.raises(ValueError):
        model.coefficient(5)
    with pytest.raises(ValueError):
        log_harmonics(state, truncation_m=0)
    with pytest.raises(ValueError):
        log_harmonics(state, series_order=0)
    t = np.linspace(0, 4, 200)
    manual = model.dc + sum(
        model.coefficient(m) * (np.sin if m % 2 else np.cos)(
            2 * np.pi * m * state.breath_freq_hz * t)
        for m in range(1, 5))
    assert np.allclose(model.evaluate(t), manual, atol=1e-12)


def test_truncated_reconstruction_error_shrinks_with_order():
    state = synthetic_state(0.45, 0.6, 1.1)
    t = np.linspace(0, 4, 1024, endpoint=False)
    disp = state.mod_index_rad * np.sin(
        2 * np.pi * state.breath_freq_hz * t)
    exact = 10 * np.log10(1 + state.reflection ** 2 - 2 * state.reflection
                          * np.cos(state.static_phase_rad + disp))
    rmse = []
    for order in (1, 2, 3):
        model = log_harmonics(state, truncation_m=2, series_order=order)
        rmse.append(float(np.sqrt(np.mean(
            (model.evaluate(t) - exact) ** 2))))
    assert rmse[0] > rmse[1] > rmse[2]


# --- energies ---------------------------------------------------------------

def test_signal_energy_approx_degenerate_cases():
    assert signal_energy_approx(synthetic_state(0.4, 0.0, 1.0)) == pytest.approx(
        0.0, abs=1e-25)
    state = synthetic_state(0.4, 0.7, 2 * np.pi)
    model = log_harmonics(state, truncation_m=2)
    assert signal_energy_approx(state) == pytest.approx(
        model.coefficient(2) ** 2, rel=1e-9)


def test_signal_energy_has_deep_nulls_at_half_wavelength_multiples():
    lam = DESK_MEDIUM.wavelength_m

    def energy(delta):
        s = midline_scenario(delta)
        return signal_energy_approx(
            reflection_state(s.link, s.motion, s.medium))

    peak = energy(1.25 * lam)
    for n in (2, 3):
        window = np.linspace((n / 2 - 0.125) * lam, (n / 2 + 0.125) * lam, 41)
        dip = min(energy(d) for d in window)
        assert dip < 0.07 * peak
    # non-monotone: the dip at 1.5 lambda sits between two higher flanks
    assert energy(1.25 * lam) > 10 * energy(1.5 * lam)
    assert energy(1.75 * lam) > 10 * energy(1.5 * lam)


def test_bessel_identities():
    assert special.jv(0, 0.0) == 1.0
    for m in range(1, 6):
        assert special.jv(m, 0.0) == 0.0
    x = 0.8
    total = special.jv(0, x) ** 2 + 2 * sum(
        special.jv(m, x) ** 2 for m in range(1, 21))
    assert total == pytest.approx(1.0, abs=1e-12)


# --- scenario-derived state ---------------------------------------------------

def test_reflection_state_from_bed_preset():
    s = bed_scenario()
    state = reflection_state(s.link, s.motion, s.medium)
    assert state.static_phase_rad == pytest.approx(2.5 * np.pi, rel=1e-12)
    assert state.excess_path_m == pytest.approx(1.25 * 0.125, rel=1e-12)
    assert 0 < state.reflection < state.fresnel < 1
    assert state.mod_index_rad == pytest.approx(
        2 * np.pi * 0.01 * state.direction_gain / 0.125, rel=1e-12)
    assert state.contrast == pytest.approx(
        2 * state.reflection / (1 + state.reflection ** 2), rel=1e-12)
    assert state.center_shift_hz == 0.0


def test_reflection_state_regression_values():
    # Frozen desk-geometry anchors; guards against silent model drift.
    s = bed_scenario()
    state = reflection_state(s.link, s.motion, s.medium)
    assert state.reflection == pytest.approx(0.33675318593352577, rel=1e-9)
    assert state.mod_index_rad == pytest.approx(-0.3757176375730675, rel=1e-9)
    model = log_harmonics(state, truncation_m=2)
    assert model.coefficient(1) == pytest.approx(-0.982049190331077, rel=1e-9)
    assert model.coefficient(2) == pytest.approx(0.05485757801201525, rel=1e-9)
