"""Filter template and preprocessing pipeline checks.

``scipy.signal`` serves here only as the oracle: the package designs and
runs its filter without it.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from rssb.dsp import (_PROTOTYPE, FilterDesignError, FilterSpec,
                      design_lowpass, is_uniform, nominal_rate_hz,
                      preprocess, resample_uniform)
from rssb.estimators import DftConfig, EstimatorError, GpConfig, KfConfig
from rssb.pipeline import ESTIMATORS
from rssb.presets import bed_scenario
from rssb.simulator import synthesize

FS = 31.25
# preprocess against scipy.signal.sosfilt, relative to the input's
# largest magnitude: direct form I against transposed direct form II.
# The largest seen was 2.2e-15, at 100 Hz.
SOSFILT_RTOL = 1e-14


def tone(freq_hz, duration_s=40.0, fs=FS, amp=1.0):
    t = np.arange(int(duration_s * fs)) / fs
    return t, amp * np.sin(2 * np.pi * freq_hz * t)


def test_template_is_met_on_dense_grid():
    sos = design_lowpass(FilterSpec(), FS)
    w, h = signal.sosfreqz(sos, worN=4096, fs=FS)
    mag_db = 20 * np.log10(np.abs(h) + 1e-300)
    assert np.max(np.abs(mag_db[w <= 2.0])) <= 0.05 + 1e-6
    assert np.max(mag_db[w >= 3.0]) <= -40.0 + 1e-6


def test_dc_gain_is_unity():
    sos = design_lowpass(FilterSpec(), FS)
    dc = np.abs(signal.sosfreqz(sos, worN=[0.0], fs=FS)[1][0])
    assert abs(dc - 1.0) < 1e-10


def test_infeasible_specs_are_rejected():
    with pytest.raises(FilterDesignError, match="Nyquist"):
        design_lowpass(FilterSpec(), 6.0)
    # the poles sit at z = 1 to rounding and the response is NaN
    with pytest.raises(FilterDesignError, match="at 1000000000000.0 Hz"):
        design_lowpass(FilterSpec(), 1e12)
    with pytest.raises(FilterDesignError, match="order must be 5"):
        FilterSpec(order=0)


def test_prototype_equals_scipy_ellipap_bit_for_bit():
    zeros, poles, gain = signal.ellipap(5, 0.05, 40)
    assert _PROTOTYPE[0].tobytes() == zeros.tobytes()
    assert _PROTOTYPE[1].tobytes() == poles.tobytes()
    assert _PROTOTYPE[2] == gain


def test_design_equals_scipy_ellip_bit_for_bit():
    # every rate from 6.01 Hz to 9 kHz meets the template; from 6.28 to
    # 17.78 Hz section 0 takes a complex zero pair, elsewhere {-1, 0}
    dense = np.geomspace(6.01, 9e3, 300).tolist()
    section0_zeros_at_0 = set()
    for fs in (12.5, 25.0, 31.25, 50.0, 100.0,
               6.01, 9.7, 20.48, 44.1, 173.9, 1000.0, 10000.0, *dense):
        sos = signal.ellip(5, 0.05, 40.0, 2.0, fs=fs, output="sos")
        assert design_lowpass(FilterSpec(), fs).tobytes() == sos.tobytes(), fs
        section0_zeros_at_0.add(bool(sos[0, 2] == 0))
    assert section0_zeros_at_0 == {True, False}


# the filter's fields, which must equal the template's, and every float
# field of the estimator configs
FINITE_FIELDS = [
    *(pytest.param(FilterSpec, FilterDesignError, f.name, id=f.name)
      for f in dataclasses.fields(FilterSpec)),
    *(pytest.param(cls, EstimatorError, f.name, id=f"{cls.__name__}.{f.name}")
      for cls in (DftConfig, KfConfig, GpConfig)
      for f in dataclasses.fields(cls)
      if isinstance(f.default, (float, tuple)))]


@pytest.mark.parametrize("cls, error, field", FINITE_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_fields_must_be_finite(cls, error, field, value):
    default = getattr(cls(), field)
    bad = (default[0], value) if isinstance(default, tuple) else value
    with pytest.raises(error, match=rf"\b{field} must be"):
        cls(**{field: bad})


def test_design_is_shared_read_only_and_failures_repeat():
    sos = design_lowpass(FilterSpec(), FS)
    assert design_lowpass(FilterSpec(), FS) is sos
    with pytest.raises(ValueError, match="read-only"):
        sos[0, 0] = 0.0
    # lru_cache keeps no exception: a rate that fails fails every call
    for _ in range(2):
        with pytest.raises(FilterDesignError, match="Nyquist"):
            design_lowpass(FilterSpec(), 6.0)


def test_constant_input_splits_into_zero_and_constant():
    values = np.full(2000, 7.5)
    y, z = preprocess(values, FilterSpec(), FS)
    assert np.allclose(y, 0.0, atol=1e-12)
    # unity DC gain: z settles on the input constant
    assert np.allclose(z[500:], 7.5, atol=1e-6)


def test_inband_tone_amplitude_preserved():
    _, x = tone(0.2, duration_s=120.0)
    y, _ = preprocess(x, FilterSpec(), FS)
    steady = y[len(y) // 2:]
    rms_in = np.sqrt(0.5)
    rms_out = np.sqrt(np.mean(steady ** 2))
    assert 20 * abs(np.log10(rms_out / rms_in)) <= 0.05 + 1e-3


def test_stopband_tone_attenuated():
    _, x = tone(5.0)
    y, _ = preprocess(x, FilterSpec(), FS)
    steady = y[len(y) // 2:]
    ratio = np.sqrt(np.mean(steady ** 2)) / np.sqrt(0.5)
    assert 20 * np.log10(ratio) <= -40.0


def test_filter_path_is_linear():
    rng = np.random.default_rng(5)
    x = rng.normal(size=1500)
    w = rng.normal(size=1500)
    spec = FilterSpec()
    _, zx = preprocess(x, spec, FS)
    _, zw = preprocess(w, spec, FS)
    _, zmix = preprocess(2.0 * x - 0.5 * w, spec, FS)
    assert np.allclose(zmix, 2.0 * zx - 0.5 * zw, atol=1e-9)


def test_mean_removal_offsets_the_same_filter():
    rng = np.random.default_rng(6)
    x = rng.normal(loc=3.0, scale=0.5, size=4000)
    y, z = preprocess(x, FilterSpec(), FS)
    # after the transient the two paths differ by the (unity-gain) mean
    tail = slice(2000, None)
    assert np.allclose(y[tail], z[tail] - x.mean(), atol=1e-6)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.floats(-120.0, 120.0), min_size=1, max_size=400),
       offset=st.floats(-150.0, 150.0))
def test_constant_offset_moves_only_the_dc_level(values, offset):
    values = np.array(values)
    y, z = preprocess(values, FilterSpec(), FS)
    y_shift, z_shift = preprocess(values + offset, FilterSpec(), FS)
    # roundoff of the mean and of the shifted samples, through the filter
    atol = 1e-12 * (np.max(np.abs(values)) + abs(offset) + 1.0)
    np.testing.assert_allclose(y_shift, y, rtol=0, atol=atol)
    np.testing.assert_allclose(z_shift - z, offset, rtol=0, atol=atol)


@pytest.mark.parametrize("fs", [12.5, 25.0, 31.25, 50.0, 100.0])
def test_preprocess_matches_sosfilt(fs):
    rng = np.random.default_rng(7)
    values = rng.normal(-60.0, 3.0, 3750) + np.sin(np.arange(3750) / fs)
    y, z = preprocess(values, FilterSpec(), fs)
    mean = values.mean()
    sos = design_lowpass(FilterSpec(), fs).copy()  # sosfilt writes
    expected = signal.sosfilt(sos, values - mean)
    atol = SOSFILT_RTOL * np.max(np.abs(values))
    np.testing.assert_allclose(y, expected, rtol=0, atol=atol)
    np.testing.assert_allclose(z, expected + mean, rtol=0, atol=atol)


def test_estimates_from_sosfilt_inputs_agree():
    # the filter's rounding reaches the estimates: dft's and kf's rates
    # stay equal, gp's move by at most 3.8e-13 of the largest (seen on a
    # bed trace and six dropped-16ch traces)
    scenario = bed_scenario(duration_s=40.0)
    t, values = synthesize(scenario, seed=3).for_channel(0)
    fs = scenario.sample_rate_hz
    y, z = preprocess(values, FilterSpec(), fs)
    mean = values.mean()
    y_ref = signal.sosfilt(design_lowpass(FilterSpec(), fs).copy(),
                           values - mean)
    for method, (x, x_ref) in {"dft": (y, y_ref),
                               "kf": (z, y_ref + mean),
                               "gp": (z, y_ref + mean)}.items():
        f_hat = ESTIMATORS[method][0](t, [x])[0].f_hat_hz
        f_ref = ESTIMATORS[method][0](t, [x_ref])[0].f_hat_hz
        if method == "gp":
            np.testing.assert_allclose(f_hat, f_ref, rtol=0,
                                       atol=1e-12 * np.max(f_ref))
        else:
            assert np.array_equal(f_hat, f_ref)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1,
                       max_size=400),
       log2_c=st.integers(-30, 30))
def test_scale_by_power_of_two_is_exact(values, log2_c):
    # a power of two scales every rounding step of the mean, the taps
    # and the banded solve exactly
    values = np.array(values) / 1000.0
    c = 2.0 ** log2_c
    y, z = preprocess(values, FilterSpec(), FS)
    y_scaled, z_scaled = preprocess(c * values, FilterSpec(), FS)
    assert np.array_equal(y_scaled, c * y)
    assert np.array_equal(z_scaled, c * z)


def test_preprocess_validation():
    with pytest.raises(ValueError):
        preprocess(np.zeros((3, 3)), FilterSpec(), FS)
    with pytest.raises(ValueError):
        preprocess(np.array([]), FilterSpec(), FS)


def test_resample_identity_on_uniform_input():
    t = np.arange(100) / FS
    v = np.sin(t)
    grid, out = resample_uniform(t, v, FS)
    assert np.allclose(grid, t, atol=1e-12)
    assert np.allclose(out, v, atol=1e-12)


def test_resample_interpolates_dropped_sample():
    t = np.array([0.0, 1.0, 3.0, 4.0])
    v = np.array([0.0, 1.0, 3.0, 4.0])
    grid, out = resample_uniform(t, v, 1.0)
    assert np.allclose(grid, [0, 1, 2, 3, 4])
    assert out[2] == pytest.approx(2.0)


def test_resample_recovers_tone_under_drops():
    t, x = tone(0.2, duration_s=60.0)
    rng = np.random.default_rng(9)
    keep = rng.random(len(t)) >= 0.1
    grid, out = resample_uniform(t[keep], x[keep], FS)
    psd = np.abs(np.fft.rfft(out - out.mean(), 4096)) ** 2
    freqs = np.fft.rfftfreq(4096, 1 / FS)
    peak = freqs[np.argmax(psd)]
    assert abs(peak - 0.2) <= FS / 4096


def test_resample_validation():
    with pytest.raises(ValueError):
        resample_uniform([0.0, 1.0], [1.0], FS)
    with pytest.raises(ValueError):
        resample_uniform([0.0], [1.0], FS)
    with pytest.raises(ValueError):
        resample_uniform([0.0, 0.0, 1.0], [1.0, 2.0, 3.0], FS)


def test_nominal_rate_needs_an_increasing_step():
    # jittered steps all count; repeated timestamps give no rate
    t = np.arange(100) / FS
    jitter = np.random.default_rng(0).uniform(-0.002, 0.002, len(t))
    dt = np.diff(t + jitter)
    assert nominal_rate_hz(t + jitter) == float(f"{1 / np.median(dt):.12g}")
    with pytest.raises(ValueError, match="increasing step"):
        nominal_rate_hz([2.0, 2.0, 2.0])


@settings(max_examples=200, deadline=None)
@given(fs=st.sampled_from([10.0, 31.25, 100.0, 400.0]),
       n=st.integers(20, 4000), drop_prob=st.floats(0.0, 0.9),
       jitter=st.floats(0.0, 0.1), seed=st.integers(0, 2**32 - 1),
       moved=st.integers(1, 3), closeness=st.floats(1e-6, 0.01))
def test_nominal_rate_refuses_only_steps_with_no_single_rate(
        fs, n, drop_prob, jitter, seed, moved, closeness):
    rng = np.random.default_rng(seed)
    keep = rng.random(n) >= drop_prob
    keep[:8] = True  # so moved stamps leave most steps whole
    t = np.flatnonzero(keep) / fs
    t = t + rng.uniform(-jitter, jitter, len(t)) / fs
    dt = np.diff(t)
    # drops and jitter alone: the rate of the rule before the refusal
    assert nominal_rate_hz(t) == float(
        f"{1.0 / np.median(dt[dt <= 1.5 * dt.min()]):.12g}")
    # one to three stamps moved to within 1% of a step after the one
    # before each: no single rate
    for i in np.sort(rng.choice(np.arange(1, len(t)), moved, replace=False)):
        t[i] = t[i - 1] + closeness / fs
    with pytest.raises(ValueError, match="no single sample rate"):
        nominal_rate_hz(t)


def test_is_uniform():
    t = np.arange(50) / FS
    assert is_uniform(t)
    gappy = np.delete(t, 10)
    assert not is_uniform(gappy)
    assert is_uniform(t[:1])
