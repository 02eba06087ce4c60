"""Filter template and preprocessing pipeline checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from rssb.dsp import (FilterDesignError, FilterSpec, design_lowpass,
                      is_uniform, preprocess, resample_uniform)

FS = 31.25


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
    with pytest.raises(FilterDesignError, match="achieved|misses"):
        design_lowpass(FilterSpec(order=1), FS)
    with pytest.raises(FilterDesignError):
        design_lowpass(FilterSpec(stopband_hz=20.0), FS)
    with pytest.raises(FilterDesignError):
        FilterSpec(passband_hz=3.0, stopband_hz=2.0)
    with pytest.raises(FilterDesignError):
        FilterSpec(order=0)


def test_design_is_shared_read_only_and_failures_repeat():
    sos = design_lowpass(FilterSpec(), FS)
    assert design_lowpass(FilterSpec(), FS) is sos
    with pytest.raises(ValueError, match="read-only"):
        sos[0, 0] = 0.0
    # lru_cache keeps no exception: a spec that fails fails every call
    for _ in range(2):
        with pytest.raises(FilterDesignError, match="misses"):
            design_lowpass(FilterSpec(order=1), FS)
        with pytest.raises(FilterDesignError, match="Nyquist"):
            design_lowpass(FilterSpec(stopband_hz=20.0), FS)


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


def test_is_uniform():
    t = np.arange(50) / FS
    assert is_uniform(t)
    gappy = np.delete(t, 10)
    assert not is_uniform(gappy)
    assert is_uniform(t[:1])
