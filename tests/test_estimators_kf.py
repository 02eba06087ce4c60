"""Random-walk Fourier tracker checks.

The batch least-squares comparison is the main oracle: with vanishing
process noise the recursive filter must reproduce the regularized
normal-equations solution exactly, because both compute the same
Gaussian posterior.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssb.estimators import (EstimatorError, KfConfig, kf_estimate,
                             kf_estimate_batch)
from rssb.estimators import kf as kf_module

FS = 31.25
ROW_KEYS = ("recon", "peak_amp", "dc", "final_cov")
# kf updates one triangle of its covariance with symmetric BLAS kernels,
# which round differently from kf_reference's full-matrix loop.  Over 40
# draws (300-3750 steps, with and without drops, noise std 0.5-8) the
# worst deviation was 1.8e-13 of max|reference| (peak_amp), and no f_hat
# differed.
REFERENCE_RTOL = 1e-12


def kf_reference(times_s, z, cfg=KfConfig()):
    """The per-sample filter loop, one trace at a time, as first written.

    Returns f_hat and the aux arrays of ROW_KEYS.
    """
    grid = cfg.grid_hz()
    nb = cfg.n_bins
    dim = 2 * nb + 1
    phase = 2 * np.pi * np.outer(times_s, grid)
    g_all = np.empty((len(z), dim))
    g_all[:, 0] = 1.0
    g_all[:, 1:nb + 1] = np.sin(phase)
    g_all[:, nb + 1:] = np.cos(phase)
    x = np.zeros(dim)
    x[0] = z[0]
    p = np.eye(dim) * cfg.init_cov
    f_hat, recon, peak_amp, dc = (np.empty(len(z)) for _ in range(4))
    for k in range(len(z)):
        if k > 0:
            p[np.diag_indices_from(p)] += cfg.process_var
        g = g_all[k]
        pg = p @ g
        s = float(g @ pg) + cfg.meas_var
        gain = pg / s
        x = x + gain * (z[k] - float(g @ x))
        p = p - np.outer(gain, pg)
        p = (p + p.T) / 2
        amps = np.hypot(x[1:nb + 1], x[nb + 1:])
        best = int(np.argmax(amps))
        f_hat[k] = grid[best]
        peak_amp[k] = amps[best]
        recon[k] = float(g @ x)
        dc[k] = x[0]
    return f_hat, {"recon": recon, "peak_amp": peak_amp, "dc": dc,
                   "final_cov": p}


def assert_same_series(series, f_hat, aux):
    assert np.array_equal(series.f_hat_hz, f_hat)
    for key in ROW_KEYS:
        assert np.array_equal(series.aux[key], aux[key]), key


def assert_matches_reference(series, f_hat, aux):
    """f_hat equal, every ROW_KEYS array within REFERENCE_RTOL of the
    reference's largest magnitude."""
    assert np.array_equal(series.f_hat_hz, f_hat)
    for key in ROW_KEYS:
        bound = REFERENCE_RTOL * np.max(np.abs(aux[key]))
        assert np.max(np.abs(series.aux[key] - aux[key])) <= bound, key


def assert_same_outputs(batch, other):
    """Two batches equal bit for bit in f_hat and every aux key."""
    assert len(batch) == len(other)
    for a, b in zip(batch, other):
        assert np.array_equal(a.times_s, b.times_s)
        assert np.array_equal(a.f_hat_hz, b.f_hat_hz)
        assert a.aux.keys() == b.aux.keys()
        for key in a.aux:
            assert np.array_equal(a.aux[key], b.aux[key]), key


def cold_run(monkeypatch, times_s, rows, cfg=KfConfig()):
    """kf_estimate_batch with nothing retained from earlier calls."""
    monkeypatch.setattr(kf_module, "_retained", None)
    return kf_estimate_batch(times_s, rows, cfg)


def count_recursions(monkeypatch):
    """Count the runs of kf's gain recursion from here on."""
    runs = []
    recursion = kf_module._gain_recursion

    def counted(*args):
        runs.append(1)
        return recursion(*args)
    monkeypatch.setattr(kf_module, "_gain_recursion", counted)
    return runs


def noisy_rows(seed, times_s, n_rows=2):
    rng = np.random.default_rng(seed)
    return (np.sin(2 * np.pi * 0.25 * times_s)
            + rng.normal(0, 0.5, (n_rows, len(times_s))) + 1.5)


def test_grid_covers_bpm_range():
    grid = KfConfig().grid_hz()
    assert len(grid) == 75
    assert grid[0] == pytest.approx(1 / 60)
    assert grid[-1] == pytest.approx(1.25)
    assert np.allclose(np.diff(grid), 1 / 60)


def test_constant_input_flags_low_amplitude():
    t = np.arange(200) / FS
    z = np.full(200, 3.25)
    series = kf_estimate(t, z)
    assert series.aux["low_amplitude"].all()
    assert np.allclose(series.aux["dc"], 3.25, atol=1e-9)
    assert np.allclose(series.aux["recon"], 3.25, atol=1e-9)


def test_bin_centered_tone_converges_to_its_bin():
    f = 15 / 60  # grid frequency, 15 bpm
    t = np.arange(int(60 * FS)) / FS
    z = 1.0 * np.sin(2 * np.pi * f * t)
    series = kf_estimate(t, z)
    steady = series.f_hat_hz[len(series) // 2:]
    assert np.allclose(steady, f)
    assert not series.aux["low_amplitude"][-1]


def test_reconstruction_error_tracks_noise_floor():
    # Posterior reconstruction of tone + unit white noise: the mean
    # absolute error settles at the Gaussian noise MAE, sigma*sqrt(2/pi).
    rng = np.random.default_rng(4)
    sigma = 1.0
    t = np.arange(int(120 * FS)) / FS
    z = np.sin(2 * np.pi * (12 / 60) * t) + rng.normal(0, sigma, len(t))
    series = kf_estimate(t, z)
    tail = slice(len(series) // 2, None)
    eps_z = np.mean(np.abs(z[tail] - series.aux["recon"][tail]))
    floor = sigma * math.sqrt(2 / math.pi)
    assert eps_z <= 1.1 * floor
    # the posterior fits some noise, but not implausibly much
    assert eps_z >= 0.25 * floor


def test_matches_batch_least_squares_when_process_noise_vanishes():
    rng = np.random.default_rng(8)
    cfg = KfConfig(n_bins=3, max_freq_hz=0.75, process_var=1e-14,
                   meas_var=1.3, init_cov=2.0)
    grid = cfg.grid_hz()
    t = np.arange(240) / 4.0
    z = (0.7 * np.sin(2 * np.pi * grid[1] * t)
         + 0.2 * np.cos(2 * np.pi * grid[2] * t)
         + rng.normal(0, 0.3, len(t)))
    series = kf_estimate(t, z, cfg)

    dim = 2 * cfg.n_bins + 1
    g = np.empty((len(t), dim))
    g[:, 0] = 1.0
    g[:, 1:cfg.n_bins + 1] = np.sin(2 * np.pi * np.outer(t, grid))
    g[:, cfg.n_bins + 1:] = np.cos(2 * np.pi * np.outer(t, grid))
    x0 = np.zeros(dim)
    x0[0] = z[0]
    a = np.eye(dim) / cfg.init_cov + g.T @ g / cfg.meas_var
    b = x0 / cfg.init_cov + g.T @ z / cfg.meas_var
    batch = np.linalg.solve(a, b)
    assert np.max(np.abs(series.aux["final_state"] - batch)) < 1e-6


def test_uneven_timestamps_are_supported():
    rng = np.random.default_rng(12)
    t = np.arange(int(60 * FS)) / FS
    keep = rng.random(len(t)) >= 0.1
    f = 12 / 60
    z = np.sin(2 * np.pi * f * t)
    full = kf_estimate(t, z)
    gappy = kf_estimate(t[keep], z[keep])
    assert len(gappy) == keep.sum()
    assert abs(gappy.f_hat_hz[-1] - f) * 60 <= 1.0
    assert abs(full.f_hat_hz[-1] - gappy.f_hat_hz[-1]) * 60 < 0.5


def test_determinism():
    rng = np.random.default_rng(3)
    t = np.arange(600) / FS
    z = np.sin(2 * np.pi * 0.2 * t) + rng.normal(0, 0.5, len(t))
    a, b = kf_estimate(t, z), kf_estimate(t, z)
    assert np.array_equal(a.f_hat_hz, b.f_hat_hz)
    assert np.array_equal(a.aux["recon"], b.aux["recon"])


def test_input_validation():
    t = np.arange(10) / FS
    with pytest.raises(EstimatorError):
        kf_estimate(t, np.zeros(9))
    with pytest.raises(EstimatorError):
        kf_estimate([], [])
    with pytest.raises(EstimatorError, match="finite"):
        kf_estimate(t, np.r_[np.zeros(9), np.nan])
    bad_t = t.copy()
    bad_t[5] = bad_t[4]
    with pytest.raises(EstimatorError, match="increasing"):
        kf_estimate(bad_t, np.zeros(10))
    for rows in (np.zeros(10), np.zeros((1, 2, 10))):
        with pytest.raises(EstimatorError, match="2-D"):
            kf_estimate_batch(t, rows)
    with pytest.raises(EstimatorError):
        KfConfig(n_bins=0)
    with pytest.raises(EstimatorError):
        KfConfig(meas_var=0.0)


def test_matches_reference_loop_within_tolerance():
    rng = np.random.default_rng(21)
    t = np.arange(300) / FS
    keep = rng.random(len(t)) >= 0.1
    for times in (t, t[keep]):
        z = (np.sin(2 * np.pi * 0.2 * times)
             + rng.normal(0, 0.5, len(times)) + 2.0)
        assert_matches_reference(kf_estimate(times, z),
                                 *kf_reference(times, z))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 300), drops=st.booleans(), n_bins=st.integers(1, 75),
       process_var=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1))
def test_final_cov_is_symmetric_positive_definite(n, drops, n_bins,
                                                  process_var, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    if drops:
        keep = rng.random(n) >= 0.1
        keep[:2] = True
        t = t[keep]
    cfg = KfConfig(n_bins=n_bins, process_var=process_var)
    cov = kf_estimate(t, rng.normal(0, 1, len(t)), cfg).aux["final_cov"]
    assert np.array_equal(cov, cov.T)
    np.linalg.cholesky(cov)


@settings(max_examples=25, deadline=None)
@given(n_rows=st.integers(1, 4), n=st.integers(2, 120),
       drops=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_single_runs(n_rows, n, drops, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    if drops:
        keep = rng.random(n) >= 0.1
        keep[:2] = True
        t = t[keep]
    rows = rng.normal(0, 1, (n_rows, len(t))) + np.sin(2 * np.pi * 0.2 * t)
    batch = kf_estimate_batch(t, rows)
    warm = kf_estimate_batch(t, rows)  # gains reused when t has no drops
    assert len(batch) == n_rows
    for z, series, again in zip(rows, batch, warm):
        single = kf_estimate(t, z)
        assert_same_series(series, single.f_hat_hz, single.aux)
        assert_same_series(again, single.f_hat_hz, single.aux)


def test_recursion_is_reused_per_drop_free_grid(monkeypatch):
    grid_a = np.arange(300) / FS
    grid_b = grid_a + 0.5
    rows = noisy_rows(5, grid_a)
    cold = {"a": cold_run(monkeypatch, grid_a, rows),
            "b": cold_run(monkeypatch, grid_b, rows)}
    monkeypatch.setattr(kf_module, "_retained", None)
    runs = count_recursions(monkeypatch)
    for name, t in (("a", grid_a), ("b", grid_b), ("a", grid_a)):
        assert_same_outputs(kf_estimate_batch(t, rows), cold[name])
        assert_same_outputs(kf_estimate_batch(t, rows[::-1]),
                            cold[name][::-1])
    assert len(runs) == 3  # one entry: returning to grid A runs it again


def test_other_config_on_same_grid_equals_its_cold_run(monkeypatch):
    t = np.arange(250) / FS
    rows = noisy_rows(6, t)
    other = KfConfig(n_bins=40, process_var=0.02, meas_var=0.5)
    cold = cold_run(monkeypatch, t, rows, other)
    kf_estimate_batch(t, rows)  # retain the default config's gains
    assert_same_outputs(kf_estimate_batch(t, rows, other), cold)
    assert_matches_reference(kf_estimate(t, rows[0], other),
                             *kf_reference(t, rows[0], other))


def test_grid_with_drops_is_not_retained(monkeypatch):
    rng = np.random.default_rng(9)
    t = np.arange(300) / FS
    gappy = t[rng.random(len(t)) >= 0.1]
    rows, gappy_rows = noisy_rows(7, t), noisy_rows(8, gappy)
    monkeypatch.setattr(kf_module, "_retained", None)
    runs = count_recursions(monkeypatch)
    kf_estimate_batch(t, rows)
    first = kf_estimate_batch(gappy, gappy_rows)
    assert_same_outputs(kf_estimate_batch(gappy, gappy_rows), first)
    assert len(runs) == 3
    kf_estimate_batch(t, rows)  # the drop-free grid is still retained
    assert len(runs) == 3


def test_final_cov_writes_do_not_reach_later_calls(monkeypatch):
    t = np.arange(200) / FS
    rows = noisy_rows(10, t, n_rows=3)
    cold = cold_run(monkeypatch, t, rows)
    first = kf_estimate_batch(t, rows)
    cov = first[0].aux["final_cov"]
    assert all(s.aux["final_cov"] is cov for s in first)  # one per call
    cov[:] = -1.0
    assert_same_outputs(kf_estimate_batch(t, rows), cold)
