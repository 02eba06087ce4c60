"""Quasi-periodic frequency tracker checks."""

import math
import tracemalloc
import warnings
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssb.dsp import FilterSpec, preprocess
from rssb.estimators import (DftConfig, EstimatorError, GpConfig, KfConfig,
                             dft_estimate, gp_estimate, gp_estimate_batch,
                             kernel_cosine_weights, kf_estimate)
from rssb.estimators import gp as gp_module
from rssb.estimators.gp import (_block_passes, _block_steps, _recondition,
                                _sigma_weights)
from rssb.evaluation import noise_std_for_snr
from rssb.presets import bed_scenario
from rssb.simulator import synthesize

FS = 31.25
AUX_KEYS = ("recon", "dc", "harmonic_cos", "final_state", "final_cov",
            "recondition_count")
# gp assembles its predicted covariance as one product of stacked
# factors, conditions the linear substate inside that product, writes
# its rotations with one complex exp, takes np.exp of the log-frequency
# and keeps its prior and posterior exactly symmetric, so it rounds
# differently from gp_reference.  The worst deviation seen was 1.9e-12
# of an output's largest magnitude on the fixed draws below, 5.0e-12
# over 400 draws of the property test and 2.5e-12 on the
# eigenvalue-floor path.
REFERENCE_RTOL = 1e-10
ESTIMATE = {"dft": dft_estimate, "kf": kf_estimate, "gp": gp_estimate}


def eigh_recondition(mat):
    """The eigenvalue floor as first written: one ``eigh`` per call."""
    vals, vecs = np.linalg.eigh(mat)
    floor = max(vals.max(), 1e-30) * 1e-12
    fired = vals.min() < floor
    if fired:
        vals = np.maximum(vals, floor)
        mat = vecs @ np.diag(vals) @ vecs.T
    return (mat + mat.T) / 2, fired


def rotation_block(dim, freqs_hz, dt_s):
    """Identity DC plus one rotation per harmonic, entry by entry."""
    a = np.eye(dim)
    theta = 2 * np.pi * freqs_hz * dt_s
    c, s = np.cos(theta), np.sin(theta)
    for i in range(len(freqs_hz)):
        j = 1 + 2 * i
        a[j, j] = c[i]
        a[j, j + 1] = -s[i]
        a[j + 1, j] = s[i]
        a[j + 1, j + 1] = c[i]
    return a


def gp_reference(times_s, z, cfg=GpConfig()):
    """The per-sample tracker loop as first written.

    It builds a rotation matrix per sigma point, loops over the
    harmonics and runs ``eigh`` twice per step.  Returns f_hat and the
    aux entries of AUX_KEYS.
    """
    nh = cfg.n_harmonics
    lin_dim = 1 + 2 * nh
    dim = 1 + lin_dim
    harmonics = np.arange(1, nh + 1)
    q0, qn = kernel_cosine_weights(cfg.kernel_var, cfg.lengthscale, nh)
    gamma, wm, wc = _sigma_weights(cfg)
    h_row = np.zeros(dim)
    h_row[1] = 1.0
    h_row[2::2] = 1.0
    m = np.zeros(dim)
    m[0] = cfg.init_log_freq
    m[1] = z[0]
    p = np.zeros((dim, dim))
    p[0, 0] = cfg.init_log_freq_var
    p[1, 1] = cfg.init_dc_var
    for n in harmonics:
        var = 1.0 / (2.0 ** n * math.factorial(n))
        p[2 * n, 2 * n] = var
        p[2 * n + 1, 2 * n + 1] = var
    f_hat, recon, dc = (np.empty(len(z)) for _ in range(3))
    harm_cos = np.empty((len(z), nh))
    count = 0
    for k in range(len(z)):
        if k > 0:
            dt = times_s[k] - times_s[k - 1]
            pss = p[0, 0]
            psl = p[0, 1:]
            slope = psl / pss
            pl_cond = p[1:, 1:] - np.outer(slope, psl)
            spread = gamma * math.sqrt(pss)
            s_pts = m[0] + np.array([0.0, spread, -spread])
            s_pts_new = s_pts - 0.5 * cfg.freq_drift ** 2 * dt
            lin_pts = np.empty((3, lin_dim))
            rot_cov = np.zeros((lin_dim, lin_dim))
            for j in range(3):
                a_j = rotation_block(lin_dim,
                                     harmonics * math.exp(s_pts_new[j]), dt)
                lin_pts[j] = a_j @ (m[1:] + slope * (s_pts[j] - m[0]))
                rot_cov += wm[j] * (a_j @ pl_cond @ a_j.T)
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
            p[1, 1] += 2 * dt * q0
            for n in harmonics:
                p[2 * n, 2 * n] += 2 * dt * qn[n - 1]
                p[2 * n + 1, 2 * n + 1] += 2 * dt * qn[n - 1]
            p, fired = eigh_recondition(p)
            count += fired
        ph = p @ h_row
        s_innov = float(h_row @ ph) + cfg.meas_var
        gain = ph / s_innov
        m = m + gain * (z[k] - float(h_row @ m))
        p, fired = eigh_recondition(p - np.outer(gain, ph))
        count += fired
        f_hat[k] = math.exp(m[0])
        recon[k] = float(h_row @ m)
        dc[k] = m[1]
        harm_cos[k] = m[2::2]
    return f_hat, {"recon": recon, "dc": dc, "harmonic_cos": harm_cos,
                   "final_state": m, "final_cov": p,
                   "recondition_count": count}


def assert_same_as_reference(series, f_hat, aux):
    assert np.array_equal(series.f_hat_hz, f_hat)
    for key in AUX_KEYS:
        assert np.array_equal(series.aux[key], aux[key]), key


def assert_close_to_reference(series, f_hat, aux, scale=0.0):
    """recondition_count equal; f_hat and every other aux entry within
    REFERENCE_RTOL of the larger of its own largest magnitude and
    ``scale``.

    ``scale`` is for outputs that are pure rounding noise, such as the
    harmonic states on a constant input: pass the input's magnitude.
    """
    assert series.aux["recondition_count"] == aux["recondition_count"]
    pairs = [(series.f_hat_hz, f_hat, "f_hat")] + [
        (series.aux[key], aux[key], key) for key in AUX_KEYS
        if key != "recondition_count"]
    for got, want, key in pairs:
        bound = REFERENCE_RTOL * max(np.max(np.abs(want)), scale)
        assert np.max(np.abs(got - want)) <= bound, key


def harmonic_signal(f_hz, duration_s, amps, phases, dc=0.0):
    t = np.arange(int(duration_s * FS)) / FS
    z = np.full(len(t), dc)
    for n, (a, ph) in enumerate(zip(amps, phases), start=1):
        z = z + a * np.cos(2 * np.pi * n * f_hz * t + ph)
    return t, z


def periodic_kernel(tau_s, kernel_var, lengthscale, freq_hz):
    """The quasi-periodic covariance the cosine weights expand."""
    tau_s = np.asarray(tau_s, dtype=float)
    return kernel_var * np.exp(
        -2 * np.sin(np.pi * freq_hz * tau_s) ** 2 / lengthscale ** 2)


def test_kernel_weights_sum_to_variance_at_zero_lag():
    kernel_var, ell = 0.01, 0.9
    assert periodic_kernel(0.0, kernel_var, ell, 0.25) == pytest.approx(
        kernel_var)
    q0, qn = kernel_cosine_weights(kernel_var, ell, 40)
    assert q0 + qn.sum() == pytest.approx(kernel_var, abs=1e-12)
    assert q0 > 0 and np.all(qn > 0)
    assert np.all(np.diff(qn) < 0)


def test_kernel_truncation_error_decreases_with_order():
    tau = np.linspace(0, 1.0 / 0.25, 512)
    exact = periodic_kernel(tau, 0.01, 0.9, 0.25)
    errs = []
    for n_harmonics in range(1, 7):
        q0, qn = kernel_cosine_weights(0.01, 0.9, n_harmonics)
        n = np.arange(1, n_harmonics + 1)
        approx = q0 + np.cos(2 * np.pi * 0.25 * np.outer(tau, n)) @ qn
        errs.append(np.max(np.abs(approx - exact)))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0]


def test_self_consistency_on_in_model_signal():
    f = 0.25
    t, z = harmonic_signal(f, 90.0, amps=(0.8, 0.2), phases=(0.3, -1.0),
                           dc=0.5)
    cfg = GpConfig(meas_var=1e-4)
    series = gp_estimate(t, z, cfg)
    assert abs(series.f_hat_hz[-1] - f) * 60 < 0.5
    late = series.times_s > 60.0
    recon_err = np.mean(np.abs(z[late] - series.aux["recon"][late]))
    assert recon_err < 0.02
    assert np.allclose(series.aux["dc"][late], 0.5, atol=0.05)


def test_lower_measurement_noise_tightens_reconstruction():
    f = 0.2
    t, z = harmonic_signal(f, 60.0, amps=(1.0, 0.3), phases=(0.0, 0.7))
    errs = []
    for meas_var in (1.0, 1e-2, 1e-4):
        series = gp_estimate(t, z, GpConfig(meas_var=meas_var))
        late = series.times_s > 40.0
        errs.append(np.mean(np.abs(z[late] - series.aux["recon"][late])))
    assert errs[0] > errs[1] > errs[2]


def test_harmonic_blocks_capture_amplitude_ratio():
    # amplitude ratio 0.36 -> tracked energy ratio about 0.36**2 = 0.13
    f = 0.2
    t, z = harmonic_signal(f, 90.0, amps=(1.0, 0.36), phases=(0.4, 1.1))
    rng = np.random.default_rng(0)
    z = z + rng.normal(0, 0.05, len(z))
    series = gp_estimate(t, z, GpConfig())
    harm = series.aux["harmonic_cos"]
    late = series.times_s > 30.0
    energies = np.mean(harm[late] ** 2, axis=0)
    assert energies[1] / energies[0] == pytest.approx(0.13, abs=0.04)


def test_missing_samples_degrade_gracefully():
    # both trackers must absorb 10% random drops with <0.5 bpm penalty
    f = 12 / 60
    t, z = harmonic_signal(f, 60.0, amps=(1.0, 0.1), phases=(0.0, 0.5))
    rng = np.random.default_rng(21)
    z = z + rng.normal(0, 0.3, len(z))
    keep = rng.random(len(t)) >= 0.1
    for estimate in (gp_estimate, kf_estimate):
        full = estimate(t, z)
        gappy = estimate(t[keep], z[keep])
        def late_mae(series):
            _, f_hat = series.after(30.0)
            return np.mean(np.abs(f_hat - f)) * 60
        assert late_mae(gappy) - late_mae(full) < 0.5


def test_determinism():
    t, z = harmonic_signal(0.25, 40.0, amps=(1.0,), phases=(0.2,))
    a, b = gp_estimate(t, z), gp_estimate(t, z)
    assert np.array_equal(a.f_hat_hz, b.f_hat_hz)
    assert np.array_equal(a.aux["recon"], b.aux["recon"])


def test_aux_contents():
    t, z = harmonic_signal(0.25, 40.0, amps=(1.0,), phases=(0.2,))
    series = gp_estimate(t, z, GpConfig(n_harmonics=3))
    assert series.method == "gp"
    assert series.aux["harmonic_cos"].shape == (len(z), 3)
    assert series.aux["recondition_count"] == 0
    assert series.aux["final_state"].shape == (1 + 1 + 2 * 3,)
    assert np.all(series.f_hat_hz > 0)


def test_input_validation():
    t = np.arange(10) / FS
    with pytest.raises(EstimatorError):
        gp_estimate(t, np.zeros(9))
    with pytest.raises(EstimatorError):
        gp_estimate([], [])
    with pytest.raises(EstimatorError, match="finite"):
        gp_estimate(t, np.r_[np.zeros(9), np.inf])
    for rows in (np.zeros(10), np.zeros((1, 2, 10))):
        with pytest.raises(EstimatorError, match="2-D"):
            gp_estimate_batch(t, rows)
    with pytest.raises(EstimatorError):
        GpConfig(n_harmonics=0)
    with pytest.raises(EstimatorError):
        GpConfig(kernel_var=0.0)
    with pytest.raises(EstimatorError):
        GpConfig(freq_drift=-1.0)


# The name is older than the tolerance: the test now pins
# REFERENCE_RTOL, not equality.
@pytest.mark.parametrize("n_harmonics", [1, 2, 3])
@pytest.mark.parametrize("drops", [False, True], ids=["uniform", "dropped"])
def test_matches_reference_loop_bit_for_bit(n_harmonics, drops):
    rng = np.random.default_rng(10 * n_harmonics + drops)
    t, z = harmonic_signal(0.22, 30.0, amps=(1.0, 0.3), phases=(0.1, 0.9))
    z = z + rng.normal(0, 0.3, len(z))
    if drops:
        keep = rng.random(len(t)) >= 0.1
        t, z = t[keep], z[keep]
    cfg = GpConfig(n_harmonics=n_harmonics)
    assert_close_to_reference(gp_estimate(t, z, cfg),
                              *gp_reference(t, z, cfg))


def test_matches_reference_loop_on_in_model_signal():
    t, z = harmonic_signal(0.25, 30.0, amps=(0.8, 0.2), phases=(0.3, -1.0),
                           dc=0.5)
    cfg = GpConfig(meas_var=1e-4)
    assert_close_to_reference(gp_estimate(t, z, cfg),
                              *gp_reference(t, z, cfg))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 200), drops=st.booleans(),
       n_harmonics=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_matches_reference_loop_within_tolerance(n, drops, n_harmonics,
                                                 seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    if drops:
        keep = rng.random(n) >= 0.1
        keep[:2] = True
        t = t[keep]
    z = rng.normal(0, 1, len(t)) + np.sin(2 * np.pi * 0.2 * t)
    cfg = GpConfig(n_harmonics=n_harmonics)
    series = gp_estimate(t, z, cfg)
    assert_close_to_reference(series, *gp_reference(t, z, cfg))
    # the measurement update keeps the covariance exactly symmetric,
    # which its Cholesky gate relies on
    cov = series.aux["final_cov"]
    assert np.array_equal(cov, cov.T)


@pytest.mark.parametrize("signal", ["constant", "sine"])
def test_eigenvalue_floor_matches_reference(signal):
    # a near-noiseless measurement collapses the covariance onto the
    # floor: 36 fires on the constant input, 37 on the sine
    t = np.arange(int(20 * FS)) / FS
    z = np.full(len(t), 0.3) if signal == "constant" else np.sin(
        2 * np.pi * 0.25 * t)
    cfg = GpConfig(meas_var=1e-12)
    series = gp_estimate(t, z, cfg)
    f_hat, aux = gp_reference(t, z, cfg)
    assert aux["recondition_count"] == {"constant": 36, "sine": 37}[signal]
    assert_close_to_reference(series, f_hat, aux, scale=np.max(np.abs(z)))


def gate_as_gp_calls_it(p, counts):
    """Symmetrize the stack ``p`` and floor it, from ``p`` as
    :func:`_recondition` allows; returns the result.  gp itself passes
    its symmetric prior as both."""
    sym = p + p.mT
    sym /= 2
    _recondition(p, sym, counts)
    return sym


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([4, 6, 8]), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-45.0, 3.0), log_min=st.floats(-15.0, -9.0),
       negative=st.booleans())
@example(dim=6, seed=0, log_scale=-43.0, log_min=-1.0, negative=False)
def test_recondition_matches_eigh_rule(dim, seed, log_scale, log_min,
                                       negative):
    # eigenvalues from 10**log_scale down to 10**log_min times that, so
    # the smallest lands on either side of the 1e-12 floor; slightly
    # asymmetric as a covariance update leaves it
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    vals = 10.0 ** rng.uniform(log_min, 0.0, dim)
    vals[0], vals[1] = 1.0, 10.0 ** log_min * (-1 if negative else 1)
    scale = 10.0 ** log_scale
    p = (q * (vals * scale)) @ q.T
    p += rng.normal(0, 1e-17 * scale, (dim, dim))
    counts = [5]
    got = gate_as_gp_calls_it(p[None], counts)
    want, fired = eigh_recondition(p)
    assert counts == [5 + fired]
    assert np.array_equal(got[0], want)


@settings(max_examples=25, deadline=None)
@given(n_rows=st.integers(1, 4), n=st.integers(2, 120), drops=st.booleans(),
       n_harmonics=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_batch_rows_equal_single_runs(n_rows, n, drops, n_harmonics, seed):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    if drops:
        keep = rng.random(n) >= 0.1
        keep[:2] = True
        t = t[keep]
    rows = rng.normal(0, 1, (n_rows, len(t))) + np.sin(2 * np.pi * 0.2 * t)
    cfg = GpConfig(n_harmonics=n_harmonics)
    batch = gp_estimate_batch(t, rows, cfg)
    assert len(batch) == n_rows
    for z, series in zip(rows, batch):
        single = gp_estimate(t, z, cfg)
        assert_same_as_reference(series, single.f_hat_hz, single.aux)


def near_floor_covariance(dim, seed, log_scale, log_min, negative):
    """The matrix drawn by ``test_recondition_matches_eigh_rule``."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    vals = 10.0 ** rng.uniform(log_min, 0.0, dim)
    vals[0], vals[1] = 1.0, 10.0 ** log_min * (-1 if negative else 1)
    scale = 10.0 ** log_scale
    p = (q * (vals * scale)) @ q.T
    return p + rng.normal(0, 1e-17 * scale, (dim, dim))


matrix_draws = st.tuples(st.integers(0, 2**32 - 1), st.floats(-45.0, 3.0),
                         st.floats(-15.0, -9.0), st.booleans())


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([4, 6, 8]),
       draws=st.lists(matrix_draws, min_size=1, max_size=6))
@example(dim=6, draws=[(0, -20.0, -11.5, False), (0, -43.0, -15.0, False),
                       (0, -20.0, -12.0, False)])
def test_stacked_gate_matches_recondition(dim, draws):
    # rows on either side of the floor in one stack (in the example: one
    # passes the Cholesky test, one fails it and is floored, one fails
    # it and is not): each must come out as the eigh rule gives it
    # alone, with its own count
    stack = np.array([near_floor_covariance(dim, *draw) for draw in draws])
    counts = [10 * r for r in range(len(draws))]
    got = gate_as_gp_calls_it(stack, counts)
    for r, p in enumerate(stack):
        want, fired = eigh_recondition(p)
        assert counts[r] == 10 * r + fired
        assert np.array_equal(got[r], want)


# near_floor_covariance draws whose smallest eigenvalue lies around the
# 2e-12 * trace edge of the gates' Cholesky test
edge_draws = st.tuples(st.integers(0, 2**32 - 1), st.floats(-45.0, 3.0),
                       st.floats(-12.0, -10.0), st.just(False))


@settings(max_examples=200, deadline=None)
@given(dim=st.sampled_from([4, 6, 8]),
       draws=st.lists(edge_draws, min_size=1, max_size=3))
@example(dim=6, draws=[(0, -20.0, -10.5, False), (1, -3.0, -10.0, False)])
def test_passing_block_check_means_no_gate_fires(dim, draws):
    # a block of one step per draw: its prior is the draw symmetrized,
    # its posterior that prior after a measurement update; whenever the
    # stacked check passes, each gate leaves its matrix and count alone
    sym = np.array([near_floor_covariance(dim, *draw) for draw in draws])
    sym = (sym + sym.mT) / 2
    h_row = np.ones(dim)
    ph = np.matvec(sym, h_row)
    post = sym - ph[:, :, None] * ph[:, None] / (
        2 * np.vecdot(ph, h_row))[:, None, None]
    cov = np.stack([sym, post])[:, :, None]
    if not _block_passes(cov):
        return
    for prior, posterior in zip(sym, post):
        for mat in (prior, posterior):
            got, counts = mat[None].copy(), [3]
            _recondition(mat[None], got, counts)
            assert counts == [3]
            assert np.array_equal(got[0], mat)


def replayed_blocks(monkeypatch, passes=None):
    """Make gp's block check ``passes`` (the real one if None) and
    record, per checked block, its length and whether it passed."""
    seen = []

    def check(cov):
        ok = _block_passes(cov) if passes is None else passes
        seen.append((cov.shape[1], ok))
        return ok

    monkeypatch.setattr(gp_module, "_block_passes", check)
    return seen


@pytest.mark.parametrize("n_rows", [1, 2, 3, 4])
@pytest.mark.parametrize("drops", [False, True], ids=["uniform", "dropped"])
@pytest.mark.parametrize("n", [1, 127, 128, 129])
def test_replayed_blocks_equal_checked_ones(monkeypatch, n, drops, n_rows):
    # every block, block 0 included, fails its check and runs again with
    # its gates from the state before it: nothing may change
    rng = np.random.default_rng(100 * n + 10 * n_rows + drops)
    t = np.arange(n + n // 8) / FS
    if drops:
        t = np.sort(rng.choice(t, n, replace=False))
    t = t[:n]
    rows = rng.normal(0, 1, (n_rows, n)) + np.sin(2 * np.pi * 0.2 * t)
    want = gp_estimate_batch(t, rows)
    seen = replayed_blocks(monkeypatch, passes=False)
    got = gp_estimate_batch(t, rows)
    assert [size for size, _ in seen] == [128] * (n // 128) + (
        [n % 128] if n % 128 else [])
    for series, single in zip(got, want):
        assert_same_as_reference(series, single.f_hat_hz, single.aux)


@cache
def bed_rows_at_minus_18_db():
    """Four seeds of a 40 s bed trace at -18 dB, as gp's input ``z``."""
    scenario = bed_scenario(duration_s=40.0)
    scenario = replace(scenario,
                       noise_std_db=noise_std_for_snr(scenario, -18.0))
    rows = []
    for seed in range(4):
        t, values = synthesize(scenario, seed=seed).for_channel(0)
        rows.append(preprocess(values, FilterSpec(),
                               scenario.sample_rate_hz)[1])
    return t, np.array(rows)


@pytest.mark.parametrize("meas_var", [1.0, 1e-12])
def test_outputs_do_not_depend_on_block_length(monkeypatch, meas_var):
    # at meas_var=1e-12 the floor fires in some blocks and not others,
    # so replayed blocks start and end at every block length's bounds
    t, rows = bed_rows_at_minus_18_db()
    cfg = GpConfig(meas_var=meas_var)
    want = gp_estimate_batch(t, rows, cfg)
    fired = [s.aux["recondition_count"] for s in want]
    assert all(fired) if meas_var < 1 else not any(fired)
    for steps in (1, 5, 7, 64, 500):
        monkeypatch.setattr(gp_module, "_block_steps",
                            lambda n_rows, dim: steps)
        for got, single in zip(gp_estimate_batch(t, rows, cfg), want):
            assert np.array_equal(got.f_hat_hz, single.f_hat_hz), steps
            assert np.array_equal(got.aux["final_cov"],
                                  single.aux["final_cov"]), steps
            assert (got.aux["recondition_count"]
                    == single.aux["recondition_count"]), steps


# tracemalloc peak of gp on one 130-sample row at n_harmonics=50: 14.2 MB
# was measured, 77 MB with blocks of 128 steps at any size
PEAK_BYTES_50_HARMONICS = 20e6


def test_block_buffers_stay_within_a_byte_budget():
    # the benchmark's shapes, dim 6 and up to 32 rows, keep 128 steps
    assert _block_steps(32, 6) == 128
    # and a block whose one step passes the budget still takes it
    assert _block_steps(100, 300) == 1
    t = np.arange(130) / FS
    z = np.sin(2 * np.pi * 0.25 * t)
    tracemalloc.start()
    try:
        gp_estimate(t, z, GpConfig(n_harmonics=50))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BYTES_50_HARMONICS


def test_mixed_floor_batch_equals_single_runs(monkeypatch):
    # at meas_var=1e-12 the constant and the sine floor in block 0 only,
    # the square wave in blocks 0-1, and its gates' Cholesky tests fail
    # in block 2 as well.  A block that one row fails is replayed for
    # all; the last two stand.
    t = np.arange(int(20 * FS)) / FS
    rows = [np.full(len(t), 0.3), np.sign(np.sin(2 * np.pi * 0.25 * t)),
            np.sin(2 * np.pi * 0.25 * t)]
    cfg = GpConfig(meas_var=1e-12)
    singles = [gp_estimate(t, z, cfg) for z in rows]
    assert [s.aux["recondition_count"] for s in singles] == [36, 168, 37]
    seen = replayed_blocks(monkeypatch)
    batch = gp_estimate_batch(t, rows, cfg)
    assert [ok for _, ok in seen] == [False] * 3 + [True] * 2
    for series, single in zip(batch, singles):
        assert_same_as_reference(series, single.f_hat_hz, single.aux)


def runaway_input(kind):
    """Heavy-tailed noise, or a sine with one spike: 1e50 at the last step
    of block 1, whose rate overflows while every covariance of the block
    stays finite, or 1e100 at step 200 or at the last step, where the
    log-frequency runs to about -4e97 and so the rate to 0 (at step 200
    the state turns non-finite one step later)."""
    t = np.arange(625 if kind == "cauchy" else 300) / FS
    if kind == "cauchy":
        return t, np.random.default_rng(0).standard_cauchy(625) * 1e3
    z = np.sin(2 * np.pi * 0.25 * t)
    index, value = {"spike": (255, 1e50), "huge-spike": (200, 1e100),
                    "last-spike": (299, 1e100)}[kind]
    z[index] = value
    return t, z


@pytest.mark.parametrize("kind",
                         ["cauchy", "spike", "huge-spike", "last-spike"])
def test_runaway_raises_at_the_first_bad_step(monkeypatch, kind):
    # the state turns non-finite, or its rate underflows to 0: gp raises,
    # naming the time of the first step whose rate or mean is not finite
    # or whose rate is 0, and no warning escapes.  The blocks of a run
    # stand as checked (None), or are all replayed with the floor
    # (False), or all stand unfloored (True).  The floor fires
    # on the cauchy input from step 2, so unfloored it runs away on
    # another path, later, at a time that rounding decides;
    # test_runaway_time_is_where_the_prefix_fails checks every time
    # here without its pinned number.
    t, z = runaway_input(kind)
    when = {"cauchy": {None: 0.288, False: 0.288, True: 2.24},
            "spike": dict.fromkeys([None, False, True], 8.16),
            "huge-spike": dict.fromkeys([None, False, True], 6.4),
            "last-spike": dict.fromkeys([None, False, True], 9.568)}[kind]
    why = "not finite" if kind in ("cauchy", "spike") else "a rate of 0"
    for passes, t_s in when.items():
        replayed_blocks(monkeypatch, passes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EstimatorError) as caught:
                gp_estimate(t, z)
        assert str(caught.value) == (
            f"gp: the tracker state ran away ({why}) at t = {t_s} s")


@pytest.mark.parametrize("kind",
                         ["cauchy", "spike", "huge-spike", "last-spike"])
def test_runaway_time_is_where_the_prefix_fails(monkeypatch, kind):
    # under each gate, gp on the samples before the time it names
    # finishes, and one more sample makes it raise, naming that time
    t, z = runaway_input(kind)
    stamps = [f"{t_s:.6g}" for t_s in t]
    for passes in (None, False, True):
        replayed_blocks(monkeypatch, passes)
        with pytest.raises(EstimatorError) as caught:
            gp_estimate(t, z)
        named = stamps.index(str(caught.value).split("at t = ")[1][:-2])
        assert named > 0
        assert np.isfinite(gp_estimate(t[:named], z[:named]).f_hat_hz).all()
        with pytest.raises(EstimatorError) as again:
            gp_estimate(t[:named + 1], z[:named + 1])
        assert str(again.value) == str(caught.value)


finite_fields = st.floats(-1e300, 1e300)
positive_fields = st.floats(1e-300, 1e300)


@settings(max_examples=60, deadline=None)
@given(n_harmonics=st.integers(1, 400), kernel_var=positive_fields,
       lengthscale=positive_fields,
       freq_drift=st.just(0.0) | positive_fields, meas_var=positive_fields,
       init_log_freq=finite_fields, init_log_freq_var=positive_fields,
       init_dc_var=positive_fields, ut_alpha=finite_fields,
       ut_beta=finite_fields, ut_kappa=finite_fields,
       seed=st.integers(0, 2**32 - 1))
@example(n_harmonics=149, kernel_var=0.01, lengthscale=0.0375,
         freq_drift=1e-4, meas_var=1.0, init_log_freq=-1.4,
         init_log_freq_var=0.02, init_dc_var=0.3, ut_alpha=1e-8,
         ut_beta=2.0, ut_kappa=0.0, seed=0)
def test_any_config_runs_or_raises(seed, **fields):
    # a config either is rejected, or gp runs a short trace with finite
    # positive rates or raises that its state ran away; nothing else
    # escapes, no warning either
    rng = np.random.default_rng(seed)
    t = np.arange(12) / FS
    z = np.sin(2 * np.pi * 0.25 * t) + rng.normal(0, 0.3, len(t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            series = gp_estimate(t, z, GpConfig(**fields))
        except EstimatorError:
            return
    assert np.isfinite(series.f_hat_hz).all() and (series.f_hat_hz > 0).all()


# gp on a bed trace scaled by a c that is not a power of two, against
# the unscaled rates, relative to their largest: at most 4.3e-13 was seen
# over 20 values of c from 1e-3 to 1e3.  dft and kf gave equal rates.
SCALE_RTOL = 1e-12


@cache
def bed_rates(method):
    """The input of ``method`` on a bed trace (the mean-removed ``y`` for
    dft, ``z`` for kf and gp) and its rates at the default config."""
    scenario = bed_scenario(duration_s=40.0)
    t, values = synthesize(scenario, seed=0).for_channel(0)
    y, z = preprocess(values, FilterSpec(), scenario.sample_rate_hz)
    x = y if method == "dft" else z
    return t, x, ESTIMATE[method](t, x).f_hat_hz


def scaled_config(method, c):
    """The default config of ``method`` for its input scaled by ``c``:
    every variance by c**2, kf's amp_floor by c."""
    if method == "dft":
        return DftConfig()
    if method == "kf":
        cfg = KfConfig()
        return replace(cfg, process_var=c * c * cfg.process_var,
                       meas_var=c * c * cfg.meas_var,
                       init_cov=c * c * cfg.init_cov,
                       amp_floor=c * cfg.amp_floor)
    cfg = GpConfig()
    return replace(cfg, kernel_var=c * c * cfg.kernel_var,
                   meas_var=c * c * cfg.meas_var,
                   init_dc_var=c * c * cfg.init_dc_var)


def check_scale(method, log2_c):
    # the paper's linear/log claim: the same rate tracked from an input
    # scaled by c, with every variance scaled by c**2.  dft's and kf's
    # rates are argmaxes that do not see the scale; gp's moves by
    # rounding, except that a power of two scales every rounding step
    # exactly
    t, x, f_hat = bed_rates(method)
    c = 2.0 ** log2_c
    scaled = ESTIMATE[method](t, c * x, scaled_config(method, c)).f_hat_hz
    if method == "gp" and not float(log2_c).is_integer():
        np.testing.assert_allclose(scaled, f_hat, rtol=0,
                                   atol=SCALE_RTOL * np.max(f_hat))
    else:
        assert np.array_equal(scaled, f_hat)


@settings(max_examples=10, deadline=None)
@given(method=st.sampled_from(["dft", "kf", "gp"]),
       log2_c=st.integers(-8, 8))
def test_scale_by_power_of_two_keeps_the_rate(method, log2_c):
    check_scale(method, log2_c)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(method=st.sampled_from(["dft", "kf", "gp"]),
       log2_c=st.floats(-10.0, 10.0))
@example(method="dft", log2_c=math.log2(37.5))
@example(method="gp", log2_c=math.log2(0.2303))
def test_scale_keeps_the_rate(method, log2_c):
    check_scale(method, log2_c)
