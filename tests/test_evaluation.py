"""Metric arithmetic and scoring-harness checks."""

from dataclasses import replace

import numpy as np
import pytest

from rssb.estimators import EstimateSeries
from rssb.evaluation import (MetricsReport, compute_metrics,
                             convergence_split, convergence_time_s,
                             freq_mae_bpm, hit_ratio_pct, inband_signal_power,
                             noise_std_for_snr, outlier_filtered_mae,
                             snr_estimate, snr_sweep)
from rssb.pipeline import estimate, estimate_batch
from rssb.presets import bed_scenario, example_scenario_path
from rssb.simulator import load_scenario, synthesize

F_TRUE = 0.2  # 12 bpm


def series_of(f_hat, times=None, method="dft"):
    f_hat = np.asarray(f_hat, dtype=float)
    if times is None:
        times = np.arange(len(f_hat), dtype=float)
    return EstimateSeries(method=method, times_s=np.asarray(times, float),
                          f_hat_hz=f_hat)


def test_mae_worked_examples():
    assert freq_mae_bpm(np.full(10, F_TRUE), F_TRUE) == 0.0
    assert freq_mae_bpm(np.full(10, F_TRUE + 1 / 60), F_TRUE) == pytest.approx(1.0)
    alternating = F_TRUE + np.resize([2 / 60, -2 / 60], 10)
    assert freq_mae_bpm(alternating, F_TRUE) == pytest.approx(2.0)


def test_hit_ratio_worked_examples():
    assert hit_ratio_pct(np.full(8, F_TRUE + 0.9 / 60), F_TRUE) == 100.0
    half = np.r_[np.full(5, F_TRUE), np.full(5, 2 * F_TRUE)]
    assert hit_ratio_pct(half, F_TRUE) == 50.0


def test_outlier_filter_splits_harmonic_locks():
    half = np.r_[np.full(5, F_TRUE + 0.5 / 60), np.full(5, 2 * F_TRUE)]
    mae, pct = outlier_filtered_mae(half, F_TRUE)
    assert pct == 50.0
    assert mae == pytest.approx(0.5)
    mae, pct = outlier_filtered_mae(np.full(4, 2 * F_TRUE), F_TRUE)
    assert mae is None and pct == 100.0


def test_convergence_split():
    times = np.array([10.0, 20.0, 40.0, 50.0])
    f_hat = F_TRUE + np.array([2.0, 1.0, 0.5, 0.0]) / 60
    early, late = convergence_split(times, f_hat, F_TRUE)
    assert early == pytest.approx(1.5)
    assert late == pytest.approx(0.25)
    early, late = convergence_split(times[:2], f_hat[:2], F_TRUE)
    assert late is None


def test_convergence_time_is_stay_within():
    times = np.arange(5, dtype=float)
    inside, outside = F_TRUE, F_TRUE + 3 / 60
    f_hat = np.array([outside, inside, outside, inside, inside])
    assert convergence_time_s(times, f_hat, F_TRUE) == 3.0
    assert convergence_time_s(times, np.full(5, inside), F_TRUE) == 0.0
    assert convergence_time_s(times, np.full(5, outside), F_TRUE) is None
    with pytest.raises(ValueError, match="no estimates to score"):
        convergence_time_s([], [], F_TRUE)


def test_snr_estimate_pure_tone_and_noise():
    fs = 31.25
    t = np.arange(int(120 * fs)) / fs
    tone = np.sin(2 * np.pi * F_TRUE * t)
    # zero-padding to the next power of two leaks some tone energy into
    # the out-of-neighborhood bins, so "large" here means > 10 dB
    assert snr_estimate(tone, fs, F_TRUE) > 10.0

    # white noise: the expected ratio is set by the bin counts alone
    ratios = [snr_estimate(np.random.default_rng(s).normal(size=len(t)),
                           fs, F_TRUE) for s in range(10)]
    nfft = 4096
    freqs = np.fft.rfftfreq(nfft, 1 / fs)
    band = (freqs >= 0.1) & (freqs <= 3.0)
    band[0] = False
    near = (np.abs(freqs - F_TRUE) <= 2 / 60) | (
        np.abs(freqs - 2 * F_TRUE) <= 2 / 60)
    expected = 10 * np.log10((band & near).sum() / (band & ~near).sum())
    assert np.mean(ratios) == pytest.approx(expected, abs=1.5)


def test_snr_estimate_known_variance_ratio():
    fs = 31.25
    rng = np.random.default_rng(17)
    t = np.arange(int(240 * fs)) / fs
    amp, sigma = 1.0, 0.4
    y = amp * np.sin(2 * np.pi * F_TRUE * t) + rng.normal(0, sigma, len(t))
    # analytic: tone power over the noise power that falls in the band
    nfft = 1 << int(np.ceil(np.log2(len(t))))
    freqs = np.fft.rfftfreq(nfft, 1 / fs)
    band = (freqs >= 0.1) & (freqs <= 3.0)
    band[0] = False
    near = (np.abs(freqs - F_TRUE) <= 2 / 60) | (
        np.abs(freqs - 2 * F_TRUE) <= 2 / 60)
    n_signal = (band & near).sum()
    n_rest = (band & ~near).sum()
    noise_per_bin = sigma ** 2 / (fs / 2)  # flat PSD share per Hz, any norm
    tone_power = amp ** 2 / 2
    df = fs / nfft
    analytic = 10 * np.log10(
        (tone_power + n_signal * df * noise_per_bin)
        / (n_rest * df * noise_per_bin))
    assert snr_estimate(y, fs, F_TRUE) == pytest.approx(analytic, abs=1.5)
    with pytest.raises(ValueError):
        snr_estimate(y[:4], fs, F_TRUE)


def test_compute_metrics_and_report_dict():
    times = np.array([10.0, 20.0, 40.0, 50.0])
    series = series_of(np.full(4, F_TRUE), times=times, method="kf")
    report = compute_metrics(series, F_TRUE, snr_db=-5.0)
    assert isinstance(report, MetricsReport)
    assert report.freq_mae_bpm == 0.0
    assert report.hit_ratio_pct == 100.0
    assert report.convergence_time_s == 10.0
    assert report.n_estimates == 4
    d = report.to_dict()
    assert list(d) == [
        "method", "true_freq_hz", "n_estimates", "freq_mae_bpm",
        "hit_ratio_pct", "early_mae_bpm", "late_mae_bpm",
        "mae_no_outliers_bpm", "outlier_pct", "convergence_time_s", "snr_db"]
    assert d["method"] == "kf"
    assert d["snr_db"] == -5.0
    assert d["late_mae_bpm"] == 0.0


def test_noise_calibration_round_trip():
    scenario = bed_scenario()
    p_sig = inband_signal_power(scenario)
    for target in (-5.0, -10.0, 0.0):
        sigma = noise_std_for_snr(scenario, target)
        assert 10 * np.log10(p_sig / sigma ** 2) == pytest.approx(target)
    # the shipped preset noise level encodes the -5 dB operating point
    assert noise_std_for_snr(scenario, -5.0) == pytest.approx(
        scenario.noise_std_db, abs=0.005)


def per_cell_sweep(template, snr_targets_db, n_seeds, methods, settle_s):
    """snr_sweep's rows, from one estimate call per (SNR, seed) cell, on
    the first channel of a trace that holds every channel."""
    rows = []
    for snr in sorted(snr_targets_db):
        sigma = noise_std_for_snr(template, snr)
        hits = {m: [] for m in methods}
        for i in range(n_seeds):
            trace = synthesize(replace(template, noise_std_db=sigma),
                               seed=template.seed + i)
            t, values = trace.for_channel(trace.channels()[0])
            runs = estimate(t, values, methods)
            for m, series in runs.items():
                hits[m].append(hit_ratio_pct(series.after(settle_s)[1],
                                             template.motion.breath_freq_hz))
        rows += [{"snr_db": snr, "method": m,
                  "hit_ratio_pct": float(np.mean(hits[m]))} for m in methods]
    return rows


@pytest.mark.parametrize("methods, message", [
    (("kf", "kf"), r"repeated methods: \['kf'\]"),
    (("dft", "gp", "dft", "gp"), r"repeated methods: \['dft', 'gp'\]"),
    (("dft", "f162"), r"unknown methods: \['f162'\]"),
], ids=["repeated", "repeated-two", "unknown"])
def test_method_names_are_checked(monkeypatch, methods, message):
    t = np.arange(64) / 31.25
    with pytest.raises(ValueError, match=message):
        list(estimate_batch(t, [np.zeros(64)], methods))

    def no_synthesis(*args, **kwargs):
        raise AssertionError("a cell was synthesized")

    # the sweep rejects the names before it synthesizes any cell
    monkeypatch.setattr("rssb.evaluation.synthesize", no_synthesis)
    with pytest.raises(ValueError, match=message):
        snr_sweep(bed_scenario(), [0.0], n_seeds=1, methods=methods)


def example_scenario(**fields):
    return replace(load_scenario(example_scenario_path()), **fields)


@pytest.mark.parametrize("template", [
    pytest.param(bed_scenario(duration_s=40.0), id="0.0"),
    pytest.param(bed_scenario(duration_s=40.0, drop_prob=0.1), id="0.1"),
    pytest.param(bed_scenario(duration_s=40.0, seed=5), id="seed-5"),
    pytest.param(example_scenario(duration_s=40.0), id="16ch-0.0"),
    pytest.param(example_scenario(duration_s=40.0, drop_prob=0.1),
                 id="16ch-0.1"),
])
def test_snr_sweep_smoke(template):
    # with drops the dft runs on a resampled grid, and only the cells of
    # one seed share timestamps; without, every chunk is one batch.  The
    # cells draw seeds from the template's on, and score the first
    # channel of a multi-channel template as if all were synthesized.
    methods = ("dft", "kf", "gp")
    targets = [-12.0, -18.0]  # low enough that hit ratios differ
    rows = snr_sweep(template, targets, n_seeds=3, methods=methods)
    assert [(r["snr_db"], r["method"]) for r in rows] == [
        (snr, m) for snr in (-18.0, -12.0) for m in methods]
    assert all(0.0 <= r["hit_ratio_pct"] <= 100.0 for r in rows)
    assert rows == snr_sweep(template, targets, n_seeds=3, methods=methods,
                             jobs=2)
    assert rows == per_cell_sweep(template, targets, 3, methods, 30.0)
