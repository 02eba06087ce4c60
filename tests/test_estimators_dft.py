"""Sliding-window periodogram estimator checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rssb.dsp import FilterSpec, preprocess
from rssb.estimators import (DftConfig, EstimatorError, dft_estimate,
                             dft_estimate_batch)
from rssb.estimators.dft import _SAMPLES_PER_SUM
from rssb.evaluation import noise_std_for_snr
from rssb.presets import bed_scenario
from rssb.simulator import synthesize

FS = 31.25
RATES_HZ = [10.0, 12.5, 15.0, 20.0, 25.0, 30.0, 31.25, 40.0, 50.0, 100.0]
# psd against the reference, relative to its largest magnitude, and
# each window's recon relative to that window's peak amplitude
REFERENCE_RTOL = 1e-12


def dft_reference(y, cfg, fs=FS):
    """One rfft per window over all bins, as first written, at the
    known rate ``fs`` of the test signals.

    Returns f_hat, recon, the full psd, its frequencies and each
    window's peak amplitude 2|X_peak|/nw.
    """
    nw = cfg.window_samples(fs)
    freqs = np.fft.rfftfreq(cfg.n_dft, d=1.0 / fs)
    band = (freqs >= cfg.band_hz[0]) & (freqs <= cfg.band_hz[1])
    band[0] = False
    band_idx = np.flatnonzero(band)
    starts = np.arange(len(y) - nw + 1)
    psd = np.empty((len(starts), len(freqs)))
    f_hat = np.empty(len(starts))
    recon = np.empty(len(starts))
    amps = np.empty(len(starts))
    for j, s in enumerate(starts):
        spec = np.fft.rfft(y[s:s + nw], cfg.n_dft)
        psd[j] = np.abs(spec) ** 2
        peak = band_idx[np.argmax(psd[j, band_idx])]
        f_hat[j] = freqs[peak]
        amps[j] = amp = 2 * np.abs(spec[peak]) / nw
        phase = np.angle(spec[peak])
        recon[j] = amp * np.cos(2 * np.pi * f_hat[j] * (nw - 1) / fs + phase)
    return f_hat, recon, psd, freqs, amps


def assert_matches_reference(series, y, cfg, fs=FS):
    """``f_hat`` and the band's frequencies equal the reference's; psd
    lies within ``REFERENCE_RTOL`` of its largest magnitude, and each
    window's recon within ``REFERENCE_RTOL`` of that window's peak
    amplitude.

    The amplitude bounds |recon|, and the rounding of the phase scales
    with it: a window whose recon sits near a zero of its cosine has an
    error of the amplitude's size, not of the recon's.
    """
    f_hat, recon, psd, freqs, amps = dft_reference(y, cfg, fs)
    band = (freqs >= cfg.band_hz[0]) & (freqs <= cfg.band_hz[1])
    assert np.array_equal(series.f_hat_hz, f_hat)
    assert np.array_equal(series.aux["freq_hz"], freqs[band])
    psd = psd[:, band]
    assert series.aux["psd"].shape == psd.shape
    assert (np.max(np.abs(series.aux["psd"] - psd))
            <= REFERENCE_RTOL * np.max(psd))
    assert np.all(np.abs(series.aux["recon"] - recon)
                  <= REFERENCE_RTOL * amps)


def tone(freq_hz, duration_s, amp=1.0, phase=0.0):
    t = np.arange(int(duration_s * FS)) / FS
    return t, amp * np.sin(2 * np.pi * freq_hz * t + phase)


def test_quarter_hz_tone_lands_on_nearest_bin():
    t, y = tone(0.25, 40.0)
    series = dft_estimate(t, y)
    expected = 16 * FS / 2048
    assert expected == pytest.approx(0.244140625)
    assert np.allclose(series.f_hat_hz, expected)
    assert series.method == "dft"


def test_estimates_start_after_one_full_window():
    t, y = tone(0.25, 35.0)
    series = dft_estimate(t, y)
    nw = DftConfig().window_samples(FS)
    assert series.times_s[0] == pytest.approx(t[nw - 1])
    expected_count = len(y) - nw + 1
    assert len(series) == expected_count
    assert np.array_equal(series.aux["window_start_s"], t[:expected_count])


@pytest.mark.parametrize("fs", RATES_HZ)
def test_window_spans_ceil_of_window_s_times_the_rate(fs):
    # 1 / the median step of np.arange(n) / fs is off by roundoff (above
    # 25 at 25 Hz); the window must still span ceil(30 s * fs) samples.
    cfg = DftConfig(n_dft=4096)
    nw = int(np.ceil(cfg.window_s * fs))
    n = int(32 * fs)
    t = np.arange(n) / fs
    series = dft_estimate(t, np.sin(2 * np.pi * 0.3 * t), cfg)
    assert series.aux["sample_rate_hz"] == fs
    assert len(series) == n - nw + 1
    assert series.times_s[0] == t[nw - 1]


def test_insufficient_data_is_an_error():
    t, y = tone(0.25, 10.0)
    with pytest.raises(EstimatorError, match="window"):
        dft_estimate(t, y)


def test_scale_invariance():
    t, y = tone(0.3, 40.0)
    rng = np.random.default_rng(2)
    y = y + rng.normal(0, 0.5, len(y))
    a = dft_estimate(t, y)
    b = dft_estimate(t, 37.5 * y)
    assert np.array_equal(a.f_hat_hz, b.f_hat_hz)


def test_uneven_sampling_is_rejected():
    t, y = tone(0.25, 40.0)
    t = np.delete(t, 100)
    y = np.delete(y, 100)
    with pytest.raises(EstimatorError, match="uniform"):
        dft_estimate(t, y)


def test_band_without_bins_is_an_error():
    t, y = tone(0.25, 35.0)
    with pytest.raises(EstimatorError, match="band"):
        dft_estimate(t, y, DftConfig(band_hz=(0.001, 0.002)))


def test_config_validation():
    with pytest.raises(EstimatorError):
        DftConfig(n_dft=1)
    with pytest.raises(EstimatorError):
        DftConfig(window_s=0.0)
    with pytest.raises(EstimatorError):
        DftConfig(band_hz=(0.5, 0.1))
    t, y = tone(0.25, 35.0)
    with pytest.raises(EstimatorError, match="n_dft"):
        dft_estimate(t, y, DftConfig(n_dft=512))


def test_second_harmonic_dominant_tone_wins():
    t, _ = tone(0.2, 40.0)
    y = (0.2 * np.sin(2 * np.pi * 0.2 * t)
         + 1.0 * np.sin(2 * np.pi * 0.4 * t))
    series = dft_estimate(t, y)
    assert np.all(np.abs(series.f_hat_hz - 0.4) < FS / 2048)


def test_white_noise_estimates_scatter_across_band():
    cfg = DftConfig()
    hits = []
    for seed in range(15):
        rng = np.random.default_rng(seed)
        t = np.arange(int(40 * FS)) / FS
        y = rng.normal(size=len(t))
        series = dft_estimate(t, y, cfg)
        assert np.all(series.f_hat_hz >= cfg.band_hz[0])
        assert np.all(series.f_hat_hz <= cfg.band_hz[1])
        hits.append(np.mean(np.abs(series.f_hat_hz - 0.25) * 60 <= 1.0))
    # scatter: nothing close to a reliable lock on any one frequency
    assert np.mean(hits) < 0.25


def test_spectrogram_aux_shapes():
    # bin-centered tone, so the single-bin reconstruction is clean
    t, y = tone(16 * FS / 2048, 35.0)
    series = dft_estimate(t, y)
    psd = series.aux["psd"]
    freqs = series.aux["freq_hz"]
    assert psd.shape == (len(series), len(freqs))
    assert series.aux["sample_rate_hz"] == pytest.approx(FS)
    # the dominant-tone reconstruction tracks the input at the window end
    nw = DftConfig().window_samples(FS)
    ends = np.arange(len(y) - nw + 1) + nw - 1
    assert np.allclose(series.aux["recon"], y[ends], atol=0.05)


def test_matches_per_window_reference():
    cfg = DftConfig()
    nw = cfg.window_samples(FS)
    # two full running sums of windows plus a partial one
    n_windows = 2 * _SAMPLES_PER_SUM + 5
    n = nw + n_windows - 1
    rng = np.random.default_rng(1)
    t = np.arange(n) / FS
    y = np.sin(2 * np.pi * 0.27 * t) + rng.normal(0, 1.0, n)
    # alone, and as the first of three rows of a batch
    rows = [y, rng.normal(0, 1.0, n), np.cos(2 * np.pi * 0.6 * t)]
    for z, series in [(y, dft_estimate(t, y, cfg)),
                      *zip(rows, dft_estimate_batch(t, rows, cfg))]:
        assert len(series) == n_windows
        assert_matches_reference(series, z, cfg)


@settings(max_examples=30, deadline=None)
@given(fs=st.sampled_from(RATES_HZ), sums=st.integers(0, 2), past_boundary=st.integers(-2, 2),
       seed=st.integers(0, 2**32 - 1), n_dft=st.integers(1000, 3000))
# one window whose recon (-0.0049) sits near a zero of its cosine, at a
# peak amplitude of 0.895: off by 1.27e-14, 2.6 times 1e-12 of |recon|
@example(fs=20.0, sums=0, past_boundary=0, seed=448893, n_dft=1357)
def test_sliding_sums_match_reference(fs, sums, past_boundary, seed, n_dft):
    nw = DftConfig().window_samples(fs)
    # DFT lengths that are not powers of two, at least one window long
    cfg = DftConfig(n_dft=max(n_dft, nw))
    n_windows = max(1, sums * _SAMPLES_PER_SUM + past_boundary)
    n = nw + n_windows - 1
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    y = np.sin(2 * np.pi * 0.4 * t) + rng.normal(0, 2.0, n)
    series = dft_estimate(t, y, cfg)
    assert len(series) == n_windows
    assert_matches_reference(series, y, cfg, fs)


def test_low_snr_bed_traces_match_reference():
    # at -18 dB the in-band peaks are flat, so near-ties between bins
    # are as likely as they get on bed traces
    scenario = bed_scenario()
    noisy = replace(scenario,
                    noise_std_db=noise_std_for_snr(scenario, -18.0))
    fs = scenario.sample_rate_hz
    cfg = DftConfig()
    for seed in range(8):
        t, values = synthesize(noisy, seed=seed).for_channel(0)
        y, _ = preprocess(values, FilterSpec(), fs)
        assert_matches_reference(dft_estimate(t, y, cfg), y, cfg, fs)


@settings(max_examples=25, deadline=None)
@given(n_rows=st.integers(1, 4),
       n_windows=st.integers(1, 2 * _SAMPLES_PER_SUM + 5),
       seed=st.integers(0, 2**32 - 1))
@example(n_rows=3, n_windows=_SAMPLES_PER_SUM // 3 + 1, seed=0)
def test_batch_rows_equal_single_runs(n_rows, n_windows, seed):
    # up to 4 rows, each summed in blocks of _SAMPLES_PER_SUM windows,
    # so the counts drawn fall on either side of a block boundary
    cfg = DftConfig()
    n = cfg.window_samples(FS) + n_windows - 1
    rng = np.random.default_rng(seed)
    t = np.arange(n) / FS
    rows = rng.normal(0, 1, (n_rows, n)) + np.sin(2 * np.pi * 0.3 * t)
    batch = dft_estimate_batch(t, rows, cfg)
    assert len(batch) == n_rows
    for y, series in zip(rows, batch):
        single = dft_estimate(t, y, cfg)
        assert len(series) == n_windows
        assert np.array_equal(series.times_s, single.times_s)
        assert np.array_equal(series.f_hat_hz, single.f_hat_hz)
        for key in ("psd", "recon", "freq_hz", "window_start_s"):
            assert np.array_equal(series.aux[key], single.aux[key])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_row_is_rejected(bad):
    t, y = tone(0.25, 35.0)
    rows = np.array([y, y])
    rows[1, 500] = bad
    with pytest.raises(EstimatorError, match="finite"):
        dft_estimate_batch(t, rows)
    with pytest.raises(EstimatorError, match="finite"):
        dft_estimate(t, rows[1])
