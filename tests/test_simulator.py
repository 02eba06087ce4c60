"""Simulator behavior: determinism, degradations, and serialization."""

import json
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssb.config import to_dict
from rssb.dsp import is_uniform, resample_uniform
from rssb.geometry import (C_LIGHT, DegenerateGeometryError, LinkGeometry,
                           effective_reflection, excess_path,
                           fresnel_coefficient, incidence_cosine)
from rssb.pipeline import estimate, estimate_batch
from rssb.presets import bed_scenario, example_scenario_path, midline_scenario
from rssb.rss_model import log_harmonics, ratio_db_exact, reflection_state
from rssb.simulator import (RssTrace, ScenarioConfig, ScenarioError,
                            load_scenario, read_csv_columns,
                            scenario_from_dict, synthesize, write_csv)

# the 16-channel grid of the bundled example: 2.405 GHz up in 5 MHz steps
CHANNELS_HZ = load_scenario(example_scenario_path()).channels_hz


def clean(scenario, **kwargs):
    return replace(scenario, noise_std_db=0.0, quantization_db=0.0, **kwargs)


def test_static_reflector_gives_constant_trace():
    s = clean(midline_scenario(0.15), duration_s=2.0)
    s = replace(s, motion=replace(s.motion, amplitude_m=0.0))
    trace = synthesize(s)
    state = reflection_state(s.link, s.motion, s.medium)
    expected = ratio_db_exact(state.reflection, state.excess_path_m,
                              s.medium.wavelength_m)
    assert np.allclose(trace.values_db, expected, atol=1e-12)


def test_same_seed_is_bit_identical():
    s = bed_scenario(duration_s=5.0)
    a, b = synthesize(s), synthesize(s)
    assert np.array_equal(a.values_db, b.values_db)
    assert np.array_equal(a.times_s, b.times_s)
    c = synthesize(s, seed=1)
    assert not np.array_equal(a.values_db, c.values_db)


def test_channel_streams_are_independent_of_channel_count():
    s16 = bed_scenario(duration_s=5.0, channels_hz=CHANNELS_HZ)
    s1 = replace(s16, channels_hz=CHANNELS_HZ[:1])
    t16, v16 = synthesize(s16).for_channel(0)
    t1, v1 = synthesize(s1).for_channel(0)
    assert np.array_equal(t16, t1)
    assert np.array_equal(v16, v1)


def per_channel_synthesis(scenario, seed):
    """(times, channel ids, values) as ``synthesize`` built them when it
    evaluated the whole trajectory once per channel."""
    link, motion = scenario.link, scenario.motion

    def trajectory_db(wavelength_m, t):
        medium = replace(scenario.medium, wavelength_m=wavelength_m)
        if scenario.model == "frozen":
            state = reflection_state(link, motion, medium)
            delta = (state.excess_path_m
                     + state.speed_gain_mps * t
                     + state.direction_gain * motion.amplitude_m
                     * np.sin(2 * np.pi * motion.breath_freq_hz * t))
            return ratio_db_exact(state.reflection, delta, wavelength_m)
        pos = motion.position(t)
        delta = excess_path(link, pos)
        p_inner, _ = incidence_cosine(link, pos)
        gamma = fresnel_coefficient(p_inner, medium)
        g = effective_reflection(gamma, delta, link.node_distance,
                                 medium.path_gain_exponent)
        return ratio_db_exact(g, delta, wavelength_m)

    fs = scenario.sample_rate_hz
    n = int(round(scenario.duration_s * fs))
    t = np.arange(n) / fs
    wavelengths = scenario.channel_wavelengths_m()
    streams = np.random.SeedSequence(seed).spawn(len(wavelengths))
    all_t, all_c, all_v = [], [], []
    for cid, (lam, ss) in enumerate(zip(wavelengths, streams)):
        rng = np.random.default_rng(ss)
        v = trajectory_db(lam, t)
        if scenario.noise_std_db > 0:
            v = v + rng.normal(0.0, scenario.noise_std_db, n)
        if scenario.quantization_db > 0:
            q = scenario.quantization_db
            v = np.round(v / q) * q
        keep = np.ones(n, dtype=bool)
        if scenario.drop_prob > 0:
            keep = rng.random(n) >= scenario.drop_prob
        all_t.append(t[keep])
        all_c.append(np.full(keep.sum(), cid, dtype=int))
        all_v.append(v[keep])
    return (np.concatenate(all_t), np.concatenate(all_c),
            np.concatenate(all_v))


@pytest.mark.parametrize("model", ["exact", "frozen"])
def test_every_channel_matches_per_channel_synthesis(model):
    scenario = replace(load_scenario(example_scenario_path()),
                       drop_prob=0.1, model=model)
    assert len(scenario.channels_hz) == 16
    for seed in (0, 7):
        trace = synthesize(scenario, seed=seed)
        times, ids, values = per_channel_synthesis(scenario, seed)
        assert trace.channels() == list(range(16))
        assert np.array_equal(trace.times_s, times)
        assert np.array_equal(trace.channel_ids, ids)
        # bit for bit, -0.0 included
        assert trace.values_db.tobytes() == values.tobytes()


def test_channel_wavelengths():
    freqs = CHANNELS_HZ
    assert len(freqs) == 16
    assert freqs[0] == pytest.approx(2.405e9)
    assert np.allclose(np.diff(freqs), 5e6)
    s = bed_scenario(channels_hz=freqs)
    lams = s.channel_wavelengths_m()
    assert np.allclose(lams, [C_LIGHT / f for f in freqs])
    # empty channel list falls back to the medium wavelength
    assert bed_scenario().channel_wavelengths_m() == (0.125,)


def test_quantization_lattice():
    trace = synthesize(bed_scenario(duration_s=5.0))
    assert np.allclose(trace.values_db, np.round(trace.values_db))
    half = synthesize(bed_scenario(duration_s=5.0, quantization_db=0.5))
    assert np.allclose(half.values_db * 2, np.round(half.values_db * 2))


def test_noise_statistics():
    s = bed_scenario(duration_s=120.0, quantization_db=0.0)
    noisy = synthesize(s).values_db
    silent = synthesize(replace(s, noise_std_db=0.0)).values_db
    resid = noisy - silent
    assert abs(np.mean(resid)) < 0.1
    assert np.std(resid) == pytest.approx(s.noise_std_db, rel=0.05)


def test_trace_variance_matches_harmonic_energy():
    s = clean(bed_scenario())
    state = reflection_state(s.link, s.motion, s.medium)
    model = log_harmonics(state, truncation_m=4)
    energy = sum(model.coefficient(m) ** 2 / 2 for m in range(1, 5))
    frozen = synthesize(replace(s, model="frozen"))
    assert np.var(frozen.values_db) == pytest.approx(energy, rel=1e-3)
    # exact trajectories re-evaluate the echo strength per sample, which
    # perturbs the power by a few percent
    exact = synthesize(s)
    assert np.var(exact.values_db) == pytest.approx(energy, rel=0.06)


def test_frozen_trace_matches_harmonic_expansion():
    s = clean(midline_scenario(1.25 * 0.125, breath_freq_hz=0.25,
                               duration_s=20.0), model="frozen")
    trace = synthesize(s)
    state = reflection_state(s.link, s.motion, s.medium)
    model = log_harmonics(state, truncation_m=2)
    recon = model.evaluate(trace.times_s)
    # residual of the two-harmonic truncation is bounded by the tail
    model8 = log_harmonics(state, truncation_m=8)
    tail = sum(abs(model8.coefficient(m)) for m in range(3, 9))
    assert np.max(np.abs(trace.values_db - recon)) <= tail + 1e-9


def test_drop_probability():
    s = bed_scenario(duration_s=60.0, drop_prob=0.1)
    trace = synthesize(s)
    n = int(round(60.0 * s.sample_rate_hz))
    kept = len(trace.values_db)
    sigma = np.sqrt(n * 0.1 * 0.9)
    assert abs(kept - 0.9 * n) < 4 * sigma
    # surviving timestamps stay on the sampling grid
    k = np.round(trace.times_s * s.sample_rate_hz)
    assert np.allclose(trace.times_s, k / s.sample_rate_hz, atol=1e-9)
    assert trace.nominal_rate_hz() == pytest.approx(s.sample_rate_hz)


@pytest.mark.parametrize("drop_prob", [0.3, 0.5, 0.55, 0.7, 0.9])
def test_heavy_drops_keep_the_sample_rate(drop_prob):
    # from half the samples dropped on, the median step spans two or
    # more sampling intervals
    for seed in range(3):
        s = bed_scenario(duration_s=60.0, drop_prob=drop_prob, seed=seed)
        assert synthesize(s).nominal_rate_hz() == s.sample_rate_hz


def test_trace_too_short_for_a_rate_is_refused():
    empty = RssTrace(np.empty(0), np.empty(0, dtype=int), np.empty(0))
    one = RssTrace(np.zeros(1), np.zeros(1, dtype=int), np.zeros(1))
    # 20 samples drawn at drop_prob 0.95: seed 0 keeps none of them
    s = bed_scenario(duration_s=20 / 31.25, drop_prob=0.95, seed=0)
    dropped = synthesize(s)
    assert len(dropped.times_s) == 0
    for trace in (empty, one, dropped):
        with pytest.raises(ValueError, match="too short to infer"):
            trace.nominal_rate_hz()


def test_trace_accessors():
    trace = synthesize(bed_scenario(duration_s=2.0,
                                    channels_hz=CHANNELS_HZ[:3]))
    assert trace.channels() == [0, 1, 2]
    with pytest.raises(KeyError):
        trace.for_channel(7)


def test_degenerate_scenario_raises_on_node():
    s = bed_scenario(duration_s=1.0)
    bad = replace(s, motion=replace(s.motion, rest=(1.0, 0.0)))
    with pytest.raises(DegenerateGeometryError):
        synthesize(bad)


def test_scenario_validation():
    s = bed_scenario()
    with pytest.raises(ScenarioError):
        replace(s, duration_s=0.0)
    with pytest.raises(ScenarioError):
        replace(s, sample_rate_hz=-1.0)
    with pytest.raises(ScenarioError):
        replace(s, drop_prob=1.0)
    with pytest.raises(ScenarioError):
        replace(s, model="wobbly")
    with pytest.raises(ScenarioError):
        replace(s, channels_hz=(2.4e9, -1.0))
    with pytest.raises(ScenarioError, match="finite sample count"):
        replace(s, duration_s=1e308)


def test_csv_round_trip(tmp_path):
    trace = synthesize(bed_scenario(duration_s=2.0, drop_prob=0.05,
                                    channels_hz=CHANNELS_HZ[:2]))
    path = tmp_path / "trace.csv"
    trace.save_csv(path)
    loaded = RssTrace.load_csv(path)
    assert loaded.channels() == trace.channels()
    for cid in trace.channels():
        t0, v0 = trace.for_channel(cid)
        t1, v1 = loaded.for_channel(cid)
        assert np.allclose(t0, t1, atol=1e-6)
        assert np.allclose(v0, v1, rtol=1e-8)


@pytest.mark.parametrize("times, chans, values, message", [
    ([], [], [], "the trace has no samples"),
    ([0.0, np.nan], [0, 0], [1.0, 2.0], "1 of the trace's 2 samples"),
    ([0.0, 0.1], [0, 0], [1.0, -np.inf], "1 of the trace's 2 samples"),
    ([0.0, 0.1, 0.1], [0, 1, 1], [1.0, 2.0, 3.0], "channel 1 repeats"),
    ([0.0, -0.0], [3, 3], [1.0, 2.0], "channel 3 repeats"),
], ids=["empty", "nan-time", "infinite-value", "repeated-time", "signed-zero"])
def test_csv_save_refuses_what_load_refuses(tmp_path, times, chans, values,
                                            message):
    path = tmp_path / "trace.csv"
    trace = RssTrace(np.array(times, dtype=float), np.array(chans, dtype=int),
                     np.array(values, dtype=float))
    with pytest.raises(ValueError, match=message):
        trace.save_csv(path)
    assert not path.exists()
    path.write_text("time_s,channel_id,rss_db\n" + "".join(
        f"{t!r},{c},{v!r}\n" for t, c, v in zip(times, chans, values)))
    with pytest.raises(ValueError):
        RssTrace.load_csv(path)


def test_write_csv_reads_back(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, "time_s,method,f_hat_hz",
              [("0.500000", "dft", 0.25), (1.5, "kf", np.float64(0.2))])
    assert path.read_bytes() == (b"time_s,method,f_hat_hz\r\n"
                                 b"0.500000,dft,0.25\r\n1.5,kf,0.2\r\n")
    assert read_csv_columns(path, "time_s,method,f_hat_hz", "empty",
                            (float, str, float)) == [[0.5, 1.5], ["dft", "kf"],
                                                     [0.25, 0.2]]


@settings(max_examples=30, deadline=None)
@given(rate_hz=st.sampled_from([10.0, 25.0, 30.0, 31.25, 50.0]),
       drop_prob=st.sampled_from([0.0, 0.1]),
       seed=st.integers(0, 2**32 - 1))
def test_csv_round_trip_is_exact(tmp_path_factory, rate_hz, drop_prob, seed):
    trace = synthesize(bed_scenario(duration_s=20.0, sample_rate_hz=rate_hz,
                                    quantization_db=0.0, drop_prob=drop_prob,
                                    seed=seed))
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    trace.save_csv(path)
    loaded = RssTrace.load_csv(path)
    assert np.array_equal(loaded.times_s, trace.times_s)
    assert np.array_equal(loaded.channel_ids, trace.channel_ids)
    assert np.array_equal(loaded.values_db, trace.values_db)
    t0, _ = trace.for_channel(0)
    t1, v1 = loaded.for_channel(0)
    assert is_uniform(t1) == is_uniform(t0)
    assert loaded.nominal_rate_hz() == rate_hz
    grid, _ = resample_uniform(t1, v1, rate_hz)
    assert len(grid) == round((t1[-1] - t1[0]) * rate_hz) + 1


def write_csv_per_line(trace, path):
    """The trace CSV writer that formatted every field of every row."""
    order = np.lexsort((trace.channel_ids, trace.times_s))
    rows = zip(trace.times_s[order].tolist(),
               trace.channel_ids[order].astype(int).tolist(),
               trace.values_db[order].tolist())
    with open(path, "w") as fh:
        fh.write("time_s,channel_id,rss_db\n")
        fh.writelines(f"{t!r},{c},{v!r}\n" for t, c, v in rows)


@settings(max_examples=40, deadline=None)
@given(n_channels=st.integers(1, 16),
       rate_hz=st.sampled_from([10.0, 25.0, 30.0, 31.25, 50.0]),
       drop_prob=st.floats(0.0, 0.3),
       quantization_db=st.sampled_from([0.0, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_csv_codec_matches_per_line_writer(tmp_path_factory, n_channels,
                                           rate_hz, drop_prob,
                                           quantization_db, seed):
    trace = synthesize(bed_scenario(
        duration_s=10.0, sample_rate_hz=rate_hz, drop_prob=drop_prob,
        quantization_db=quantization_db, seed=seed,
        channels_hz=CHANNELS_HZ[:n_channels]))
    folder = tmp_path_factory.mktemp("csv")
    trace.save_csv(folder / "trace.csv")
    write_csv_per_line(trace, folder / "want.csv")
    assert ((folder / "trace.csv").read_bytes()
            == (folder / "want.csv").read_bytes())
    loaded = RssTrace.load_csv(folder / "trace.csv")
    order = np.lexsort((trace.channel_ids, trace.times_s))
    assert np.array_equal(loaded.times_s, trace.times_s[order])
    assert np.array_equal(loaded.channel_ids, trace.channel_ids[order])
    assert loaded.values_db.tobytes() == trace.values_db[order].tobytes()
    assert loaded.channel_ids.dtype == np.dtype(int)


@pytest.mark.parametrize("times, ids, values", [
    ([-0.0, 0.0, -0.0, 0.5], [0, 1, 2, 0], [-0.0, 0.0, 1.0, -2.5]),
], ids=["signed-zero-times"])
def test_csv_writer_matches_per_line_writer(tmp_path, times, ids, values):
    trace = RssTrace(np.array(times, dtype=float), np.array(ids, dtype=int),
                     np.array(values, dtype=float))
    trace.save_csv(tmp_path / "trace.csv")
    write_csv_per_line(trace, tmp_path / "want.csv")
    assert ((tmp_path / "trace.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


# Each malformed row, written between good rows, as row 5 of the file.
MALFORMED_ROWS = [
    ("oops,0", "expected 3 fields"),
    ("0.0,1.0,1.5", "invalid literal for int() with base 10: '1.0'"),
    ("0.0,1e0,1.5", "invalid literal for int() with base 10: '1e0'"),
    ("0.0,,1.5", "invalid literal for int() with base 10: ''"),
    ("0.0,1,1.5,", "expected 3 fields"),
    ("nan,0,1.5", "values must be finite"),
    ("0.0,0,-Infinity", "values must be finite"),
    ("0.0,0,1e999", "values must be finite"),
    # numpy's reader strips the ASCII separators; int() does not
    ("0.0,0\x1f,1.5", "invalid literal for int() with base 10: '0\\x1f'"),
    ("0.0,0,\x1c1.5", "could not convert string to float: '\\x1c1.5'"),
    ("0.0,99999999999999999999,1.5", "integers must fit in 64 bits"),
]


@pytest.mark.parametrize("bad, message", MALFORMED_ROWS)
def test_csv_load_names_each_malformed_row(tmp_path, bad, message):
    good = "".join(f"{k / 31.25!r},0,1.5\n" for k in range(3))
    path = tmp_path / "bad.csv"
    path.write_text("time_s,channel_id,rss_db\n" + good + bad + "\n" + good)
    with pytest.raises(ValueError) as info:
        RssTrace.load_csv(path)
    assert str(info.value) == f"{path}: malformed row 5: {message}"


def test_csv_load_accepts_what_float_and_int_accept(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text("time_s,channel_id,rss_db\n0.0,0,1.5\n"
                    "1_0.5,1_0,-2_5\n\n 0.25 , +3 ,\t7\n")
    trace = RssTrace.load_csv(path)
    assert trace.times_s.tolist() == [0.0, 10.5, 0.25]
    assert trace.channel_ids.tolist() == [0, 10, 3]
    assert trace.values_db.tolist() == [1.5, -25.0, 7.0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_csv_load_reads_a_pipe(tmp_path):
    trace = synthesize(bed_scenario(duration_s=4.0, drop_prob=0.1,
                                    channels_hz=CHANNELS_HZ[:3]))
    trace.save_csv(tmp_path / "trace.csv")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    writer = threading.Thread(target=lambda: pipe.write_bytes(
        (tmp_path / "trace.csv").read_bytes()), daemon=True)
    writer.start()
    try:
        loaded = RssTrace.load_csv(pipe)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    want = RssTrace.load_csv(tmp_path / "trace.csv")
    assert np.array_equal(loaded.times_s, want.times_s)
    assert np.array_equal(loaded.channel_ids, want.channel_ids)
    assert np.array_equal(loaded.values_db, want.values_db)


@pytest.mark.parametrize("drop_prob", [0.0, 0.1])
def test_loaded_trace_gives_the_same_estimates(tmp_path, drop_prob):
    # 40 s: longer than the 30 s dft window, unlike the traces above
    scenario = bed_scenario(duration_s=40.0, drop_prob=drop_prob, seed=11)
    trace = synthesize(scenario)
    trace.save_csv(tmp_path / "trace.csv")
    loaded = RssTrace.load_csv(tmp_path / "trace.csv")
    methods = ("dft", "kf", "gp")
    want = estimate(*trace.for_channel(0), methods)
    got = estimate(*loaded.for_channel(0), methods)
    for method in methods:
        assert len(got[method]) > 0
        assert np.array_equal(got[method].f_hat_hz, want[method].f_hat_hz)


@pytest.mark.parametrize("drop_prob", [0.0, 0.1])
@pytest.mark.parametrize("seed", range(4))
def test_estimates_do_not_depend_on_the_db_reference(seed, drop_prob):
    # A trace in absolute dBm is the relative trace plus a constant.  The
    # rows of one batch are each what ``estimate`` gives on them alone.
    scenario = bed_scenario(duration_s=60.0, drop_prob=drop_prob, seed=seed)
    t, values = synthesize(scenario).for_channel(0)
    offsets_db = (-95.0, -40.0, 17.3)
    methods = ("dft", "kf", "gp")
    for method, (want, *shifted) in estimate_batch(
            t, [values, *(values + c for c in offsets_db)], methods):
        for got in shifted:
            assert len(got) > 0
            if method == "gp":
                np.testing.assert_allclose(got.f_hat_hz, want.f_hat_hz,
                                           rtol=1e-9, atol=0)
            else:
                assert np.array_equal(got.f_hat_hz, want.f_hat_hz)


def test_csv_load_needs_each_channel_in_time_order(tmp_path):
    # rows that share a timestamp may name their channels in any order,
    # and channels may interleave; a channel that steps back or repeats a
    # timestamp is named
    path = tmp_path / "trace.csv"
    header = "time_s,channel_id,rss_db\n"
    path.write_text(header + "0.0,1,1.0\n0.0,0,2.0\n0.5,0,3.0\n"
                    "0.25,1,4.0\n")
    assert RssTrace.load_csv(path).channel_ids.tolist() == [1, 0, 0, 1]
    for rows, channel in [("0.0,0,1.0\n0.5,3,2.0\n0.25,3,3.0\n", 3),
                          ("0.0,2,1.0\n0.0,2,2.0\n", 2),
                          ("0.5,4,1.0\n0.5,1,1.0\n0.25,4,2.0\n"
                           "0.0,1,2.0\n", 1)]:
        path.write_text(header + rows)
        with pytest.raises(ValueError) as info:
            RssTrace.load_csv(path)
        assert str(info.value) == (f"{path}: timestamps of channel "
                                   f"{channel} are not strictly increasing")


def test_csv_load_reports_malformed_rows(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,channel_id,rss_db\n0.0,0,1.5\noops,0\n")
    with pytest.raises(ValueError, match="row 3"):
        RssTrace.load_csv(path)
    good = "".join(f"{k / 31.25!r},0,1.5\n" for k in range(10000))
    path.write_text("time_s,channel_id,rss_db\n\n" + good + "0.0,x,1.5\n")
    with pytest.raises(ValueError, match="row 10003: invalid literal"):
        RssTrace.load_csv(path)
    for bad in ("nan,0,1.5", "0.0,0,inf", "0.0,0,-Infinity"):
        path.write_text("time_s,channel_id,rss_db\n" + good + bad + "\n")
        with pytest.raises(ValueError,
                           match="row 10002: values must be finite"):
            RssTrace.load_csv(path)
    # Blank lines, enough to fill reads of their own, are skipped.
    path.write_text("time_s,channel_id,rss_db\n" + good + " \n" * 50000)
    assert len(RssTrace.load_csv(path).times_s) == 10000
    path.write_text("wrong,header,here\n")
    with pytest.raises(ValueError, match="header"):
        RssTrace.load_csv(path)
    path.write_text("time_s,channel_id,rss_db\n")
    with pytest.raises(ValueError, match="no samples"):
        RssTrace.load_csv(path)


def test_scenario_json_round_trip(tmp_path):
    s = bed_scenario(channels_hz=CHANNELS_HZ, drop_prob=0.02,
                     model="frozen")
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(to_dict(s), indent=2))
    assert load_scenario(path) == s


def test_scenario_dict_errors():
    s = bed_scenario()
    d = to_dict(s)
    assert scenario_from_dict(d) == s
    del d["motion"]
    with pytest.raises(ScenarioError):
        scenario_from_dict(d)
    with pytest.raises(ScenarioError):
        scenario_from_dict({"link": {"tx": [0, 0]}})


def test_synthesize_rejects_non_link():
    with pytest.raises(ValueError):
        LinkGeometry(tx=(1.0, 0.0), rx=(1.0, 0.0))
