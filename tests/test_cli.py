"""End-to-end command-line checks driven through cli.main."""

import contextlib
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

from rssb.cli import ESTIMATES_HEADER, main
from rssb.dsp import nominal_rate_hz
from rssb.presets import PRESETS, example_scenario_path
from rssb.simulator import RssTrace

TRUE_FREQ_HZ = 0.2


def run(argv):
    return main(argv)


def simulate(tmp_path, name="trace.csv", extra=()):
    out = tmp_path / name
    rc = run(["simulate", "--preset", "bed", "--seed", "5",
              "--set", "duration_s=60", *extra, "--out", str(out)])
    assert rc == 0
    return out


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_simulate_estimate_evaluate_round_trip(tmp_path):
    trace = simulate(tmp_path)
    manifest = json.loads((tmp_path / "trace.csv.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert set(manifest) >= {"command", "argv", "version", "numpy", "scipy",
                             "created_utc", "seed", "config", "outputs"}
    assert manifest["seed"] == 5
    assert manifest["config"]["duration_s"] == 60

    estimates = tmp_path / "estimates.csv"
    rc = run(["estimate", "--trace", str(trace), "--method", "all",
              "--out", str(estimates)])
    assert rc == 0
    header, rows = read_rows(estimates)
    assert header == ESTIMATES_HEADER
    assert {row[1] for row in rows} == {"dft", "kf", "gp"}
    for stem in ("trace", "estimates"):
        manifest = json.loads(
            (tmp_path / f"{stem}.csv.manifest.json").read_text())
        assert manifest["numpy"] == np.__version__
        assert manifest["scipy"] == scipy.__version__

    metrics = tmp_path / "metrics.json"
    rc = run(["evaluate", "--estimates", str(estimates),
              "--true-freq-hz", str(TRUE_FREQ_HZ),
              "--trace", str(trace), "--out", str(metrics)])
    assert rc == 0
    report = json.loads(metrics.read_text())
    assert set(report) == {"dft", "kf", "gp"}
    for method in report:
        assert report[method]["snr_db"] is not None
        assert report[method]["freq_mae_bpm"] >= 0.0
    assert (tmp_path / "metrics.json.manifest.json").exists()


def test_absolute_trace_gives_the_same_estimates(tmp_path):
    relative = simulate(tmp_path, "relative.csv",
                        ("--set", "baseline_dbm=-41.7"))
    absolute = simulate(tmp_path, "absolute.csv",
                        ("--set", "baseline_dbm=-41.7", "--absolute"))
    rel, ab = RssTrace.load_csv(relative), RssTrace.load_csv(absolute)
    assert np.array_equal(ab.times_s, rel.times_s)
    assert np.array_equal(ab.channel_ids, rel.channel_ids)
    assert np.array_equal(ab.values_db, rel.values_db + -41.7)
    for trace in (relative, absolute):
        assert run(["estimate", "--trace", str(trace), "--method", "all",
                    "--out", str(trace.with_suffix(".est.csv"))]) == 0
    want = (tmp_path / "relative.est.csv").read_text()
    assert want.count("\n") > 1000
    assert (tmp_path / "absolute.est.csv").read_text() == want


def test_simulate_is_deterministic_per_seed(tmp_path):
    first = simulate(tmp_path, "a.csv")
    second = simulate(tmp_path, "b.csv")
    assert first.read_text() == second.read_text()


def test_simulate_rejects_zero_duration(tmp_path, capsys):
    rc = run(["simulate", "--preset", "bed", "--set", "duration_s=0",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("overrides", [
    ["duration_s=0.01"],                 # rounds to no time step
    ["drop_prob=0.99", "duration_s=2"],  # seed 0 drops all 62 samples
], ids=["no-time-step", "all-dropped"])
def test_simulate_rejects_a_trace_without_samples(tmp_path, capsys,
                                                  overrides):
    out = tmp_path / "x.csv"
    sets = [arg for item in overrides for arg in ("--set", item)]
    assert run(["simulate", "--preset", "bed", *sets, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no samples" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("rate", ["5", "6"])
def test_simulate_refuses_a_rate_the_low_pass_cannot_filter(tmp_path, capsys,
                                                            rate):
    # the template's 3 Hz stopband edge must lie below Nyquist, or no
    # estimate could run on the trace
    out = tmp_path / "x.csv"
    assert run(["simulate", "--preset", "bed", "--set",
                f"sample_rate_hz={rate}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"stopband edge must be below Nyquist {int(rate) / 2} Hz" in err
    assert list(tmp_path.iterdir()) == []


def test_estimate_rejects_short_trace(tmp_path, capsys):
    trace = simulate(tmp_path, extra=("--set", "duration_s=10"))
    rc = run(["estimate", "--trace", str(trace), "--method", "dft",
              "--out", str(tmp_path / "est.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_dft_window_error_names_the_rate(tmp_path, capsys):
    # one stamp 0.1 ms after its predecessor makes the inferred rate
    # about 10 kHz, so a 30 s window outgrows n_dft
    trace = simulate(tmp_path)
    loaded = RssTrace.load_csv(trace)
    times = loaded.times_s.copy()
    times[100] = times[99] + 1e-4
    RssTrace(times, loaded.channel_ids, loaded.values_db).save_csv(trace)
    rate = nominal_rate_hz(times)
    capsys.readouterr()
    rc = run(["estimate", "--trace", str(trace), "--method", "dft",
              "--out", str(tmp_path / "est.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "n_dft (2048) must be at least the window length" in err
    # the dft's input is that trace resampled at the rate, and the dft
    # names the rate it infers from the resampled grid
    named = re.search(r"window_s=30\.0 at (\S+) Hz", err)
    assert named and float(named[1]) == pytest.approx(rate, rel=1e-9)


def test_estimate_writes_spectrogram(tmp_path):
    trace = simulate(tmp_path)
    est = tmp_path / "est.csv"
    spec = tmp_path / "spec.csv"
    rc = run(["estimate", "--trace", str(trace), "--method", "dft",
              "--out", str(est), "--spectrogram", str(spec)])
    assert rc == 0
    header, rows = read_rows(spec)
    assert header == "window_end_s,f_hz,psd"
    assert len(rows) > 100
    manifest = json.loads((tmp_path / "est.csv.manifest.json").read_text())
    assert str(spec) in manifest["outputs"]


def test_spectrogram_needs_dft(tmp_path, capsys):
    trace = simulate(tmp_path)
    rc = run(["estimate", "--trace", str(trace), "--method", "kf",
              "--out", str(tmp_path / "est.csv"),
              "--spectrogram", str(tmp_path / "spec.csv")])
    assert rc == 2
    assert "dft" in capsys.readouterr().err
    assert not (tmp_path / "est.csv").exists()


def test_shipped_example_config(tmp_path):
    out = tmp_path / "multi.csv"
    rc = run(["simulate", "--config", str(example_scenario_path()),
              "--set", "duration_s=5", "--out", str(out)])
    assert rc == 0
    trace = RssTrace.load_csv(out)
    assert len(trace.channels()) == 16


def test_estimate_handles_uneven_trace(tmp_path):
    trace = simulate(tmp_path, extra=("--set", "drop_prob=0.1"))
    t, _ = RssTrace.load_csv(trace).for_channel(0)
    assert np.unique(np.round(np.diff(t), 6)).size > 1
    est = tmp_path / "est.csv"
    rc = run(["estimate", "--trace", str(trace), "--method", "all",
              "--out", str(est)])
    assert rc == 0
    header, rows = read_rows(est)
    assert {row[1] for row in rows} == {"dft", "kf", "gp"}


def test_gp_locks_at_high_snr(tmp_path):
    trace = simulate(tmp_path, extra=("--set", "noise_std_db=0.05",
                                      "--set", "quantization_db=0"))
    est = tmp_path / "est.csv"
    assert run(["estimate", "--trace", str(trace), "--method", "gp",
                "--out", str(est)]) == 0
    _, rows = read_rows(est)
    final_hz = float(rows[-1][2])
    assert final_hz * 60 == pytest.approx(TRUE_FREQ_HZ * 60, abs=0.5)


def test_sweep_writes_expected_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "--preset", "bed", "--set", "duration_s=40",
              "--targets", "0", "--seeds", "2", "--methods", "dft",
              "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    assert header == "snr_db,method,hit_ratio_pct"
    assert rows[0][:2] == ["0.0", "dft"]
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert manifest["config"]["snr_targets_db"] == [0.0]


def test_sweep_takes_negative_targets_after_equals(tmp_path):
    # as in the README: "--targets -6,-4" would read -6,-4 as an option
    out = tmp_path / "sweep.csv"
    rc = run(["sweep", "--preset", "bed", "--set", "duration_s=40",
              "--targets=-6,-4", "--seeds", "1", "--methods", "dft",
              "--out", str(out)])
    assert rc == 0
    _, rows = read_rows(out)
    assert [row[:2] for row in rows] == [["-6.0", "dft"], ["-4.0", "dft"]]


def test_sweep_rejects_unknown_method(tmp_path, capsys):
    rc = run(["sweep", "--preset", "bed", "--targets", "0", "--seeds", "1",
              "--methods", "f162", "--out", str(tmp_path / "s.csv")])
    assert rc == 2
    assert "unknown methods" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--preset", "bed", "--targets", "0", "--seeds", "0"],
     "at least 1"),
    (["sweep", "--preset", "bed", "--targets", "0", "--seeds", "-1"],
     "at least 1"),
    (["sweep", "--preset", "bed", "--targets", "0", "--jobs", "0"],
     "at least 1"),
    (["sweep", "--preset", "bed", "--targets", "0", "--jobs", "-3"],
     "at least 1"),
    (["figures", "--which", "fig6c", "--seeds", "0"], "at least 1"),
    (["figures", "--seeds", "0"], "at least 1"),
    (["figures", "--jobs", "0"], "at least 1"),
    (["sweep", "--preset", "bed", "--targets", "nan", "--seeds", "1"],
     "finite"),
    (["sweep", "--preset", "bed", "--targets=-6,inf", "--seeds", "1"],
     "finite"),
    (["sweep", "--preset", "bed", "--targets", "", "--seeds", "1"],
     "could not convert"),
    (["sweep", "--preset", "bed", "--targets", "0", "--seeds", "1",
      "--methods", "dft,dft"], "repeated methods: ['dft']"),
], ids=["seeds0", "seeds-1", "jobs0", "jobs-3", "figures-seeds0",
        "figures-all-seeds0", "figures-all-jobs0", "targets-nan",
        "targets-inf", "targets-empty", "methods-repeated"])
def test_sweep_rejects_bad_sizes(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    rc = run([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("argv, names", [
    (["simulate", "--preset", "bed", "--set", "motion.breath_hz=0.3"],
     "motion.breath_hz"),
    (["estimate", "--set", "dftt.n_dft=4"], "dftt"),
    (["estimate", "--set", "dft.band_hz=[0.1]"], "dft.band_hz"),
    (["estimate", "--set", "gp.n_harmonics=1.5"], "gp.n_harmonics"),
    (["simulate", "--preset", "bed", "--set", "link.tx=[0,0,0]"], "link.tx"),
    (["simulate", "--preset", "bed", "--set", 'baseline_dbm="abc"'],
     "baseline_dbm"),
    (["simulate", "--preset", "bed", "--set", "duration_s=1" + "0" * 400],
     "duration_s"),
], ids=["unknown-field", "unknown-section", "short-pair", "fractional-int",
        "long-pair", "string-number", "huge-int"])
def test_bad_settings_exit_2_with_one_line(tmp_path, capsys, argv, names):
    if argv[0] == "estimate":
        argv = [*argv, "--trace", str(simulate(tmp_path))]
        capsys.readouterr()
    out = tmp_path / "out.csv"
    rc = run([*argv, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert names in err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["filter.stopband_atten_db=1e-300",
                                     "filter.passband_ripple_db=1e300",
                                     "filter.order=1000000000"])
def test_estimate_exits_2_on_a_filter_it_cannot_design(tmp_path, capsys,
                                                       setting):
    # the low-pass is the fixed template: any filter setting is refused
    # as an unknown section, before any design or estimate
    trace = simulate(tmp_path, extra=("--set", "duration_s=20"))
    capsys.readouterr()
    out = tmp_path / "est.csv"
    assert run(["estimate", "--trace", str(trace), "--method", "dft",
                "--set", setting, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown section 'filter'")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("setting, name", [
    ("gp.n_harmonics=171", "n_harmonics"),
    ("gp.n_harmonics=150", "n_harmonics"),
    ("gp.lengthscale=0.03", "lengthscale"),
], ids=["harmonics-171", "harmonics-150", "tiny-lengthscale"])
def test_gp_config_it_cannot_form_exits_2(tmp_path, capsys, setting, name):
    # initial variances or kernel weights the tracker cannot form: one
    # line naming the field, before any estimate, and no warning
    trace = simulate(tmp_path, extra=("--set", "duration_s=20"))
    capsys.readouterr()
    out = tmp_path / "est.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run(["estimate", "--trace", str(trace), "--method", "gp",
                  "--set", setting, "--out", str(out)])
    assert rc == 2 and not caught
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert name in err
    assert not out.exists()


def test_estimate_manifest_config_reproduces_estimates(tmp_path, capsys):
    trace = simulate(tmp_path, extra=("--set", "drop_prob=0.1"))
    first = tmp_path / "first.csv"
    assert run(["estimate", "--trace", str(trace), "--set", "dft.window_s=20",
                "--set", "gp.n_harmonics=1", "--out", str(first)]) == 0
    config = json.loads((tmp_path / "first.csv.manifest.json").read_text())[
        "config"]
    assert set(config) == {"dft", "kf", "gp"}
    assert config["dft"]["window_s"] == 20 and config["kf"]["n_bins"] == 75
    settings = tmp_path / "settings.json"
    settings.write_text(json.dumps(config))
    second = tmp_path / "second.csv"
    assert run(["estimate", "--trace", str(trace), "--config", str(settings),
                "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()
    assert json.loads((tmp_path / "second.csv.manifest.json").read_text())[
        "config"] == config
    # a manifest written before the low-pass was fixed also holds the
    # template, the dft's hop and gp's sigma-point parameters: refused
    # by the filter section's name
    capsys.readouterr()
    older = {"filter": {"order": 5, "passband_hz": 2.0, "stopband_hz": 3.0,
                        "passband_ripple_db": 0.05, "stopband_atten_db": 40.0},
             "dft": {**config["dft"], "hop_samples": 1},
             "kf": config["kf"],
             "gp": {**config["gp"], "ut_alpha": 0.1, "ut_beta": 2.0,
                    "ut_kappa": 0.0}}
    settings.write_text(json.dumps(older))
    third = tmp_path / "third.csv"
    assert run(["estimate", "--trace", str(trace), "--config", str(settings),
                "--out", str(third)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown section 'filter'")
    assert err.count("\n") == 1 and not third.exists()


def test_simulate_manifest_records_the_resolved_scenario(tmp_path):
    minimal = {"link": {"tx": [-1, 0], "rx": [1, 0]},
               "motion": {"rest": [0, 0.4]}, "duration_s": 5}
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(minimal))
    first = tmp_path / "first.csv"
    assert run(["simulate", "--config", str(config), "--out", str(first)]) == 0
    recorded = json.loads((tmp_path / "first.csv.manifest.json").read_text())[
        "config"]
    assert recorded["sample_rate_hz"] == 31.25
    assert recorded["medium"]["wavelength_m"] == 0.125
    config.write_text(json.dumps(recorded))
    second = tmp_path / "second.csv"
    assert run(["simulate", "--config", str(config), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


def check_figure(tmp_path, name):
    """``rssb figures --which name`` writes one non-empty CSV/SVG pair."""
    out = tmp_path / "figs"
    seeds = ["--seeds", "1"] if name == "fig6c" else []
    assert run(["figures", "--which", name, "--out", str(out), *seeds]) == 0
    manifest = out / "figures.manifest.json"
    outputs = json.loads(manifest.read_text())["outputs"]
    files = sorted(p for p in out.iterdir() if p != manifest)
    assert sorted(map(str, files)) == sorted(outputs)
    # one CSV and its SVG, both with content
    csv_path, svg_path = files
    assert csv_path.name.startswith(name) and csv_path.suffix == ".csv"
    assert svg_path == csv_path.with_suffix(".svg")
    header, rows = read_rows(csv_path)
    assert header and rows
    assert svg_path.read_text().rstrip().endswith("</svg>")


def test_figures_fig2c_smoke(tmp_path):
    check_figure(tmp_path, "fig2c")


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig6c"])
def test_figures_smoke(tmp_path, name):
    check_figure(tmp_path, name)


def test_bad_arguments_exit_via_argparse(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run(["simulate", "--preset", "garage", "--out", str(tmp_path / "x")])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit):
        run([])


def test_scenario_source_is_exclusive(tmp_path, capsys):
    rc = run(["simulate", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "exactly one" in capsys.readouterr().err
    rc = run(["simulate", "--preset", "bed",
              "--config", str(example_scenario_path()),
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_missing_config_file_is_reported(tmp_path, capsys):
    rc = run(["simulate", "--config", str(tmp_path / "nope.json"),
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_csv_value_exits_2(tmp_path, capsys, bad):
    trace = simulate(tmp_path)
    estimates = tmp_path / "estimates.csv"
    assert run(["estimate", "--trace", str(trace), "--method", "dft",
                "--out", str(estimates)]) == 0

    def spoil(path, column):
        lines = path.read_text().splitlines()
        fields = lines[100].split(",")
        fields[column] = bad
        lines[100] = ",".join(fields)
        spoiled = path.with_name("bad_" + path.name)
        spoiled.write_text("\n".join(lines) + "\n")
        return str(spoiled)

    evaluate = ["evaluate", "--true-freq-hz", str(TRUE_FREQ_HZ)]
    cases = [["estimate", "--trace", spoil(trace, 2), "--method", "dft"],
             [*evaluate, "--estimates", str(estimates),
              "--trace", spoil(trace, 2)],
             [*evaluate, "--estimates", spoil(estimates, 2)]]
    capsys.readouterr()
    for argv in cases:
        out = tmp_path / "out"
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "malformed row 101: values must be finite" in err
        assert not out.exists()


def test_trace_rows_out_of_time_order_exit_2(tmp_path, capsys):
    trace = simulate(tmp_path)
    lines = trace.read_text().splitlines()
    lines[100], lines[101] = lines[101], lines[100]
    swapped = tmp_path / "swapped.csv"
    swapped.write_text("\n".join(lines) + "\n")
    out = tmp_path / "est.csv"
    capsys.readouterr()
    assert run(["estimate", "--trace", str(swapped), "--method", "gp",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: {swapped}: timestamps of channel 0 are not "
                   "strictly increasing\n")
    assert not out.exists()


@pytest.mark.parametrize("rate", ["nan", "inf", "-inf", "-0.2"])
def test_evaluate_rejects_a_rate_that_is_not_finite_or_is_negative(
        tmp_path, capsys, rate):
    trace = simulate(tmp_path, extra=("--set", "duration_s=40"))
    estimates = tmp_path / "estimates.csv"
    assert run(["estimate", "--trace", str(trace), "--method", "dft",
                "--out", str(estimates)]) == 0
    capsys.readouterr()
    out = tmp_path / "metrics.json"
    assert run(["evaluate", "--estimates", str(estimates),
                f"--true-freq-hz={rate}", "--trace", str(trace),
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--true-freq-hz must be finite and non-negative" in err
    assert not out.exists()
    assert not (tmp_path / "metrics.json.manifest.json").exists()


def test_gp_runaway_exits_2_and_writes_nothing(tmp_path, capsys):
    # one sample of 1e50 makes gp's state run away: preprocess filters
    # the input less its mean, about 8e46, from rest and adds the mean
    # back, so the first samples are near 8e46, and the log-frequency
    # runs off at the first prediction.  dft and kf still give finite
    # rates on the same trace
    trace = simulate(tmp_path, extra=("--set", "duration_s=40"))
    lines = trace.read_text().splitlines()
    fields = lines[100].split(",")
    fields[2] = "1e50"
    lines[100] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    out = tmp_path / "est.csv"
    capsys.readouterr()
    assert run(["estimate", "--trace", str(trace), "--method", "all",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: gp: the tracker state ran away (a rate of 0) at "
                   "t = 0.032 s\n")
    assert not out.exists()
    assert not (tmp_path / "est.csv.manifest.json").exists()
    for method in ("dft", "kf"):
        assert run(["estimate", "--trace", str(trace), "--method", method,
                    "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert {row[1] for row in rows} == {method}
        assert np.isfinite([float(row[2]) for row in rows]).all()


# Samples a drawn scenario may hold per channel: duration_s * rate is at
# most this, so no draw allocates a huge trace.
MAX_SAMPLES = 6000


@st.composite
def cli_scenarios(draw):
    """``--set`` overrides of a preset over the CLI's scenario surface."""
    rate = draw(st.floats(5.0, 400.0))
    return draw(st.sampled_from(sorted(PRESETS))), {
        "sample_rate_hz": rate,
        "duration_s": draw(st.floats(0.0, MAX_SAMPLES / rate)),
        "noise_std_db": draw(st.floats(0.0, 1000.0)),
        "drop_prob": draw(st.floats(0.0, 0.95)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def run_quietly(argv):
    """Exit code and stderr lines of ``rssb argv``."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, err.getvalue().splitlines()


@settings(max_examples=40, deadline=None)
@given(drawn=cli_scenarios())
def test_any_simulated_trace_estimates_or_exits_2(drawn):
    # simulate, then estimate every method on what it wrote: each command
    # exits 0 with its outputs, or 2 with one line and no file of its own
    preset, overrides = drawn
    with tempfile.TemporaryDirectory() as tmp:
        trace, est = Path(tmp) / "trace.csv", Path(tmp) / "est.csv"
        sets = [arg for key, value in overrides.items()
                for arg in ("--set", f"{key}={value!r}")]
        rc, err = run_quietly(["simulate", "--preset", preset, *sets,
                               "--out", str(trace)])
        assert rc in (0, 2), err
        if rc == 2:
            assert len(err) == 1 and err[0].startswith("error:")
            assert list(Path(tmp).iterdir()) == []
            return
        rc, err = run_quietly(["estimate", "--trace", str(trace),
                               "--method", "all", "--out", str(est)])
        assert rc in (0, 2), err
        if rc == 2:
            assert len(err) == 1 and err[0].startswith("error:")
            assert not est.exists()
            assert not Path(f"{est}.manifest.json").exists()
            return
        _, rows = read_rows(est)
        assert {row[1] for row in rows} == {"dft", "kf", "gp"}
        assert np.isfinite([float(row[2]) for row in rows]).all()
