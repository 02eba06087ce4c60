"""Command-line front end.

Typical round trip::

    rssb simulate --preset bed --seed 3 --out trace.csv
    rssb estimate --trace trace.csv --method all --out estimates.csv
    rssb evaluate --estimates estimates.csv --true-freq-hz 0.2 \\
        --trace trace.csv --out metrics.json
    rssb sweep --preset bed --seeds 5 --jobs 4 --out sweep.csv
    rssb figures --which fig3a --out figs/

Every command writes a manifest next to its primary output
(``<out>.manifest.json``) recording the argv, the fully resolved
configuration, the seed, the numpy and scipy versions and the produced
files, so any artifact can be regenerated from the manifest alone.

Exit codes: 0 on success, 2 when inputs fail validation (bad flags,
malformed config or CSV, unknown preset), 1 on unexpected runtime
errors.
"""

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np
import scipy

from . import __version__
from .config import from_dict, to_dict
from .estimators import EstimateSeries
from .evaluation import (DEFAULT_SNR_TARGETS_DB, compute_metrics,
                         snr_estimate, snr_sweep, write_sweep_csv)
from .figures import FIGURES
from .pipeline import ESTIMATORS, check_rate, estimate, spectral_input
from .presets import PRESETS, preset_scenario
from .simulator import (RssTrace, read_csv_columns, scenario_from_dict,
                        synthesize)

ESTIMATES_HEADER = "time_s,method,f_hat_hz"
METHODS = tuple(ESTIMATORS)


# --- shared plumbing --------------------------------------------------------

def _config_data(args, base):
    """The JSON object of --config, else ``base``, after --set overrides.

    Each override is a dotted key and a value decoded as JSON when
    possible, otherwise kept as a raw string, so ``--set seed=7`` and
    ``--set model=frozen`` both work.
    """
    data = base
    if args.config:
        with open(args.config) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{args.config}: expected a JSON object")
    for item in args.overrides:
        key, sep, raw = item.partition("=")
        if not sep or not key:
            raise ValueError(f"override {item!r} is not of the form key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        *parents, name = key.split(".")
        node = data
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"cannot descend into {part!r} of override {key!r}")
        node[name] = value
    return data


def _resolve_scenario(args):
    """Scenario from --preset or --config plus --set/--seed overrides."""
    if bool(args.preset) == bool(args.config):
        raise ValueError("exactly one of --preset or --config is required")
    base = to_dict(preset_scenario(args.preset)) if args.preset else None
    data = _config_data(args, base)
    if args.seed is not None:
        data["seed"] = args.seed
    return scenario_from_dict(data)


def _estimator_settings(args):
    """Per-method configs by section name, from --config and --set;
    absent sections and fields take their defaults."""
    classes = {method: cls for method, (_, cls) in ESTIMATORS.items()}
    data = _config_data(args, {})
    unknown = sorted(set(data) - set(classes))
    if unknown:
        raise ValueError(f"unknown section {unknown[0]!r}; "
                         f"have {sorted(classes)}")
    return {name: from_dict(cls, data.get(name, {}), name)
            for name, cls in classes.items()}


def _write_manifest(primary_out, command, config, seed, outputs):
    manifest = {
        "command": command,
        "argv": sys.argv[1:],
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "config": config,
        "outputs": [str(p) for p in outputs],
    }
    path = f"{primary_out}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=float)
        fh.write("\n")
    return path


def _pick_channel(trace, requested):
    if requested is None:
        return trace.channels()[0]
    if requested not in trace.channels():
        raise ValueError(f"channel {requested} not present; trace has {trace.channels()}")
    return requested


# --- subcommands ------------------------------------------------------------

def cmd_simulate(args):
    scenario = _resolve_scenario(args)
    check_rate(scenario.sample_rate_hz)  # a trace no estimate can filter
    trace = synthesize(scenario)
    if len(trace.times_s) == 0:  # such a file would not load
        raise ValueError("the scenario draws no samples "
                         f"(duration_s {scenario.duration_s}, "
                         f"drop_prob {scenario.drop_prob})")
    if args.absolute:
        trace.values_db += scenario.baseline_dbm
    trace.save_csv(args.out)
    _write_manifest(args.out, "simulate", to_dict(scenario), scenario.seed,
                    [args.out])
    print(f"wrote {len(trace.times_s)} samples on "
          f"{len(trace.channels())} channel(s) to {args.out}")


def cmd_estimate(args):
    trace = RssTrace.load_csv(args.trace)
    channel = _pick_channel(trace, args.channel)
    t, values = trace.for_channel(channel)
    settings = _estimator_settings(args)
    methods = METHODS if args.method == "all" else (args.method,)
    if args.spectrogram and "dft" not in methods:  # before anything is written
        raise ValueError("--spectrogram requires the dft method")
    results = estimate(t, values, trace.nominal_rate_hz(), methods, settings)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ESTIMATES_HEADER.split(","))
        for method in methods:
            series = results[method]
            for k in range(len(series)):
                writer.writerow([f"{series.times_s[k]:.6f}", method,
                                 f"{series.f_hat_hz[k]:.9g}"])
    outputs = [args.out]

    if args.spectrogram:
        series = results["dft"]  # psd holds the search band only
        with open(args.spectrogram, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["window_end_s", "f_hz", "psd"])
            for k, end_s in enumerate(series.times_s):
                for f, p in zip(series.aux["freq_hz"], series.aux["psd"][k]):
                    writer.writerow([f"{end_s:.6f}", f"{f:.9g}", f"{p:.9g}"])
        outputs.append(args.spectrogram)

    _write_manifest(args.out, "estimate",
                    {name: to_dict(cfg) for name, cfg in settings.items()},
                    None, outputs)
    n = sum(len(s) for s in results.values())
    print(f"wrote {n} estimates ({', '.join(methods)}) to {args.out}")


def _load_estimates(path):
    times, methods, f_hat = read_csv_columns(
        path, ESTIMATES_HEADER, "no estimates found", (float, str, float))
    table = {}
    for row in zip(methods, times, f_hat):
        table.setdefault(row[0], []).append(row[1:])
    return {method: np.asarray(rows).T for method, rows in table.items()}


def cmd_evaluate(args):
    if not (math.isfinite(args.true_freq_hz) and args.true_freq_hz >= 0):
        raise ValueError("--true-freq-hz must be finite and non-negative, "
                         f"got {args.true_freq_hz}")
    estimates = _load_estimates(args.estimates)
    snr_db = None
    if args.trace:
        trace = RssTrace.load_csv(args.trace)
        t, values = trace.for_channel(_pick_channel(trace, args.channel))
        fs = trace.nominal_rate_hz()
        _, (y,) = spectral_input(t, [values], fs)
        snr_db = snr_estimate(y, fs, args.true_freq_hz)

    report = {}
    for method in sorted(estimates):
        times, f_hat = estimates[method]
        series = EstimateSeries(method=method, times_s=times,
                                f_hat_hz=f_hat, aux={})
        report[method] = compute_metrics(series, args.true_freq_hz,
                                         snr_db=snr_db).to_dict()
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, default=float)
        fh.write("\n")
    _write_manifest(args.out, "evaluate",
                    {"true_freq_hz": args.true_freq_hz}, None, [args.out])
    for method in sorted(report):
        print(f"{method}: mae {report[method]['freq_mae_bpm']:.3f} bpm, "
              f"hit ratio {report[method]['hit_ratio_pct']:.1f}%")


def cmd_sweep(args):
    scenario = _resolve_scenario(args)
    targets = ([float(x) for x in args.targets.split(",")]
               if args.targets is not None else list(DEFAULT_SNR_TARGETS_DB))
    methods = tuple(args.methods.split(","))
    rows = snr_sweep(scenario, targets, n_seeds=args.seeds, methods=methods,
                     jobs=args.jobs)
    write_sweep_csv(rows, args.out)
    config = {"scenario": to_dict(scenario), "snr_targets_db": targets,
              "n_seeds": args.seeds, "methods": list(methods)}
    _write_manifest(args.out, "sweep", config, None, [args.out])
    print(f"wrote {len(rows)} sweep rows to {args.out}")


def cmd_figures(args):
    if min(args.seeds, args.jobs) < 1:  # before anything is written
        raise ValueError("--seeds and --jobs must be at least 1")
    os.makedirs(args.out, exist_ok=True)
    names = list(FIGURES) if args.which == "all" else [args.which]
    outputs = []
    for name in names:
        if name == "fig6c":
            outputs.extend(FIGURES[name](args.out, n_seeds=args.seeds,
                                         jobs=args.jobs))
        else:
            outputs.extend(FIGURES[name](args.out))
        print(f"{name}: done")
    config = {"which": names, "n_seeds": args.seeds}
    _write_manifest(os.path.join(args.out, "figures"), "figures", config,
                    None, outputs)


# --- parser -----------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="rssb",
        description="Breathing-rate simulation and estimation from RSS traces.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scenario_opts = argparse.ArgumentParser(add_help=False)
    scenario_opts.add_argument("--preset", choices=sorted(PRESETS),
                               help="built-in scenario name")
    scenario_opts.add_argument("--config", help="scenario JSON file")
    scenario_opts.add_argument("--seed", type=int, default=None,
                               help="override the scenario seed")
    scenario_opts.add_argument("--set", dest="overrides", action="append",
                               default=[], metavar="KEY=VALUE",
                               help="override a config field "
                                    "(dotted path, JSON-encoded value)")

    p = sub.add_parser("simulate", parents=[scenario_opts],
                       help="synthesize an RSS trace CSV")
    p.add_argument("--out", required=True, help="output trace CSV")
    p.add_argument("--absolute", action="store_true",
                   help="write absolute dBm using the scenario baseline")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="run estimators on a trace CSV")
    p.add_argument("--trace", required=True, help="input trace CSV")
    p.add_argument("--channel", type=int, default=None,
                   help="channel id (default: first present)")
    p.add_argument("--method", choices=METHODS + ("all",), default="all")
    p.add_argument("--config", help="estimator settings JSON "
                                    "(sections dft/kf/gp)")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override an estimator setting")
    p.add_argument("--out", required=True, help="output estimates CSV")
    p.add_argument("--spectrogram", help="also write the dft spectrogram CSV")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="score estimates against a known rate")
    p.add_argument("--estimates", required=True, help="estimates CSV")
    p.add_argument("--true-freq-hz", type=float, required=True)
    p.add_argument("--trace", help="trace CSV for the SNR characterization")
    p.add_argument("--channel", type=int, default=None)
    p.add_argument("--out", required=True, help="output metrics JSON")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[scenario_opts],
                       help="hit ratio across an injected-SNR grid")
    p.add_argument("--targets", help="comma-separated SNR targets in dB, "
                                     "e.g. --targets=-18,-12,-6 "
                                     "(default -18..-4 step 2)")
    p.add_argument("--seeds", type=int, default=25,
                   help="seeds per SNR target")
    p.add_argument("--methods", default="dft,kf,gp")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")
    p.add_argument("--out", required=True, help="output sweep CSV")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="regenerate the model figures")
    p.add_argument("--which", choices=("all",) + tuple(FIGURES), default="all")
    p.add_argument("--seeds", type=int, default=10,
                   help="seeds for the sweep figure")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_figures)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, KeyError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
