"""rssb benchmark: seeded workloads through the package's public layers.

Run from the root of a checkout of the repository:

    python3 benchmark/run.py --workload dropped-16ch --seed 1 --seconds 20 --trace 0

Every run builds its inputs from ``--seed``, imports ``rssb`` from the
checkout's ``src`` directory and sets the package up.  It then scores
work items in a closed loop (one at a time, ``jobs=1``) for
``--seconds`` seconds and at least one full pass over the seeded items.
Every estimate series is checked; a failed check makes the run exit
with code 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
item once untraced and once inside spans, alternating, and reports the
per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, accuracy fingerprint,
sample counts, errors) goes to ``benchmark/_out/``.  See
``benchmark/README.md``.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

from spans import Tracer

# numpy and rssb are imported inside functions, after set_up starts its
# clock, so that setup_s includes their import.

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"

# Single-threaded BLAS on every run and every host: the estimators work
# on matrices of at most 151 x 151, and one trace runs at a time.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 3  # the run's own set-up plus two in fresh interpreters
METHODS = ("dft", "kf", "gp")


class CheckError(Exception):
    """An output of the package failed a benchmark check."""


def import_rssb():
    """Import ``rssb`` from this checkout's ``src``, never from elsewhere."""
    pkg = SRC / "rssb"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from a checkout "
                         "of the repository")
    sys.path.insert(0, str(SRC))
    import rssb
    if Path(rssb.__file__).resolve().parent != pkg:
        raise SystemExit(f"error: imported rssb from {rssb.__file__}, "
                         f"not from {pkg}")
    return rssb


# --- layers and workloads --------------------------------------------------

class Layers:
    """The public rssb calls the workloads make, each optionally in a span."""

    def __init__(self, rssb, tracer=None):
        self.traced = tracer is not None
        wrap = tracer.wrap if tracer else (lambda _name, fn, count=None: fn)
        self.synthesize = wrap("simulator.synthesize", rssb.synthesize)
        self.save_csv = wrap("simulator.csv.save", rssb.RssTrace.save_csv)
        self.load_csv = wrap("simulator.csv.load", rssb.RssTrace.load_csv)
        self.preprocess = wrap("dsp.preprocess", rssb.preprocess)
        self.resample_uniform = wrap("dsp.resample_uniform",
                                     rssb.resample_uniform)
        self.estimate = {
            "dft": wrap("estimators.dft", rssb.dft_estimate, count=len),
            "kf": wrap("estimators.kf", rssb.kf_estimate, count=len),
            "gp": wrap("estimators.gp", rssb.gp_estimate, count=len),
        }
        self.compute_metrics = wrap("evaluation.compute_metrics",
                                    rssb.compute_metrics)
        self.snr_sweep = wrap("evaluation.snr_sweep", rssb.snr_sweep)


@dataclass
class Call:
    """One estimator call, reduced to what the checks and counts need."""

    method: str
    f_hat: object  # ndarray
    expected_len: int
    counts: dict


@dataclass
class Outcome:
    """Result of one work item: one trace, or one sweep call of several."""

    traces: int
    calls: list = field(default_factory=list)    # checked, then counted
    hits: dict = field(default_factory=dict)     # method -> late hit ratios, %
    outputs: dict = field(default_factory=dict)  # method -> arrays to hash


class Workload:
    """A seeded list of work items and the pipeline that scores one item."""

    name = ""
    items_per_pass = 0
    traces_per_item = 1

    def __init__(self, rssb, seed):
        import numpy as np
        self.rssb = rssb
        self.dft_cfg = rssb.DftConfig()
        self.settle_s = rssb.evaluation.SPLIT_S
        self.items = [int(s) for s in np.random.SeedSequence(seed)
                      .generate_state(self.items_per_pass)]

    def warm_up(self, layers) -> Outcome:
        """Score one trace, untimed, before measuring."""
        return self.run(self.items[0], layers)

    def run(self, item, layers) -> Outcome:
        raise NotImplementedError

    def close(self):
        pass

    def reduce(self, method, series, n_in, rate_hz):
        """Keep f_hat, its expected length and the counts of one series.

        Counts read from ``aux`` are skipped when the key is absent, so
        that a change to the diagnostics does not fail the run.
        """
        f = series.f_hat_hz
        band = self.dft_cfg.band_hz
        aux = series.aux
        counts = {"steps": len(f)}
        expected = n_in
        if method == "dft":
            expected = n_in - self.dft_cfg.window_samples(rate_hz) + 1
            if "freq_hz" in aux:
                freqs = aux["freq_hz"]
                in_band = (freqs >= band[0]) & (freqs <= band[1])
                in_band[0] = False  # the estimator never searches the DC bin
                counts["inband_bins"] = int(in_band.sum())
                counts["bins"] = len(freqs)
            if "psd" in aux:
                counts["psd_bytes"] = int(aux["psd"].nbytes)
        if method == "gp":
            if "recondition_count" in aux:
                counts["recondition"] = int(aux["recondition_count"])
            counts["out_of_band"] = int(((f < band[0]) | (f > band[1])).sum())
        return Call(method, f, expected, counts)

    def score(self, layers, series, n_in, rate_hz, true_hz):
        """compute_metrics and the late hit ratio of each method's series."""
        out = Outcome(traces=1)
        for method, s in series.items():
            report = layers.compute_metrics(s, true_hz)
            if not (math.isfinite(report.freq_mae_bpm)
                    and 0 <= report.hit_ratio_pct <= 100):
                raise CheckError(f"{method}: bad metrics report {report}")
            _, late = s.after(self.settle_s)
            out.hits[method] = [self.rssb.hit_ratio_pct(late, true_hz)]
            out.calls.append(self.reduce(method, s, n_in[method], rate_hz))
            out.outputs[method] = [s.f_hat_hz]
        return out


class Dropped16ch(Workload):
    """Bundled 16-channel example with drops, through a CSV round trip.

    Mirrors ``rssb simulate`` then ``rssb estimate``: channel 0 of the
    loaded trace is resampled for the dft; kf and gp take the raw,
    uneven timestamps.
    """

    name = "dropped-16ch"
    items_per_pass = 6

    def __init__(self, rssb, seed):
        super().__init__(rssb, seed)
        self.scenario = replace(
            rssb.load_scenario(rssb.example_scenario_path()), drop_prob=0.1)
        OUT.mkdir(exist_ok=True)
        self.csv_path = OUT / f"dropped-16ch-{os.getpid()}.csv"
        self.csv_bytes = []

    def run(self, item, layers):
        r = self.rssb
        trace = layers.synthesize(self.scenario, seed=item)
        layers.save_csv(trace, self.csv_path)
        loaded = layers.load_csv(self.csv_path)
        if len(loaded.times_s) != len(trace.times_s):
            raise CheckError(f"CSV round trip kept {len(loaded.times_s)} of "
                             f"{len(trace.times_s)} rows")
        self.csv_bytes.append(self.csv_path.stat().st_size)
        t, values = loaded.for_channel(loaded.channels()[0])
        rate_hz = loaded.nominal_rate_hz()
        t_grid, v_grid = layers.resample_uniform(t, values, rate_hz)
        y, _ = layers.preprocess(v_grid, r.FilterSpec(), rate_hz)
        _, z = layers.preprocess(values, r.FilterSpec(), rate_hz)
        series = {"dft": layers.estimate["dft"](t_grid, y, self.dft_cfg),
                  "kf": layers.estimate["kf"](t, z, r.KfConfig()),
                  "gp": layers.estimate["gp"](t, z, r.GpConfig())}
        n_in = {"dft": len(t_grid), "kf": len(t), "gp": len(t)}
        return self.score(layers, series, n_in, rate_hz,
                          self.scenario.motion.breath_freq_hz)

    def close(self):
        self.csv_path.unlink(missing_ok=True)


class SnrSweep(Workload):
    """``snr_sweep`` on a reduced grid over the unquantized bed preset.

    Each item is one sweep call whose template has its own seeded
    breathing rate; ``snr_sweep`` draws the noise of its cells from
    seeds 0..SEEDS_PER_SNR-1 itself.  One cell is one trace.

    ``snr_sweep`` returns hit ratios only, so untraced runs check and
    hash those.  Traced runs also reach the estimate series it scores,
    through the names ``rssb.evaluation`` looks up; a name it no longer
    uses is left alone, so that restructuring the sweep fails nothing.
    """

    name = "snr-sweep"
    items_per_pass = 4
    SNR_DB = (-18.0, -12.0, -6.0)
    SEEDS_PER_SNR = 2
    BREATH_HZ = (0.2, 0.3)
    traces_per_item = len(SNR_DB) * SEEDS_PER_SNR

    def warm_up(self, layers):
        return self.sweep(self.items[0], self.SNR_DB[:1], 1, layers)

    def run(self, item, layers):
        return self.sweep(item, self.SNR_DB, self.SEEDS_PER_SNR, layers)

    def sweep(self, item, snr_db, n_seeds, layers):
        import numpy as np
        breath_hz = np.random.default_rng(item).uniform(*self.BREATH_HZ)
        template = replace(self.rssb.bed_scenario(breath_freq_hz=breath_hz),
                           quantization_db=0.0)
        out = Outcome(traces=len(snr_db) * n_seeds)
        with self.patched_evaluation(layers, out.calls,
                                     template.sample_rate_hz):
            rows = layers.snr_sweep(template, snr_db, n_seeds=n_seeds,
                                    methods=METHODS, jobs=1)
        want = [(s, m) for s in snr_db for m in METHODS]
        if [(row["snr_db"], row["method"]) for row in rows] != want:
            raise CheckError(f"sweep rows {rows} do not cover {want}")
        for row in rows:
            if not 0 <= row["hit_ratio_pct"] <= 100:
                raise CheckError(f"hit ratio out of range in {row}")
            out.hits.setdefault(row["method"], []).append(row["hit_ratio_pct"])
        out.outputs = {m: [np.array(h)] for m, h in out.hits.items()}
        return out

    @contextmanager
    def patched_evaluation(self, layers, calls, rate_hz):
        """Route the layer calls inside ``snr_sweep`` through ``layers``.

        Each estimate series the sweep scores is also reduced into
        ``calls``, so that the benchmark can check it.
        """
        if not layers.traced:
            yield
            return
        ev = self.rssb.evaluation

        def capture(method, fn):
            def call(times_s, *args, **kwargs):
                series = fn(times_s, *args, **kwargs)
                calls.append(self.reduce(method, series, len(times_s),
                                         rate_hz))
                return series
            return call

        patch = {"synthesize": layers.synthesize,
                 "preprocess": layers.preprocess,
                 **{f"{m}_estimate": capture(m, layers.estimate[m])
                    for m in METHODS}}
        saved = {name: getattr(ev, name) for name in patch
                 if hasattr(ev, name)}
        patch = {name: patch[name] for name in saved}
        for name, fn in patch.items():
            setattr(ev, name, fn)
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(ev, name, fn)


WORKLOADS = {w.name: w for w in (SnrSweep, Dropped16ch)}


# --- checks ----------------------------------------------------------------

def check(outcome):
    """Every estimate series finite and of the expected length."""
    import numpy as np
    for call in outcome.calls:
        if len(call.f_hat) != call.expected_len:
            raise CheckError(f"{call.method}: {len(call.f_hat)} estimates, "
                             f"expected {call.expected_len}")
        if not np.all(np.isfinite(call.f_hat)):
            raise CheckError(f"{call.method}: non-finite estimates")
    if sorted(outcome.outputs) != sorted(METHODS):
        raise CheckError(f"outputs for {sorted(outcome.outputs)}, "
                         f"expected {sorted(METHODS)}")


def fingerprint(outcomes):
    """sha256 of each method's outputs over the given items, in order.

    The outputs are f_hat for the single-trace workloads and the hit
    ratio rows for ``snr-sweep``.
    """
    out = {}
    for method in METHODS:
        h = hashlib.sha256()
        for outcome in outcomes:
            for array in outcome.outputs[method]:
                h.update(array.tobytes())
        out[method] = h.hexdigest()
    return out


# --- environment -----------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_ENV},
    }


# --- running ---------------------------------------------------------------

def set_up(workload_cls, seed):
    """Import rssb, build the workload and score one warm-up trace."""
    t0 = time.perf_counter()
    rssb = import_rssb()
    workload = workload_cls(rssb, seed)
    try:
        check(workload.warm_up(Layers(rssb)))
    except BaseException:
        workload.close()
        raise
    return rssb, workload, time.perf_counter() - t0


def set_up_in_fresh_interpreter(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


class Loop:
    """Closed loop over the workload's items with failure accounting."""

    def __init__(self, workload, seconds):
        self.workload = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.tracebacks = []
        self.first_pass = {}  # item index -> Outcome
        self.digests = {}     # item index -> fingerprint of its outputs

    def items(self):
        """Yield (index, item) until a full pass is done and time is up."""
        items = self.workload.items
        start = time.perf_counter()
        i = 0
        while i < len(items) or time.perf_counter() - start < self.seconds:
            yield i % len(items), items[i % len(items)]
            i += 1

    def run_one(self, index, item, layers):
        """Run and check one item: (seconds, Outcome), or None if it failed."""
        t0 = time.perf_counter()
        try:
            outcome = self.workload.run(item, layers)
            elapsed = time.perf_counter() - t0
            check(outcome)
            d = fingerprint([outcome])
            if self.digests.setdefault(index, d) != d:
                raise CheckError("estimates differ from the first pass")
        except Exception as exc:  # any layer raising fails the item's traces
            self.attempted += self.workload.traces_per_item
            self.failed += self.workload.traces_per_item
            self.errors.append(f"item {index}: {type(exc).__name__}: {exc}")
            self.tracebacks.append(traceback.format_exc())
            return None
        self.attempted += outcome.traces
        self.first_pass.setdefault(index, outcome)
        return elapsed, outcome


def run_untraced(workload, layers, seconds, setup_samples):
    loop = Loop(workload, seconds)
    per_trace = []
    start = time.perf_counter()
    for index, item in loop.items():
        done = loop.run_one(index, item, layers)
        if done:
            per_trace.append(done[0] / done[1].traces)
    wall = time.perf_counter() - start

    hits = {m: [] for m in METHODS}
    for outcome in loop.first_pass.values():
        for method, values in outcome.hits.items():
            hits[method].extend(values)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "traces_per_s": ((loop.attempted - loop.failed) / wall, "1/s"),
        "trace_s_p50": (statistics.median(per_trace) if per_trace else wall,
                        "s"),
        "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
    }
    for method in METHODS:
        metrics[f"hit_ratio_pct.{method}"] = (
            statistics.fmean(hits[method]) if hits[method] else 0.0, "%")
    notes = {"setup_samples_s": setup_samples,
             "trace_s_samples": len(per_trace), "trace_s": per_trace,
             "wall_s": wall}
    return loop, metrics, notes


def run_traced(rssb, workload, seconds):
    """Each item once untraced and once traced, alternating."""
    tracer = Tracer()
    plain, traced = Layers(rssb), Layers(rssb, tracer)
    loop = Loop(workload, seconds)
    t_plain = t_traced = 0.0
    traced_pass = {}  # item index -> Outcome of its first traced run
    for trace_id, (index, item) in enumerate(loop.items()):
        untraced = loop.run_one(index, item, plain)
        t0 = time.perf_counter()
        with tracer.trace(trace_id):
            done = loop.run_one(index, item, traced)
        if done:
            traced_pass.setdefault(index, done[1])
        if untraced and done:
            t_plain += untraced[0]
            t_traced += time.perf_counter() - t0
    try:
        tracer.check_self_times()
    except RuntimeError as exc:
        loop.errors.append(f"spans: {exc}")
    return loop, tracer, layer_metrics(workload, traced_pass.values(),
                                       tracer, t_plain, t_traced)


def layer_metrics(workload, outcomes, tracer, t_plain, t_traced):
    """Per-layer metrics: self times from the spans, counts over one pass."""
    own = tracer.self_times()
    self_s = {}
    for sp in tracer.spans:
        self_s.setdefault(sp.name, []).append(own[sp.span_id])

    def median_s(span_name):
        return statistics.median(self_s.get(span_name, [0.0]))

    outcomes = list(outcomes)
    calls = [c for o in outcomes for c in o.calls]

    def total(method, key):
        return sum(c.counts.get(key, 0) for c in calls if c.method == method)

    m = {}
    for method in METHODS:
        m[f"estimators.{method}.s"] = (median_s(f"estimators.{method}"), "s")
        m[f"estimators.{method}.calls"] = (
            sum(1 for c in calls if c.method == method), "count")
        m[f"estimators.{method}.steps"] = (total(method, "steps"), "count")
    for method in ("kf", "gp"):
        spans = [sp for sp in tracer.spans if sp.name == f"estimators.{method}"]
        busy = sum(own[sp.span_id] for sp in spans)
        steps = sum(sp.count for sp in spans)
        m[f"estimators.{method}.us_per_step"] = (
            1e6 * busy / steps if steps else 0.0, "us")
    m["estimators.dft.windows"] = (total("dft", "steps"), "count")
    m["estimators.dft.inband_bin_ratio"] = (
        total("dft", "inband_bins") / max(1, total("dft", "bins")), "ratio")
    m["estimators.dft.psd_bytes"] = (
        max((c.counts.get("psd_bytes", 0) for c in calls if c.method == "dft"),
            default=0), "bytes-computed")
    n_bins = workload.rssb.KfConfig().n_bins
    m["estimators.kf.cov_bytes_per_step"] = ((2 * n_bins + 1) ** 2 * 8,
                                             "bytes-computed")
    checks = sum(2 * c.counts["steps"] - 1 for c in calls if c.method == "gp")
    m["estimators.gp.recondition_fired_ratio"] = (
        total("gp", "recondition") / max(1, checks), "ratio")
    m["estimators.gp.out_of_band_steps"] = (total("gp", "out_of_band"),
                                            "count")
    m["simulator.synthesize.s"] = (median_s("simulator.synthesize"), "s")
    m["simulator.csv.save_s"] = (median_s("simulator.csv.save"), "s")
    m["simulator.csv.load_s"] = (median_s("simulator.csv.load"), "s")
    csv_bytes = getattr(workload, "csv_bytes", [])
    m["simulator.csv.bytes"] = (max(csv_bytes, default=0), "bytes")
    m["dsp.preprocess.s"] = (median_s("dsp.preprocess"), "s")
    m["dsp.resample_uniform.s"] = (median_s("dsp.resample_uniform"), "s")
    m["evaluation.compute_metrics.s"] = (
        median_s("evaluation.compute_metrics"), "s")
    m["evaluation.snr_sweep.s"] = (median_s("evaluation.snr_sweep"), "s")
    m["evaluation.snr_sweep.cells"] = (
        sum(o.traces for o in outcomes)
        if workload.name == "snr-sweep" else 0, "count")
    m["trace.overhead_pct"] = (
        100.0 * (t_traced / t_plain - 1.0) if t_plain else 0.0, "%")
    return m


# --- entry point -----------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(
        description="Run one seeded rssb benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="minimum measured time; a run also completes "
                        "at least one full pass over its items")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer metrics")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # set up once, print its seconds
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    rssb, workload, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    try:
        if args.setup_probe:
            print(repr(setup_s))
            return 0
        if args.trace:
            loop, tracer, metrics = run_traced(rssb, workload, args.seconds)
            notes = {}
        else:
            samples = [setup_s] + [set_up_in_fresh_interpreter(args)
                                   for _ in range(SETUP_SAMPLES - 1)]
            loop, metrics, notes = run_untraced(workload, Layers(rssb),
                                                args.seconds, samples)
    finally:
        workload.close()

    first_pass = [loop.first_pass.get(i) for i in range(len(workload.items))]
    complete = None not in first_pass
    correct = complete and loop.failed == 0 and not loop.errors
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "attempted": loop.attempted, "failed": loop.failed,
        "failed_share": loop.failed / max(1, loop.attempted),
        "errors": loop.errors[:20],
        "tracebacks": loop.tracebacks[:5],
        "fingerprint_sha256": fingerprint(first_pass) if complete else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **notes,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)
    if args.trace:
        tracer.write(OUT / f"spans-{stem}.json")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment", json.dumps(record["environment"]))
    print("f_hat sha256", json.dumps(record["fingerprint_sha256"]))
    for error in record["errors"]:
        print("FAILED", error)
    print(f"{'attempted':<40} {loop.attempted} traces")
    print(f"{'failed_share':<40} {record['failed_share']:.6g}")
    if not args.trace:
        print(f"{'trace_s_p50 samples':<40} {notes['trace_s_samples']} traces")
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
