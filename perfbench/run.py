"""Benchmark of the projfree package: one workload per process.

    python3 perfbench/run.py --workload lsq-flagship --seed 0 --seconds 15 --trace 0

The program is imported from `src/` of the checkout that holds this file.
With `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
it runs untraced rounds first, then the same rounds with every layer call
wrapped in a span, and reports the per-layer metrics and the tracing
overhead.  Every end-to-end time is read on the reference clock of
calibration.py, which takes the host's changing speed out of wall time.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A full record of the run
goes to perfbench/results/.  See perfbench/README.md.
"""

import os

# Fixed BLAS threading for steady timings; must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "time_to_tol_s": "s",
    "iters_to_tol": "count",
    "iter_ms.p50": "ms",
    "iter_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "losses.gradient.calls": "count",
    "losses.gradient.ms": "ms",
    "losses.gradient.per_iter": "calls/iter",
    "losses.stochastic_gradient.calls": "count",
    "losses.stochastic_gradient.ms": "ms",
    "losses.evaluate.calls": "count",
    "losses.evaluate.ms": "ms",
    "optimizers.exact_line_search.calls": "count",
    "optimizers.exact_line_search.ms": "ms",
    "optimizers.exact_line_search.probes": "calls/search",
    "diagnostics.fw_gap.calls": "count",
    "diagnostics.fw_gap.ms": "ms",
    "diagnostics.fw_gap.share": "%",
    "optimizers.run.self_ms": "ms",
    "feasible_sets.lmo.calls": "count",
    "feasible_sets.lmo.self_ms": "ms",
    "feasible_sets.lmo.per_iter": "calls/iter",
    "feasible_sets.contains.calls": "count",
    "feasible_sets.contains.self_ms": "ms",
    "feasible_sets.project.calls": "count",
    "feasible_sets.project.ms": "ms",
    "numerics.svd.calls": "count",
    "numerics.svd.ms": "ms",
    "numerics.svd.per_iter": "calls/iter",
    "numerics.lp_norm.calls": "count",
    "trace.write_trace.ms": "ms",
    "trace.read_trace.ms": "ms",
    "trace.bytes": "bytes",
    "datasets.gen.ms": "ms",
    "problems.build.ms": "ms",
    "losses.smoothness.ms": "ms",
}

# Warm-up runs use this fraction of each run's iterations.
WARMUP_DIVISOR = 10
# At least this many measured rounds, so reruns can be compared.
MIN_ROUNDS = 2


def import_program():
    """Import projfree from this checkout's src/, and nowhere else."""
    pkg = ROOT / "src" / "projfree"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: program source not found at {pkg}")
    sys.path.insert(0, str(pkg.parent))
    import projfree

    if Path(projfree.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported projfree from {projfree.__file__}, not {pkg}")


class Ledger:
    """Operations attempted and failed.  An operation is one optimizer run
    or one correctness check.  A check that returns False marks the output
    wrong; one that raises counts as failed without a verdict."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.errors = []

    def run(self, name, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # a failed operation is reported, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            return None

    def check(self, name, fn):
        self.attempted += 1
        try:
            ok = bool(fn())
        except Exception as exc:  # a check that cannot run is a failed operation
            self.failed += 1
            self.errors.append(f"{name}: {exc!r}")
            return
        if not ok:
            self.failed += 1
            self.wrong.append(name)


class Recorder:
    """on_iterate hook: a raw timestamp, the iterate and the search
    direction of every iteration, and, when given a speed log, a
    calibration run whenever one is due (after the timestamp, so the
    reference clock does not count it).  The optimizers build fresh arrays
    each iteration, so keeping references is safe."""

    def __init__(self, speed=None):
        self.stamps = []
        self.points = []
        self.dirs = []
        self.speed = speed

    def __call__(self, snap):
        self.stamps.append(time.perf_counter())
        self.points.append(snap.w)
        self.dirs.append(snap.p)
        if self.speed is not None:
            self.speed.calibrate_if_due()


@dataclass
class RunResult:
    label: str
    kind: str
    trace: object
    points: list
    dirs: list
    stamps: list  # raw perf_counter readings, one per iteration
    t0: float  # raw reading at the call
    t1: float  # raw reading after the trace was written
    path: Path
    nbytes: int
    spans: tuple


class Bench:
    def __init__(self, workload, workdir: Path, tracer=None):
        from projfree.trace import read_trace, write_trace

        self.wl = workload
        self.workdir = workdir
        self.ledger = Ledger()
        self.tracer = tracer
        self.read_trace, self.write_trace = read_trace, write_trace
        self.reference_bytes = {}  # label -> (bytes, must match exactly)
        self.speed = calibration.SpeedLog()

    # -- set-up ------------------------------------------------------------

    def setups(self, traced: bool, workload=None):
        """Run a workload's set-up setup_reps times (by default the measured
        workload's, whose objects the rounds then use); return the
        reference-clock seconds of each and, when traced, the per-layer
        set-up figures of each."""
        import tracing

        wl = workload or self.wl
        seconds, figures = [], []
        for _ in range(wl.setup_reps):
            lo = len(self.tracer) if traced else 0
            self.speed.calibrate()
            t0 = time.perf_counter()
            if traced:
                with tracing.patched(self.tracer, setup_targets()):
                    with self.tracer.span("problems.build"):
                        wl.setup()
            else:
                wl.setup()
            t1 = time.perf_counter()
            self.speed.calibrate()
            seconds.append(self.speed.seconds(t0, t1))
            if traced:
                s = self.tracer.summary(lo)
                figures.append({
                    "datasets.gen.ms": _get(s, "datasets.gen", "total_s") * 1e3,
                    "losses.smoothness.ms": _get(s, "losses.smoothness", "total_s") * 1e3,
                    "problems.build.ms": _get(s, "problems.build", "self_s") * 1e3,
                })
        return seconds, figures

    # -- one round -----------------------------------------------------------

    def solve_round(self, divisor: int = 1, traced: bool = False):
        """Every run of the workload once, each trace written to disk, with
        the calibration kernel run before and after each run and, in an
        untraced process, inside it whenever due (a traced process keeps it
        out of the spans).  Returns (results by label, solve seconds on the
        reference clock)."""
        results, solve = {}, 0.0
        for run in self.wl.runs():
            iters = max(2, run.iters // divisor)
            rec = Recorder(self.speed if self.tracer is None else None)
            path = self.workdir / f"{run.label}.csv"
            lo = len(self.tracer) if traced else 0
            span_end = [lo]

            def call(run=run, iters=iters, rec=rec, path=path, span_end=span_end):
                if traced:
                    with self.tracer.span("optimizers.run"):
                        trace = run.call(iters, rec)
                    span_end[0] = len(self.tracer)
                    self.tracer.wrap("trace.write_trace", self.write_trace)(trace, path)
                else:
                    trace = run.call(iters, rec)
                    self.write_trace(trace, path)
                return trace

            self.speed.calibrate()
            t0 = time.perf_counter()
            trace = self.ledger.run(run.label, call)
            t1 = time.perf_counter()
            self.speed.calibrate()
            solve += self.speed.seconds(t0, t1)
            if trace is not None:
                results[run.label] = RunResult(
                    run.label, run.kind, trace, rec.points, rec.dirs, rec.stamps,
                    t0, t1, path, path.stat().st_size, (lo, span_end[0]),
                )
        return results, solve

    def warm_up(self):
        """Shortened round: loads code paths and caches, and records each
        trace's bytes as the prefix that full reruns must reproduce."""
        results, _ = self.solve_round(divisor=WARMUP_DIVISOR)
        for label, res in results.items():
            self.reference_bytes[label] = (res.path.read_bytes(), False)

    def check_round(self, results, twins=None):
        """Generic checks on every run, then the workload's own checks."""
        read = self.read_trace
        if self.tracer is not None and twins is not None:
            read = self.tracer.wrap("trace.read_trace", self.read_trace)
        for label, res in results.items():
            self.ledger.check(f"{label}: trace reads back equal",
                              lambda: read(res.path).records_equal(res.trace))
            data = res.path.read_bytes()
            ref, exact = self.reference_bytes.get(label, (None, False))
            self.ledger.check(
                f"{label}: same-seed rerun writes identical bytes",
                lambda: data == ref if exact else data.startswith(ref))
            self.reference_bytes[label] = (data, True)
            if twins is not None:
                self.ledger.check(
                    f"{label}: traced trace equals untraced trace",
                    lambda: res.trace.records_equal(twins[label].trace))
        self.wl.check(self.ledger, results)

    def rounds(self, seconds: float, summarize, traced: bool = False, twins=None):
        """Measured rounds, each checked and summarized as soon as it ends,
        until `seconds` of wall time have passed since the first began (at
        least MIN_ROUNDS).  A round's outputs are then dropped, so memory
        does not grow with the number of rounds.  Returns (summaries,
        results of the first round)."""
        summaries, first = [], None
        start = time.perf_counter()
        while len(summaries) < MIN_ROUNDS or time.perf_counter() - start < seconds:
            lo = len(self.tracer) if self.tracer is not None else 0
            if traced:
                import tracing

                with tracing.patched(self.tracer, layer_targets(self.wl)):
                    results, _ = self.solve_round(traced=True)
            else:
                results, _ = self.solve_round()
            self.check_round(results, twins)
            hi = len(self.tracer) if self.tracer is not None else 0
            summaries.append(summarize(results, (lo, hi)))
            first = first or results
        return summaries, first


def _get(summary, name, key):
    return summary.get(name, {}).get(key, 0)


def setup_targets():
    """Functions the set-up reaches, patched where their callers find them."""
    from projfree import datasets, losses, problems

    return [
        (problems, "gen_regression", "datasets.gen"),
        (problems, "gen_classification", "datasets.gen"),
        (problems, "standardize", "datasets.gen"),
        (datasets, "gen_regression", "datasets.gen"),
        (datasets, "gen_lowrank", "datasets.gen"),
        (losses, "estimate_smoothness", "losses.smoothness"),
        (losses.QuadraticLoss, "exact_smoothness", "losses.smoothness"),
    ]


def layer_targets(wl):
    """Layer entry points of a round.  Loss and set methods are wrapped on
    the workload's own instances; a tilted loss reaches its base loss's
    methods, so the wrappers see every evaluation without changing the
    tilted loss's type."""
    from projfree import feasible_sets, optimizers

    targets = [
        (feasible_sets, "svd", "numerics.svd"),
        (feasible_sets, "lp_norm", "numerics.lp_norm"),
        (optimizers, "fw_gap", "diagnostics.fw_gap"),
        (optimizers, "exact_line_search", "optimizers.exact_line_search"),
    ]
    loss_objs, set_objs = wl.layer_objects()
    for loss in loss_objs:
        for method in ("evaluate", "gradient", "stochastic_gradient"):
            targets.append((loss, method, f"losses.{method}"))
    for region in set_objs:
        for method in ("lmo", "contains", "project"):
            targets.append((region, method, f"feasible_sets.{method}"))
    return targets


# ---------------------------------------------------------------------------
# figures


def round_end_to_end(wl, speed, results):
    """Per run of one round, on the reference clock: its time, the time
    from its call to the on_iterate hook of the first iteration that meets
    its target, that iteration, and (for runs of the workload's timed kind)
    the time of each iteration after the first."""
    import checks
    import numpy as np

    targets = wl.targets(results)
    out = {}
    for label, res in results.items():
        k = checks.first_reach(res.trace.loss_f, targets[label]) or len(res.stamps)
        t0, t1, reach = speed.to_reference([res.t0, res.t1, res.stamps[k - 1]])
        steps = (np.diff(speed.to_reference(res.stamps)) * 1e3
                 if res.kind == wl.timed_kind else None)
        out[label] = (t1 - t0, reach - t0, k, steps)
    return out


def median_sum(per_round, field: int = 0) -> float:
    """Sum over the runs of a round of each run's median over rounds; each
    round maps a run label to a tuple of figures."""
    return float(sum(statistics.median(r[label][field] for r in per_round)
                     for label in per_round[0]))


def _run_seconds(speed, results):
    return {label: (speed.seconds(res.t0, res.t1),) for label, res in results.items()}


def end_to_end_figures(per_round):
    """Figures of a run from its rounds, all times on the reference clock.
    Rounds repeat identical computation, so each run's time and each
    iteration's time is taken as its median over the rounds: `solve_s` and
    `time_to_tol_s` sum the runs' medians, and `iter_ms` takes percentiles
    over the timed kind's iterations of their medians.  A round that the
    host's speed changes skew as a whole then moves no figure."""
    import numpy as np

    labels = list(per_round[0])
    timed = [label for label in labels if per_round[0][label][3] is not None]
    steps = np.concatenate(
        [np.median([r[label][3] for r in per_round], axis=0) for label in timed])
    iters = [sum(r[label][2] for label in labels) for r in per_round]
    return {
        "solve_s": median_sum(per_round, 0),
        "time_to_tol_s": median_sum(per_round, 1),
        "iters_to_tol": iters[0],
        "iter_ms.p50": float(np.percentile(steps, 50)),
        "iter_ms.p90": float(np.percentile(steps, 90)),
    }, {
        "iter_ms.iterations": int(steps.size),
        "rounds": len(per_round),
        "iters_to_tol.rounds": iters,
        "solve_s.rounds": [sum(r[label][0] for label in labels) for r in per_round],
        "time_to_tol_s.rounds": [sum(r[label][1] for label in labels) for r in per_round],
    }


def layer_figures(tracer, wl, results, span_range):
    """Per-layer figures of one traced round: calls and times over all its
    runs, `per_iter` over the runs of the workload's timed kind only."""
    s = tracer.summary(*span_range)
    timed = [r for r in results.values() if r.kind == wl.timed_kind]
    timed_iters = sum(len(r.trace) for r in timed)
    timed_calls = {}
    for res in timed:
        for name, entry in tracer.summary(*res.spans).items():
            timed_calls[name] = timed_calls.get(name, 0) + entry["calls"]

    def calls(name):
        return _get(s, name, "calls")

    def ms(name, key="total_s"):
        return _get(s, name, key) * 1e3

    def per_iter(name):
        return timed_calls.get(name, 0) / timed_iters

    searches = calls("optimizers.exact_line_search")
    probes = s.get("optimizers.exact_line_search", {}).get("children", {}).get(
        "losses.evaluate", 0)
    run_s = _get(s, "optimizers.run", "total_s")
    return {
        "losses.gradient.calls": calls("losses.gradient"),
        "losses.gradient.ms": ms("losses.gradient"),
        "losses.gradient.per_iter": per_iter("losses.gradient"),
        "losses.stochastic_gradient.calls": calls("losses.stochastic_gradient"),
        "losses.stochastic_gradient.ms": ms("losses.stochastic_gradient"),
        "losses.evaluate.calls": calls("losses.evaluate"),
        "losses.evaluate.ms": ms("losses.evaluate"),
        "optimizers.exact_line_search.calls": searches,
        "optimizers.exact_line_search.ms": ms("optimizers.exact_line_search"),
        "optimizers.exact_line_search.probes": probes / searches if searches else 0.0,
        "diagnostics.fw_gap.calls": calls("diagnostics.fw_gap"),
        "diagnostics.fw_gap.ms": ms("diagnostics.fw_gap"),
        "diagnostics.fw_gap.share": 100.0 * _get(s, "diagnostics.fw_gap", "total_s") / run_s,
        "optimizers.run.self_ms": ms("optimizers.run", "self_s"),
        "feasible_sets.lmo.calls": calls("feasible_sets.lmo"),
        "feasible_sets.lmo.self_ms": ms("feasible_sets.lmo", "self_s"),
        "feasible_sets.lmo.per_iter": per_iter("feasible_sets.lmo"),
        "feasible_sets.contains.calls": calls("feasible_sets.contains"),
        "feasible_sets.contains.self_ms": ms("feasible_sets.contains", "self_s"),
        "feasible_sets.project.calls": calls("feasible_sets.project"),
        "feasible_sets.project.ms": ms("feasible_sets.project"),
        "numerics.svd.calls": calls("numerics.svd"),
        "numerics.svd.ms": ms("numerics.svd"),
        "numerics.svd.per_iter": per_iter("numerics.svd"),
        "numerics.lp_norm.calls": calls("numerics.lp_norm"),
        "trace.write_trace.ms": ms("trace.write_trace"),
        "trace.read_trace.ms": ms("trace.read_trace"),
        "trace.bytes": sum(r.nbytes for r in results.values()),
    }


def median_figures(per_round):
    """Median of each figure over rounds; counts are kept as integers."""
    out = {}
    for name in per_round[0]:
        values = [fig[name] for fig in per_round]
        med = statistics.median(values)
        out[name] = int(med) if all(isinstance(v, int) for v in values) else float(med)
    return out


# ---------------------------------------------------------------------------


def measure_end_to_end(bench, seed, seconds):
    # Set-ups are timed before the first round and again after every round
    # (on a spare instance), and setup_s is the median of them.
    setup_s, _ = bench.setups(traced=False)
    spare = type(bench.wl)()
    bench.wl.prepare(seed)
    bench.warm_up()

    def summarize(results, _):
        figures = round_end_to_end(bench.wl, bench.speed, results)
        setup_s.extend(bench.setups(traced=False, workload=spare)[0])
        return figures

    per_round, _ = bench.rounds(seconds, summarize)
    figures, detail = end_to_end_figures(per_round)
    figures["setup_s"] = statistics.median(setup_s)
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail["setup_s.reps"] = setup_s
    print(f"iter_ms over {detail['iter_ms.iterations']} '{bench.wl.timed_kind}' iterations, "
          f"each the median of {len(per_round)} rounds; setup_s over {len(setup_s)} set-ups; "
          f"{len(bench.speed.starts)} calibrations, all times on the reference clock")
    return {name: figures[name] for name in END_TO_END}, detail


def measure_per_layer(bench, seed, seconds):
    _, setup_figs = bench.setups(traced=True)
    bench.wl.prepare(seed)
    bench.warm_up()
    plain, twins = bench.rounds(seconds / 2.0, lambda res, _: _run_seconds(bench.speed, res))
    traced = bench.rounds(
        seconds / 2.0,
        lambda res, span: (_run_seconds(bench.speed, res),
                           layer_figures(bench.tracer, bench.wl, res, span)),
        traced=True, twins=twins)[0]
    per_round = [fig for _, fig in traced]
    counts = [{k: v for k, v in fig.items() if k.endswith(".calls") or k == "trace.bytes"}
              for fig in per_round]
    bench.ledger.check("per-layer call counts repeat in every traced round",
                       lambda: all(c == counts[0] for c in counts))
    figures = median_figures(per_round)
    figures.update(median_figures(setup_figs))
    plain_s = median_sum(plain)
    traced_s = median_sum([seconds for seconds, _ in traced])
    print(f"tracing overhead: solve_s traced {traced_s:.4f} s - untraced {plain_s:.4f} s "
          f"= {traced_s - plain_s:+.4f} s ({100.0 * (traced_s / plain_s - 1.0):+.1f}%)")
    detail = {"solve_s.untraced": plain_s, "solve_s.traced": traced_s,
              "tracing_overhead_s": traced_s - plain_s, "traced_rounds": len(traced)}
    return {name: figures[name] for name in PER_LAYER}, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]()
    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"traces-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    tracer = tracing.Tracer() if args.trace else None
    bench = Bench(wl, workdir, tracer)
    try:
        if args.trace:
            metrics, detail = measure_per_layer(bench, args.seed, args.seconds)
            units = PER_LAYER
        else:
            metrics, detail = measure_end_to_end(bench, args.seed, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = bench.ledger
    for note in wl.notes():
        print(note)
    for name, value in metrics.items():
        print(f"{name:40s} {value!r} {units[name]}")
    for line in ledger.wrong + ledger.errors:
        print(f"FAILED {line}")
    result = {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, detail=detail, notes=wl.notes(),
                  wrong=ledger.wrong, errors=ledger.errors)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.csv")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
