#!/usr/bin/env python3
"""circleact benchmark: seeded workloads driven through ``circleact.cli.main``.

    python3 perfbench/run.py --workload classify_ladder --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Each request calls ``circleact.cli.main(argv)`` in this process, with stdin
and stdout replaced by in-memory buffers, one request at a time (a closed
loop with one client).  The package is imported from ``src/`` next to this
directory; without it the benchmark exits 2 and prints no result.

``--trace 0`` measures the end-to-end metrics for ``--seconds`` seconds.
``--trace 1`` runs the workload's scaling probes, then serves the first
``TRACE_ROUNDS`` rounds of requests untraced and once more with every function
in ``tracing.FUNCTIONS`` wrapped, and reports the per-layer metrics.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs every workload in its own
process and prints a table instead.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate
import tracing
import verdicts
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
SETUP_REPEATS = 5  # set-up (import + input generation) is timed this often
TRACE_ROUNDS = 3  # a traced run serves this many rounds, untraced and then traced
COMMANDS = ("check", "classify", "graphs", "reduce", "oracle")
FIRST_FAIL_CHECKS = (
    "weight_parity",
    "parity_dimension",
    "uniform_weight_balance",
    "smallest_weights",
    "abbv_integral_one",
    "signature_constant",
    "congruence_pairing",
)

END_TO_END = {
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


# --- set-up --------------------------------------------------------------------

def load_package():
    """Import circleact afresh from SRC; returns the package and its cli."""
    for name in [n for n in sys.modules if n == "circleact" or n.startswith("circleact.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("circleact")
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"circleact imported from {pkg.__file__}, not from {SRC}")
    return pkg, importlib.import_module("circleact.cli")


def setup(workload: str, seed: int):
    """Import plus input generation, repeated; returns the median calibrated
    time, the last import and its inputs."""
    times, probes = [], []
    for _ in range(SETUP_REPEATS):
        probes.append(calibrate.probe())
        start = time.perf_counter()
        pkg, cli = load_package()
        rounds = workloads.build(pkg, workload, seed)
        times.append(time.perf_counter() - start)
    probes.append(calibrate.probe())
    # Park the inputs outside the collector, so a full collection during a
    # request costs what it would in a one-shot CLI process.
    gc.collect()
    gc.freeze()
    return statistics.median(calibrate.calibrate(times, probes)), pkg, cli, rounds


# --- serving requests ----------------------------------------------------------

class Tally:
    def __init__(self):
        self.latencies: list[float] = []
        self.by_command: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.units = 0
        self.busy = 0.0
        self.errors: list[str] = []
        self.probes: list[float] = []  # calibration probe before each latency

    def record(self, req, elapsed, error) -> None:
        self.attempted += 1
        if elapsed is not None:
            self.latencies.append(elapsed)
            self.by_command.setdefault(req.command, []).append(elapsed)
            self.busy += elapsed
        if error is None:
            self.units += req.expect.units
        else:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{' '.join(req.argv)}: {error}")


def invoke(main, req):
    """One CLI call with in-memory stdin/stdout/stderr: (exit code, stdout, s)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(req.stdin), io.StringIO(), io.StringIO()
    try:
        start = time.perf_counter()
        try:
            rc = main(list(req.argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        return rc, sys.stdout.getvalue(), time.perf_counter() - start
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def serve(cli, req, tally: Tally, tracer=None) -> None:
    elapsed = error = None
    span = tracer.begin(tracer.name_id(f"cli.{req.command}")) if tracer else None
    try:
        rc, out, elapsed = invoke(cli.main, req)
    except Exception as exc:  # the run goes on; the request counts as failed
        error = f"raised {exc!r}"
    finally:
        if tracer:
            tracer.finish(span)
    if error is None:
        try:
            req.expect.verify(rc, out)
        except Exception as exc:  # unparseable output counts as a wrong verdict
            error = f"{type(exc).__name__}: {exc}"
    tally.record(req, elapsed, error)


def requests_forever(rounds):
    while True:
        for r in rounds:
            yield from r


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_run(cli, requests, seconds: float) -> Tally:
    """Closed loop for `seconds` or until `requests` runs out; stops early
    when the mean request would overrun, so a run of long requests ends
    close to its budget."""
    if tracing.installed_wrappers():
        raise RuntimeError("tracing wrappers left in place before an untraced run")
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for req in requests:
        now = time.perf_counter()
        mean = tally.busy / len(tally.latencies) if tally.latencies else 0.0
        if now >= deadline or now + mean > deadline:
            break
        speed = calibrate.probe()
        served = len(tally.latencies)
        serve(cli, req, tally)
        if len(tally.latencies) > served:
            tally.probes.append(speed)
    tally.probes.append(calibrate.probe())
    return tally


def end_to_end(tally: Tally, setup_s: float) -> dict:
    """Timings are calibrated to the nominal machine speed (calibrate.py);
    the raw ones go to stderr."""
    raw = tally.latencies
    lat = calibrate.calibrate(raw, tally.probes)
    beyond = sum(1 for x in lat if x > percentile(lat, 95))
    print(
        f"{len(lat)} latency samples, {beyond} beyond p95; "
        f"fail_ratio {tally.failed / tally.attempted:.4f} ({tally.failed}/{tally.attempted}); "
        f"raw throughput {tally.units / tally.busy:.4g}/s, p50 {statistics.median(raw) * 1000:.4g} ms, "
        f"p95 {percentile(raw, 95) * 1000:.4g} ms; "
        f"calibration kernel median {statistics.median(tally.probes) * 1000:.4g} ms",
        file=sys.stderr,
    )
    values = {
        "throughput_per_s": tally.units / sum(lat),
        "p50_ms": statistics.median(lat) * 1000,
        "p95_ms": percentile(lat, 95) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


# --- traced run ----------------------------------------------------------------

def _chain(pkg, steps):
    return pkg.data(*workloads.trace_points(workloads.split_chain(steps)))


def _union(pkg, *parts):
    out = parts[0]
    for d in parts[1:]:
        out = pkg.disjoint_union(out, d)
    return out


# Untraced library calls on fixed inputs, re-measuring the scaling baseline in
# ROADMAP.md: (metric, unit, repeats, call, result check).
PROBES = {
    "classify_ladder": [
        ("classify.classify_6d4fp.ms_by_max_weight.18", "ms", 5,
         lambda p: p.classify_6d4fp(p.gen_cp3(5, 6, 7)), lambda r: (5, 6, 7) in r.case2_params()),
        ("classify.classify_6d4fp.ms_by_max_weight.63", "ms", 3,
         lambda p: p.classify_6d4fp(p.gen_cp3(20, 21, 22)), lambda r: (20, 21, 22) in r.case2_params()),
        ("classify.membership_4d.ms_by_points.52", "ms", 5,
         lambda p: p.membership_4d(_chain(p, 50)), lambda r: r.classified),
        ("classify.membership_4d.ms_by_points.202", "ms", 3,
         lambda p: p.membership_4d(_chain(p, 200)), lambda r: r.classified),
    ],
    "unions": [
        ("series.signature_exact.ms_by_points.4", "ms", 5,
         lambda p: p.signature_exact(p.gen_cp3(1, 2, 3)), lambda r: r.is_constant),
        ("series.signature_exact.ms_by_points.16", "ms", 3,
         lambda p: p.signature_exact(_union(p, p.gen_cp3(1, 2, 3), p.gen_blowup(1, 1, 2),
                                            p.gen_cp3(2, 1, 3), p.gen_cp3(1, 3, 2))),
         lambda r: r.is_constant),
        ("rewrite.reduce_to_empty.ms_by_points.6", "ms", 5,
         lambda p: p.reduce_to_empty(p.collection_from_data(
             _union(p, p.gen_s6(1, 2, 3), p.gen_cp3(1, 2, 3)))),
         lambda r: hasattr(r, "moves")),
        ("rewrite.reduce_to_empty.ms_by_points.10", "ms", 3,
         lambda p: p.reduce_to_empty(p.collection_from_data(
             _union(p, p.gen_s6(2, 3, 5), p.gen_cp3(1, 2, 3), p.gen_blowup(2, 1, 3)))),
         lambda r: hasattr(r, "moves")),
    ],
    "oracle": [
        ("sweep.sweep.s_by_max_weight.3", "s", 1,
         lambda p: p.sweep.sweep(4, 3, 3), lambda r: len(r) == 8855),
        ("sweep.sweep.s_by_max_weight.4", "s", 1,
         lambda p: p.sweep.sweep(4, 3, 4), lambda r: len(r) == workloads.ORACLE_ROWS),
    ],
}
PROBE_METRICS = [(name, unit) for probes in PROBES.values() for name, unit, *_ in probes]


def run_probes(pkg, workload: str, tally: Tally) -> dict:
    """{metric: (median time, unit)} for the workload's probes."""
    out = {}
    for name, unit, repeats, call, ok in PROBES[workload]:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            result = call(pkg)
            times.append(time.perf_counter() - start)
        tally.attempted += 1
        if not ok(result):
            tally.failed += 1
            tally.errors.append(f"probe {name} gave a wrong result")
        out[name] = (statistics.median(times) * (1000 if unit == "ms" else 1), unit)
    return out


class WorkCounters:
    """Counts taken from the arguments and results of traced calls."""

    def __init__(self):
        self.graphs = 0
        self.matchings = 0
        self.trace_moves = 0
        self.first_fail: Counter = Counter()

    def observers(self) -> dict:
        return {
            "multigraph.enumerate_admissible": self._graphs,
            "rewrite.reduce_to_empty": self._reduction,
            "sweep.sweep": self._sweep,
        }

    def _graphs(self, args, graphs) -> None:
        self.graphs += len(graphs)
        self.matchings += verdicts.perfect_matchings(
            [(p.sign,) + tuple(p.weights) for p in args[0].points]
        )

    def _reduction(self, args, result) -> None:
        self.trace_moves += len(getattr(result, "moves", ()))

    def _sweep(self, args, rows) -> None:
        for row in rows:
            if row.failed_checks:
                self.first_fail[row.failed_checks[0].split("(")[0]] += 1


def traced_run(pkg, cli, workload: str, seed: int, rounds) -> tuple[Tally, dict]:
    tally = Tally()
    metrics = {name: (0, unit) for name, unit in PROBE_METRICS}
    metrics.update(run_probes(pkg, workload, tally))

    requests = [req for r in rounds[:TRACE_ROUNDS] for req in r]
    untraced = timed_run(cli, requests, float("inf"))
    tracer, counters = tracing.Tracer(), WorkCounters()
    missing = tracer.install(counters.observers())
    if missing:
        print(f"note: not in the package, reported as 0: {', '.join(missing)}", file=sys.stderr)
    traced = Tally()
    try:
        for i, req in enumerate(requests):
            tracer.request_id = i
            serve(cli, req, traced, tracer)
    finally:
        tracer.uninstall()

    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_DIR / f"{workload}-seed{seed}.tsv")
    names = [tracer.names[i] for i in tracer.name]
    summary = tracing.summarize(names, tracer.start, tracer.end, tracer.parent)

    for name in tracing.TRACED:
        calls, self_s, total_s = summary.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.total_s"] = (total_s, "s")
    for layer in tracing.LAYERS:
        self_s = sum(v[1] for k, v in summary.items() if k.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (self_s, "s")
    for command in COMMANDS:
        lat = untraced.by_command.get(command)
        metrics[f"cli.{command}.p50_ms"] = (statistics.median(lat) * 1000 if lat else 0, "ms")

    def calls(name):
        return summary.get(name, (0,))[0]

    apply_calls = calls("rewrite.apply_move")
    metrics["classify.case2_candidates"] = (calls("classify.cp3_template"), "count")
    metrics["rewrite.states_expanded"] = (calls("rewrite.applicable_moves"), "count")
    metrics["rewrite.useful_move_ratio"] = (
        counters.trace_moves / apply_calls if apply_calls else 0, "ratio")
    metrics["multigraph.kept_ratio"] = (
        counters.graphs / counters.matchings if counters.matchings else 0, "ratio")
    for check in FIRST_FAIL_CHECKS:
        metrics[f"sweep.first_fail.{check}"] = (counters.first_fail[check], "count")
    metrics["trace.overhead_ratio"] = (traced.busy / untraced.busy, "ratio")

    for t in (traced, untraced):
        tally.attempted += t.attempted
        tally.failed += t.failed
        tally.errors += t.errors
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# --- entry points ----------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in its own process; prints one table."""
    worst = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode:
            print(f"{workload}: exit {proc.returncode}")
            worst = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} "
              f"fail_ratio={result['failed'] / result['attempted']:.4f}")
        for name, m in result["metrics"].items():
            print(f"  {name:58s} {m['value']:>14.6g} {m['unit']}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        setup_s, pkg, cli, rounds = setup(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import circleact from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        tally, metrics = traced_run(pkg, cli, args.workload, args.seed, rounds)
    else:
        tally = timed_run(cli, requests_forever(rounds), args.seconds)
        metrics = end_to_end(tally, setup_s)
        if len(rounds) > 1 and tally.attempted > sum(len(r) for r in rounds):
            print("note: the generated requests were used more than once", file=sys.stderr)
    for error in tally.errors:
        print(f"wrong: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
