#!/usr/bin/env python3
"""Self-tests of the benchmark itself: python3 perfbench/selftest.py"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

import calibrate
import run
import tracing
import verdicts
import workloads
from verdicts import VerdictError

PETRIE = ((1, 7, 2, 3), (-1, 7, 2, 3), (1, 5, 2, 3), (-1, 5, 2, 3))
CP3_123 = ((1, 1, 3, 6), (-1, 1, 2, 5), (1, 2, 3, 3), (-1, 3, 5, 6))
NEG1 = ((1, 2, 4, 1), (1, 2, 3, 1), (-1, 4, 3, 2), (-1, 1, 1, 2))
NEG2 = ((1, 3, 5, 1), (1, 3, 4, 2), (-1, 5, 4, 2), (-1, 1, 2, 2))


def request(argv, points, expect):
    return workloads.Request(("--json",) + tuple(argv) + ("-",), workloads.render(points, False), expect)


class SelfTime(unittest.TestCase):
    def test_nested_trace(self):
        #  root [0, 10]
        #    a [1, 6]
        #      b [2, 3]
        #      a [4, 5]   (recursive: counted in self time, not twice in total)
        #    b [7, 9]
        names = ["root", "a", "b", "a", "b"]
        starts = [0.0, 1.0, 2.0, 4.0, 7.0]
        ends = [10.0, 6.0, 3.0, 5.0, 9.0]
        parents = [-1, 0, 1, 1, 0]
        out = tracing.summarize(names, starts, ends, parents)
        self.assertEqual(out["root"], (1, 3.0, 10.0))
        self.assertEqual(out["a"], (2, 3.0 + 1.0, 5.0))
        self.assertEqual(out["b"], (2, 1.0 + 2.0, 3.0))
        self_total = sum(v[1] for v in out.values())
        self.assertEqual(self_total, 10.0)  # self times partition the root span


class Calibration(unittest.TestCase):
    def test_times_scale_with_the_local_kernel_time(self):
        nominal = calibrate.NOMINAL_S
        same = calibrate.calibrate([0.1, 0.2], [nominal] * 3)
        self.assertAlmostEqual(same[0], 0.1)
        self.assertAlmostEqual(same[1], 0.2)
        # a machine running at half speed: kernel and request both take twice as long
        slow = calibrate.calibrate([0.2] * 20, [2 * nominal] * 21)
        self.assertTrue(all(abs(t - 0.1) < 1e-12 for t in slow))
        # the speed is local: a slow stretch late in the run leaves early times alone
        mixed = calibrate.calibrate([0.1] * 30, [nominal] * 15 + [2 * nominal] * 16)
        self.assertAlmostEqual(mixed[0], 0.1)
        self.assertAlmostEqual(mixed[-1], 0.05)
        with self.assertRaises(ValueError):
            calibrate.calibrate([0.1], [nominal])


class Wrapping(unittest.TestCase):
    def setUp(self):
        self.pkg, self.cli = run.load_package()

    def test_install_binds_every_copy_and_uninstall_restores(self):
        pkg = self.pkg
        original = pkg.series.signature_exact
        tracer = tracing.Tracer()
        self.assertEqual(tracer.install(), [])
        try:
            for holder in (pkg, pkg.series, pkg.constraints):
                self.assertTrue(hasattr(holder.signature_exact, tracing.WRAPPED))
            pkg.constraints.run_all(pkg.gen_cp3(1, 2, 3))
        finally:
            tracer.uninstall()
        self.assertEqual(tracing.installed_wrappers(), [])
        self.assertIs(pkg.signature_exact, original)
        self.assertIs(pkg.constraints.signature_exact, original)
        spans = list(tracer.spans())
        names = [s[0] for s in spans]
        sig = spans[names.index("series.signature_exact")]
        self.assertEqual(names[sig[3]], "constraints.check_signature_constant")

    def test_untraced_run_holds_no_wrappers(self):
        req = request(["classify"], CP3_123, verdicts.Classify(CP3_123, "Case2", {"a": 1, "b": 2, "c": 3}))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with self.assertRaises(RuntimeError):
                run.timed_run(self.cli, [req], float("inf"))
        finally:
            tracer.uninstall()
        tally = run.timed_run(self.cli, [req], float("inf"))
        self.assertEqual((tally.attempted, tally.failed), (1, 0))

    def test_traced_run_reports_every_per_layer_metric(self):
        req = request(["classify"], CP3_123, verdicts.Classify(CP3_123, "Case2", {"a": 1, "b": 2, "c": 3}))
        saved = run.PROBES, run.TRACE_DIR
        with tempfile.TemporaryDirectory() as tmp:
            run.PROBES, run.TRACE_DIR = {**run.PROBES, "classify_ladder": []}, Path(tmp)
            try:
                tally, metrics = run.traced_run(self.pkg, self.cli, "classify_ladder", 0, [[req]])
            finally:
                run.PROBES, run.TRACE_DIR = saved
        self.assertEqual(tracing.installed_wrappers(), [])
        self.assertEqual((tally.attempted, tally.failed), (2, 0))
        self.assertEqual(metrics["classify.classify_6d4fp.calls"]["value"], 1)
        self.assertGreater(metrics["classify.case2_candidates"]["value"], 0)
        bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(sorted(m["name"] for m in bench["per_layer"]), sorted(metrics))
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         {k: v["unit"] for k, v in metrics.items()})


class ExpectedVerdicts(unittest.TestCase):
    """The verdict oracle on known fixtures, against the real CLI."""

    def setUp(self):
        _, self.cli = run.load_package()

    def serve(self, argv, points, expect):
        rc, out, _ = run.invoke(self.cli.main, request(argv, points, expect))
        expect.verify(rc, out)
        return rc, out

    def test_petrie_is_case1(self):
        self.serve(["check"], PETRIE, verdicts.Check(PETRIE, True))
        self.serve(["classify"], PETRIE, verdicts.Classify(PETRIE, "Case1", {"pairs": [[2, 3, 7], [2, 3, 5]]}))
        self.serve(["reduce"], PETRIE, verdicts.Reduce(PETRIE))
        with self.assertRaises(VerdictError):
            self.serve(["classify"], PETRIE, verdicts.Classify(PETRIE, "Case1", {"pairs": [[2, 3, 7], [2, 3, 6]]}))

    def test_cp3_is_case2(self):
        self.serve(["classify"], CP3_123, verdicts.Classify(CP3_123, "Case2", {"a": 1, "b": 2, "c": 3}))
        self.serve(["graphs"], CP3_123, verdicts.Graphs(CP3_123, True, figure1=True))
        with self.assertRaises(VerdictError):
            self.serve(["classify"], CP3_123, verdicts.Classify(CP3_123, "Case2", {"a": 3, "b": 2, "c": 2}))

    def test_negative_vectors_fail(self):
        for points in (NEG1, NEG2):
            self.serve(["check"], points, verdicts.Check(points, False))
            with self.assertRaises(VerdictError):
                self.serve(["check"], points, verdicts.Check(points, True))

    def test_reduce_replay_rejects_a_wrong_trace(self):
        _, out = self.serve(["reduce"], PETRIE, verdicts.Reduce(PETRIE))
        with self.assertRaises(VerdictError):
            verdicts.Reduce(PETRIE).verify(0, out.split("\n", 1)[1])  # first move dropped

    def test_4d_trace_replay(self):
        trace = workloads.split_chain(3)
        points = workloads.trace_points(trace)
        self.serve(["classify"], points, verdicts.Classify(points, "FourDimReachable"))
        self.assertEqual(verdicts.replay_4d(trace), verdicts.multiset(points))
        with self.assertRaises(VerdictError):
            verdicts.replay_4d([{"op": "add_pair", "params": [2, 4]}])


class Workloads(unittest.TestCase):
    def test_seed_determines_inputs(self):
        pkg, _ = run.load_package()
        first = workloads.unions_round(pkg, workloads.random.Random(7))
        again = workloads.unions_round(pkg, workloads.random.Random(7))
        other = workloads.unions_round(pkg, workloads.random.Random(8))
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)

    def test_perfect_matchings(self):
        # an odd multiplicity admits none; weight 2 four times gives 3!! = 3
        self.assertEqual(verdicts.perfect_matchings([(1, 1, 2), (-1, 1, 3)]), 0)
        self.assertEqual(verdicts.perfect_matchings([(1, 2, 2), (-1, 2, 2), (1, 1, 3), (-1, 1, 3)]), 3)


if __name__ == "__main__":
    sys.exit(unittest.main())
