"""Acceptance gate: one printed pass/fail line per criterion.

Run with -s to see the lines as they are produced; each criterion is an
independent test so a failure pinpoints the broken guarantee.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from circleact.classify import classify_6d4fp, membership_4d, replay_4d_trace
from circleact.constraints import abbv_integral_one, overall_verdict, run_all
from circleact.core import data
from circleact.generators import gen_blowup, gen_cp2, gen_cp3, gen_s6, gen_s6_pair
from circleact.multigraph import enumerate_admissible, match_figure1
from circleact.rewrite import RewriteTrace, collection_from_data, reduce_to_empty
from circleact.series import signature_exact, signature_series
from circleact.sweep import survivors, sweep
from conftest import random_data
from rational_oracle import quotient_series, signature_rational_parts

PETRIE = data((1, 7, 2, 3), (-1, 7, 2, 3), (1, 5, 2, 3), (-1, 5, 2, 3))
NEG1 = data((1, 2, 4, 1), (1, 2, 3, 1), (-1, 4, 3, 2), (-1, 1, 1, 2))
NEG2 = data((1, 3, 5, 1), (1, 3, 4, 2), (-1, 5, 4, 2), (-1, 1, 2, 2))


def report(n, label, ok):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({label})"


def test_criterion_1_generator_conformance():
    start = time.monotonic()
    ok = True
    for a, b, c in itertools.product(range(1, 6), repeat=3):
        d = gen_cp3(a, b, c)
        res = signature_exact(d)
        ok = ok and overall_verdict(run_all(d))
        ok = ok and res.is_constant and res.constant == 0
        ok = ok and abbv_integral_one(d) == 0
    elapsed = time.monotonic() - start
    report(1, "generator conformance", ok and elapsed < 5.0)


def test_criterion_2_blowup_identity():
    ok = all(
        gen_blowup(a, b, c).same_as(gen_cp3(a, b, c))
        for a, b, c in itertools.product(range(1, 6), repeat=3)
    )
    report(2, "blow-up identity", ok)


def test_criterion_3_classification_fixtures():
    petrie = classify_6d4fp(PETRIE)
    ok = petrie.case1() is not None

    res123 = classify_6d4fp(gen_cp3(1, 2, 3))
    ok = ok and res123.case2_params() == [(1, 2, 3)] and res123.case1() is None

    for t, s in itertools.product(range(1, 5), repeat=2):
        both = classify_6d4fp(gen_cp3(t, s, t))
        ok = ok and both.case1() is not None and (t, s, t) in both.case2_params()
    report(3, "classification fixtures", ok)


def test_criterion_4_negative_vectors():
    ok = True
    for d, expected in ((NEG1, Fraction(-1, 4)), (NEG2, Fraction(-1, 6))):
        reports = run_all(d)
        ok = ok and not overall_verdict(reports)
        ok = ok and abbv_integral_one(d) == expected
    report(4, "negative vectors", ok)


def test_criterion_5_series_cross_oracle():
    rng = random.Random(40)
    ok = True
    for _ in range(1000):
        d = random_data(rng, max_points=4, max_arity=3, max_weight=6)
        num, den = signature_rational_parts(d)
        ok = ok and signature_series(d, 40) == quotient_series(num, den, 40)
    report(5, "series/rational cross-oracle", ok)


def test_criterion_6_figure1_coverage():
    start = time.monotonic()
    ok = True
    grids = []
    for a, b, c in itertools.product(range(1, 5), repeat=3):
        grids.append(gen_cp3(a, b, c))
        grids.append(gen_blowup(a, b, c))
    for params in itertools.product(range(1, 5), repeat=6):
        grids.append(gen_s6_pair(*params))
    for d in grids:
        graphs = enumerate_admissible(d)
        tags = [match_figure1(g) for g in graphs]
        ok = ok and graphs and any(
            t is not None and t.tag in set("ABCDE") for t in tags
        )
        if not ok:
            break
    elapsed = time.monotonic() - start
    report(6, "figure-1 coverage", bool(ok) and elapsed < 10.0)


def test_criterion_7_rewriting():
    ok = True
    for a, b, c in itertools.product(range(1, 5), repeat=3):
        for d in (gen_s6(a, b, c), gen_cp3(a, b, c), gen_blowup(a, b, c)):
            trace = reduce_to_empty(collection_from_data(d))
            ok = ok and isinstance(trace, RewriteTrace) and len(trace.moves) <= 3
            if not ok:
                break
            trace.replay()
        # the worked reduction: first an op-2 instance at (a, a+b, a+b+c);
        # when a = c the two-pair short script applies instead
        if a != c:
            first = reduce_to_empty(collection_from_data(gen_cp3(a, b, c))).moves[0]
            ok = ok and first.op == 2 and first.params == (a, a + b, a + b + c)
    for params in itertools.product(range(1, 5), repeat=6):
        trace = reduce_to_empty(collection_from_data(gen_s6_pair(*params)))
        ok = ok and isinstance(trace, RewriteTrace) and len(trace.moves) <= 3
        if not ok:
            break
        trace.replay()
    report(7, "rewriting", ok)


def test_criterion_8_oracle_sweep():
    start = time.monotonic()
    rows = sweep(points=4, arity=3, max_weight=3)
    elapsed = time.monotonic() - start
    surv = survivors(rows)
    unclassified = [r for r in surv if "NotInClassification" in r.classification]
    ok = bool(surv) and not unclassified and elapsed < 60.0
    report(8, "oracle sweep", ok)


def test_criterion_9_4dim_grammar():
    ok = True
    for a, b in itertools.product(range(1, 5), repeat=2):
        if math.gcd(a, b) != 1:
            continue
        d = gen_cp2(a, b)
        res = membership_4d(d)
        ok = ok and res.classified
        ok = ok and replay_4d_trace(res.matches[0].trace).same_as(d)
    ok = ok and not membership_4d(data((1, 1, 1))).classified
    report(9, "4-dim grammar", ok)
