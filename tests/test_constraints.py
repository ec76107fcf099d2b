import itertools
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact.core import (
    FixedPointData,
    FixedPointDatum,
    data,
    disjoint_union,
    reverse_orientation,
)
from circleact.constraints import (
    FAIL,
    INAPPLICABLE,
    PASS,
    abbv_integral_one,
    check_abbv,
    check_congruence_pairing,
    check_parity_dimension,
    check_smallest_weights,
    check_uniform_weight_balance,
    check_weight_parity,
    overall_verdict,
    run_all,
    smallest_weights_clause,
)
from circleact import constraints
from conftest import even_data, random_data
from sweep_oracle import congruence_pairing_by_enumeration, pair_witness_by_enumeration

CP3_111 = data((1, 1, 2, 3), (-1, 1, 1, 2), (1, 1, 1, 2), (-1, 1, 2, 3))
PETRIE = data((1, 7, 2, 3), (-1, 7, 2, 3), (1, 5, 2, 3), (-1, 5, 2, 3))
# Lemma 5.6 case (ii) and Lemma 5.6 case (iii) contradiction instances
NEG1 = data((1, 2, 4, 1), (1, 2, 3, 1), (-1, 4, 3, 2), (-1, 1, 1, 2))
NEG2 = data((1, 3, 5, 1), (1, 3, 4, 2), (-1, 5, 4, 2), (-1, 1, 2, 2))


class TestAbbv:
    def test_cp3(self):
        # 1/6 - 1/2 + 1/2 - 1/6 = 0
        assert abbv_integral_one(CP3_111) == 0

    def test_negative_instance(self):
        assert abbv_integral_one(NEG2) == Fraction(-1, 6)
        assert abbv_integral_one(NEG1) == Fraction(-1, 4)

    def test_cancellation(self):
        assert abbv_integral_one(data((1, 3, 4, 5), (-1, 3, 4, 5))) == 0

    def test_additive_over_union(self, rng):
        for _ in range(100):
            x = random_data(rng, max_arity=2)
            y = random_data(rng, max_arity=2)
            y = FixedPointData(
                tuple(p for p in y.points if p.arity == x.arity)
            ) if y.points and x.arity != y.arity else y
            if not y.points:
                continue
            assert abbv_integral_one(disjoint_union(x, y)) == abbv_integral_one(
                x
            ) + abbv_integral_one(y)

    def test_negates_under_reversal(self, rng):
        for _ in range(100):
            x = random_data(rng)
            assert abbv_integral_one(reverse_orientation(x)) == -abbv_integral_one(x)

    def test_against_fraction_sum(self, rng):
        for _ in range(300):
            x = random_data(rng, max_points=8, max_weight=rng.choice((6, 30, 1000)))
            expected = sum(
                (Fraction(p.sign, math.prod(p.weights)) for p in x.points), Fraction(0)
            )
            value = abbv_integral_one(x)
            assert type(value) is Fraction and value == expected


class TestWeightParity:
    def test_petrie_counts(self):
        assert check_weight_parity(PETRIE).status == PASS

    def test_odd_counts(self):
        r = check_weight_parity(data((1, 1, 2, 3), (-1, 1, 2, 4)))
        assert r.status == FAIL
        assert r.detail["odd_weights"] == [3, 4]

    def test_empty(self):
        assert check_weight_parity(FixedPointData(())).status == PASS

    def test_invariances(self, rng):
        for _ in range(100):
            d = random_data(rng)
            r = check_weight_parity(d).status
            assert check_weight_parity(reverse_orientation(d)).status == r
            shuffled = list(d.points)
            rng.shuffle(shuffled)
            assert check_weight_parity(FixedPointData(tuple(shuffled))).status == r


class TestParityDimension:
    def test_three_points_dim4(self):
        assert check_parity_dimension(data((1, 1, 2), (1, 1, 1), (-1, 2, 2))).status == PASS

    def test_three_points_dim6(self):
        r = check_parity_dimension(data((1, 1, 2, 3), (1, 1, 1, 1), (-1, 2, 2, 2)))
        assert r.status == FAIL

    def test_four_points_dim6(self):
        assert check_parity_dimension(PETRIE).status == PASS


class TestSmallestWeights:
    def test_cp2_family(self):
        for a, b in itertools.product(range(1, 4), repeat=2):
            d = data((1, a, a + b), (-1, a, b), (1, b, a + b))
            assert check_smallest_weights(d).status == PASS

    def test_smallest_differ(self):
        r = check_smallest_weights(data((1, 1, 2, 3), (-1, 2, 2, 3)))
        assert r.status == FAIL
        assert r.detail == {"a1": 1, "b1": 2}

    def test_multiplicity_clause(self):
        assert check_smallest_weights(data((1, 1, 1, 5), (-1, 1, 1, 7))).status == PASS

    def test_multiplicity_clause_violated(self):
        # a1=b1=1, a2=b2=1 but the value 1 occurs 3 times on one side only
        r = check_smallest_weights(data((1, 1, 1, 1), (-1, 1, 1, 7)))
        assert r.status == FAIL

    def test_inapplicable_small_class(self):
        assert check_smallest_weights(data((1, 1, 2), (1, 1, 2))).status == INAPPLICABLE

    def test_positions_witness(self):
        r = check_smallest_weights(data((1, 1, 2, 2), (-1, 1, 2, 3)))
        assert r.status == FAIL
        assert r.witness == "positions of value 2 differ between sign classes: [1, 2] vs [1]"

    @pytest.mark.parametrize(
        "plus, minus, clause",
        [
            ([1, 2, 2], [1, 2, 3], "positions"),
            ([1, 1, 2], [1, 1, 1], "positions"),
            ([1, 2, 2, 2], [1, 2, 2, 4], "positions"),
            ([1, 2, 2], [1, 2, 2, 5], None),
            ([2, 2, 2], [2, 2, 2], None),
            ([1, 3, 3], [1, 3, 4], "positions"),
            ([1, 2], [1, 3], "a2"),
            ([2, 3], [1, 3], "a1"),
            ([1], [1, 2], None),
            ([], [1, 1], None),
        ],
    )
    def test_clause(self, plus, minus, clause):
        assert smallest_weights_clause(plus, minus) == clause

    def test_positions_clause_is_index_sets(self, rng):
        # the count rule against the definition: the index sets of a2
        for _ in range(3000):
            plus = sorted(rng.randint(1, 4) for _ in range(rng.randint(2, 7)))
            minus = sorted(rng.randint(1, 4) for _ in range(rng.randint(2, 7)))
            a1_a2_agree = plus[:2] == minus[:2]
            positions_differ = {i for i, w in enumerate(plus) if w == plus[1]} != {
                i for i, w in enumerate(minus) if w == plus[1]
            }
            assert (smallest_weights_clause(plus, minus) == "positions") == (
                a1_a2_agree and positions_differ
            ), (plus, minus)


class TestUniformBalance:
    def test_balanced(self):
        assert check_uniform_weight_balance(data((1, 2, 2, 2), (-1, 2, 2, 2))).status == PASS

    def test_unbalanced(self):
        r = check_uniform_weight_balance(data((1, 2, 2, 2), (1, 2, 2, 2)))
        assert r.status == FAIL

    def test_nonuniform_inapplicable(self):
        assert check_uniform_weight_balance(PETRIE).status == INAPPLICABLE


class TestCongruencePairing:
    def test_identical_residues(self):
        d = data((1, 1, 2, 5), (-1, 1, 2, 5))
        assert check_congruence_pairing(d, 5).status == PASS

    def test_cp3_w3(self):
        # points {+,1,2,3} and {-,1,2,3}; nu=(-1,-1) gives 1=-2, 2=-1 mod 3
        # with the sign relation (+1)=(-1)*(-1)^3
        d = data((1, 1, 2, 3), (-1, 1, 1, 2), (1, 1, 1, 2), (-1, 1, 2, 3))
        assert check_congruence_pairing(d, 3).status == PASS

    def test_equal_signs_fail(self):
        d = data((1, 1, 5), (1, 2, 5))
        assert check_congruence_pairing(d, 5).status == FAIL

    def test_inapplicable_multiple(self):
        d = data((1, 2, 4), (-1, 2, 4))
        assert check_congruence_pairing(d, 2).status == INAPPLICABLE

    def test_inapplicable_multiplicity(self):
        d = data((1, 5, 5, 1), (-1, 5, 1, 2))
        assert check_congruence_pairing(d, 5).status == INAPPLICABLE

    def test_no_carriers_pass(self):
        d = data((1, 2, 3), (-1, 2, 3))
        assert check_congruence_pairing(d, 5).status == PASS

    def test_odd_carriers_fail(self):
        d = data((1, 5, 2), (-1, 2, 3), (1, 3, 4), (-1, 4, 6))
        assert check_congruence_pairing(d, 5).status == FAIL

    def test_w1_balanced_vs_unbalanced(self, rng):
        # with w=1 only all-weight-1 data is applicable; the congruences are
        # vacuous and only the sign relation binds
        for _ in range(50):
            k = rng.randint(1, 4)
            signs = [rng.choice((-1, 1)) for _ in range(2 * k)]
            d = FixedPointData(
                tuple(data((s, 1)).points[0] for s in signs)
            )
            r = check_congruence_pairing(d, 1)
            balanced = sum(signs) == 0
            assert r.status == (PASS if balanced else FAIL)


def _report(r):
    return (r.name, r.status, r.witness, r.detail)


class TestCongruenceAgainstEnumeration:
    """The first-partner search against the walk over every perfect
    pairing."""

    @pytest.mark.parametrize("w", range(2, 8))
    def test_every_small_carrier_multiset(self, w):
        # every multiset of 1-4 carriers of w whose other weights run over
        # the residues 1..w-1 (a report depends on the weights only through
        # their residues mod w): arity 2, and arity 3 up to w = 5
        for arity in (2, 3) if w <= 5 else (2,):
            others = list(itertools.combinations_with_replacement(range(1, w), arity - 1))
            kinds = [FixedPointDatum(s, (w, *o)) for s in (-1, 1) for o in others]
            for size in range(1, 5):
                for combo in itertools.combinations_with_replacement(kinds, size):
                    d = FixedPointData(combo)
                    assert _report(check_congruence_pairing(d, w)) == _report(
                        congruence_pairing_by_enumeration(d, w)
                    ), d

    @pytest.mark.parametrize("w", range(2, 8))
    def test_random_larger_carrier_sets(self, rng, w):
        for _ in range(40):
            d = FixedPointData(
                tuple(
                    FixedPointDatum(
                        rng.choice((-1, 1)), (w, rng.randint(1, w - 1), rng.randint(1, w - 1))
                    )
                    for _ in range(rng.randint(6, 8))
                )
            )
            assert _report(check_congruence_pairing(d, w)) == _report(
                congruence_pairing_by_enumeration(d, w)
            ), d

    def test_random_data(self, rng):
        for _ in range(300):
            d = (even_data if rng.random() < 0.7 else random_data)(
                rng, max_points=8, max_weight=rng.choice((3, 5, 7))
            )
            for w in sorted({x for p in d.points for x in p.weights}):
                assert _report(check_congruence_pairing(d, w)) == _report(
                    congruence_pairing_by_enumeration(d, w)
                ), (d, w)

    def test_mixed_carriers(self, rng):
        # 4-8 carriers of w = 7 with random signs and residues, so that both
        # verdicts occur and the first pairing is often not the first tried
        for _ in range(200):
            k = rng.choice((4, 6, 8))
            d = FixedPointData(
                tuple(
                    data((rng.choice((-1, 1)), 7, rng.randint(1, 3), rng.randint(1, 3))).points[0]
                    for _ in range(k)
                )
            )
            assert _report(check_congruence_pairing(d, 7)) == _report(
                congruence_pairing_by_enumeration(d, 7)
            ), d

    def test_each_pair_witnessed_once(self, monkeypatch):
        calls = []
        original = constraints._pair_witness

        def counted(p, q, w):
            calls.append((p, q))
            return original(p, q, w)

        monkeypatch.setattr(constraints, "_pair_witness", counted)
        k = 16
        r = check_congruence_pairing(data(*[(1, 7, 1, 1)] * k), 7)
        assert r.status == FAIL
        assert len(calls) <= k * (k - 1) // 2
        # 9 positive and 7 negative carriers: every opposite-sign pair has a
        # witness, so the search revisits pairs in many partial pairings
        calls.clear()
        r = check_congruence_pairing(data(*[(1, 7, 1, 1)] * 9, *[(-1, 7, 1, 1)] * 7), 7)
        assert r.status == FAIL
        assert len(calls) <= k * (k - 1) // 2

    def test_failed_sub_searches_not_repeated(self):
        """With 11 positive and 9 negative carriers of {1,1,7}, every
        opposite-sign pair has a witness but no pairing exists.  The search
        pairs each carrier with its first witnessed partner and never
        backtracks, so it tries each pair at most once; the backtracking
        over every partial pairing made about a million calls."""
        for plus, minus in ((11, 9), (15, 13)):
            d = data(*[(1, 7, 1, 1)] * plus, *[(-1, 7, 1, 1)] * minus)
            k = plus + minus
            calls = _count_calls(
                "_pair_witness", lambda: check_congruence_pairing(d, 7)
            )
            assert check_congruence_pairing(d, 7).status == FAIL
            assert calls <= k * (k - 1) // 2

    def test_many_carriers_of_few_kinds(self, rng):
        # 10 carriers drawn from 4 kinds, two weight triples with both signs,
        # so that failed sub-multisets recur; mod 5 the residues r and 5 - r
        # let some same-sign pairs have witnesses
        for _ in range(60):
            kinds = [
                (sign, 5, rng.randint(1, 4), rng.randint(1, 4))
                for _ in range(2)
                for sign in (-1, 1)
            ]
            d = data(*(rng.choice(kinds) for _ in range(10)))
            assert _report(check_congruence_pairing(d, 5)) == _report(
                congruence_pairing_by_enumeration(d, 5)
            ), d


class TestPairWitness:
    """The directly built (sigma, nu) against the walk over all m!·2^m of
    them (tests/sweep_oracle.py)."""

    @pytest.mark.parametrize("w", range(2, 7))
    def test_every_small_carrier_pair(self, w):
        # arity 1-4, the other weights running over the residues 1..w-1
        for arity in range(1, 5):
            others = list(itertools.combinations_with_replacement(range(1, w), arity - 1))
            points = [FixedPointDatum(s, (w, *o)) for s in (-1, 1) for o in others]
            for p in points:
                for q in points:
                    assert constraints._pair_witness(p, q, w) == pair_witness_by_enumeration(
                        p, q, w
                    ), (p, q)

    def test_random_pairs_arity_5_and_6(self, rng):
        found = 0
        for _ in range(100):
            w = rng.randint(2, 9)
            arity = rng.randint(5, 6)
            others = [
                rng.choice([x for x in range(1, 2 * w + 1) if x != w])
                for _ in range(arity - 1)
            ]
            p = FixedPointDatum(rng.choice((-1, 1)), (w, *others))
            # half the time q's residues equal p's up to sign, so that
            # witnesses exist and the signs and order matter
            if rng.random() < 0.5:
                q_others = [x if rng.random() < 0.5 else (-x) % w or x for x in others]
                rng.shuffle(q_others)
            else:
                q_others = [
                    rng.choice([x for x in range(1, 2 * w + 1) if x != w])
                    for _ in range(arity - 1)
                ]
            q = FixedPointDatum(rng.choice((-1, 1)), (w, *q_others))
            got = constraints._pair_witness(p, q, w)
            assert got == pair_witness_by_enumeration(p, q, w), (p, q, w)
            found += got is not None
        assert 20 < found < 80

    def test_arity_9_equal_signs_fail(self):
        # the enumeration tries all 8!·2^8 (sigma, nu) here before failing
        d = data((1, *range(2, 10), 11), (1, *range(2, 10), 11))
        r = check_congruence_pairing(d, 11)
        assert (r.status, r.witness) == (
            FAIL,
            "no perfect pairing of points [0, 1] satisfies the mod-11 "
            "congruences and sign relation",
        )

    def test_arity_9_opposite_signs_identity(self):
        d = data((1, *range(2, 10), 11), (-1, *range(2, 10), 11))
        r = check_congruence_pairing(d, 11)
        assert r.status == PASS
        assert r.detail == {
            "pairing": [
                {"pair": (0, 1), "sigma": tuple(range(8)), "nu": (1,) * 8, "nu_minus": 0}
            ]
        }


def _count_calls(name: str, fn) -> int:
    """How many Python calls of functions named name running fn makes."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == name:
            calls += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestRunAll:
    def test_cp3_all_pass(self):
        reports = run_all(CP3_111)
        assert overall_verdict(reports)

    def test_negative_instance_fails(self):
        reports = run_all(NEG1)
        assert not overall_verdict(reports)
        abbv = [r for r in reports if r.name == "abbv_integral_one"][0]
        assert abbv.failed and abbv.detail["value"] == Fraction(-1, 4)

    def test_empty_vacuous_pass(self):
        assert overall_verdict(run_all(FixedPointData(())))

    def test_generators_pass(self):
        from circleact.generators import gen_cp2, gen_s6, gen_s6_pair

        for a, b, c in itertools.product(range(1, 4), repeat=3):
            assert overall_verdict(run_all(gen_s6(a, b, c)))
        for a, b in itertools.product(range(1, 5), repeat=2):
            assert overall_verdict(run_all(gen_cp2(a, b)))
        for params in itertools.product(range(1, 3), repeat=6):
            assert overall_verdict(run_all(gen_s6_pair(*params)))

    def test_explicit_pair_weights(self):
        reports = run_all(PETRIE, weights_to_pair={7, 5})
        names = {r.name for r in reports}
        assert "congruence_pairing(w=7)" in names
        assert "congruence_pairing(w=2)" not in names

    def test_check_abbv_empty(self):
        assert check_abbv(FixedPointData(())).status == INAPPLICABLE


@st.composite
def small_data(draw):
    """At most 5 points of one arity <= 3 with weights <= 6."""
    arity = draw(st.integers(1, 3))
    return FixedPointData(
        tuple(
            FixedPointDatum(
                draw(st.sampled_from((-1, 1))),
                tuple(draw(st.integers(1, 6)) for _ in range(arity)),
            )
            for _ in range(draw(st.integers(0, 5)))
        )
    )


def _verdicts(d):
    return [(r.name, r.status) for r in run_all(d)]


class TestRunAllInvariance:
    @settings(max_examples=150, deadline=None)
    @given(small_data(), st.randoms(use_true_random=False))
    def test_point_order(self, d, rnd):
        points = list(d.points)
        rnd.shuffle(points)
        assert _verdicts(FixedPointData(tuple(points))) == _verdicts(d)

    @settings(max_examples=150, deadline=None)
    @given(small_data())
    def test_orientation_reversal(self, d):
        assert _verdicts(reverse_orientation(d)) == _verdicts(d)
