import itertools
import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact.classify import (
    Case1Match,
    Classification,
    FourDimReachable,
    NotInClassification,
    TwoPointRotation,
    UnsupportedShape,
    classify,
    classify_6d4fp,
    classify_two_fixed_points,
    cp3_template,
    figure1_taggable,
    membership_4d,
    replay_4d_trace,
)
from circleact.cli import main
from circleact.core import FixedPointData, FixedPointDatum, data
from circleact.generators import gen_blowup, gen_cp2, gen_cp3, gen_s6, gen_s6_pair
from classify_oracle import (
    case2_params_by_search,
    generated_by_merged_forms,
    membership_4d_recursive,
)

PETRIE = data((1, 7, 2, 3), (-1, 7, 2, 3), (1, 5, 2, 3), (-1, 5, 2, 3))


class TestTwoFixedPoints:
    def test_sphere(self):
        res = classify_two_fixed_points(gen_s6(4, 9, 25))
        assert res.classified
        assert res.matches == (TwoPointRotation((4, 9, 25)),)

    def test_equal_signs(self):
        res = classify_two_fixed_points(data((1, 1, 2), (1, 1, 2)))
        assert not res.classified

    def test_differing_weights(self):
        res = classify_two_fixed_points(data((1, 1, 2), (-1, 1, 3)))
        assert not res.classified
        assert "differ" in res.matches[0].reason

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            classify_two_fixed_points(data((1, 1, 2)))


class TestClassify6d4fp:
    def test_petrie_case1(self):
        res = classify_6d4fp(PETRIE)
        assert res.classified
        assert res.case1() == Case1Match(((2, 3, 5), (2, 3, 7)))
        assert res.case2_params() == []

    def test_cp3_123_case2_only(self):
        res = classify_6d4fp(gen_cp3(1, 2, 3))
        assert res.classified
        assert res.case1() is None
        assert res.case2_params() == [(1, 2, 3)]

    def test_cp3_equal_outer_params_both_cases(self):
        # a = c makes the template split into two opposite-sign pairs too
        for t, s in itertools.product(range(1, 5), repeat=2):
            res = classify_6d4fp(gen_cp3(t, s, t))
            assert res.case1() is not None
            assert (t, s, t) in res.case2_params()

    def test_point_order_irrelevant(self):
        shuffled = FixedPointData(tuple(reversed(gen_cp3(2, 1, 3).points)))
        assert classify_6d4fp(shuffled).case2_params() == [(2, 1, 3)]

    def test_unclassifiable_reports_failed_checks(self):
        d = data((1, 2, 4, 1), (1, 2, 3, 1), (-1, 4, 3, 2), (-1, 1, 1, 2))
        res = classify_6d4fp(d)
        assert not res.classified
        assert "abbv_integral_one" in res.matches[0].failed_checks

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            classify_6d4fp(data((1, 1, 2), (-1, 1, 2), (1, 1, 2), (-1, 1, 2)))

    def test_json_shape(self):
        res = classify_6d4fp(gen_cp3(1, 2, 3))
        parsed = json.loads(res.to_json())
        assert parsed == [{"verdict": "Case2", "params": {"a": 1, "b": 2, "c": 3}}]

    def test_template_matches_generator(self):
        for a, b, c in itertools.product(range(1, 4), repeat=3):
            assert cp3_template(a, b, c).same_as(gen_cp3(a, b, c))


class TestReplay4dTrace:
    def test_basic(self):
        trace = [
            {"op": "add_pair", "params": (1, 2)},
            {"op": "split_plus", "params": (1, 2)},
        ]
        got = replay_4d_trace(trace)
        assert got.same_as(data((1, 1, 3), (1, 2, 3), (-1, 1, 2)))

    def test_noncoprime_pair_rejected(self):
        with pytest.raises(ValueError):
            replay_4d_trace([{"op": "add_pair", "params": (2, 4)}])

    def test_split_missing_source(self):
        with pytest.raises(ValueError):
            replay_4d_trace([{"op": "split_minus", "params": (1, 2)}])

    def test_normalize_gcd(self):
        trace = [
            {"op": "add_pair", "params": (1, 1)},
            {"op": "normalize_gcd", "params": (3,)},
        ]
        assert replay_4d_trace(trace).same_as(data((1, 3, 3), (-1, 3, 3)))


class TestMembership4d:
    def test_cp2_reachable(self):
        res = membership_4d(gen_cp2(1, 1))
        assert res.classified
        (match,) = res.matches
        assert isinstance(match, FourDimReachable)
        assert replay_4d_trace(match.trace).same_as(gen_cp2(1, 1))

    def test_cp2_grid(self):
        for a, b in itertools.product(range(1, 5), repeat=2):
            import math

            d = gen_cp2(a, b)
            res = membership_4d(d, effective=(math.gcd(a, b) == 1))
            assert res.classified
            assert replay_4d_trace(res.matches[0].trace).same_as(d)

    def test_single_plus_unreachable(self):
        res = membership_4d(data((1, 1, 1)))
        assert not res.classified
        assert isinstance(res.matches[0], NotInClassification)

    def test_empty_reachable(self):
        res = membership_4d(FixedPointData(()))
        assert res.classified and res.matches[0].trace == ()

    def test_noneffective_rejected_then_allowed(self):
        d = data((1, 2, 4), (-1, 2, 4))
        assert not membership_4d(d, effective=True).classified
        res = membership_4d(d, effective=False)
        assert res.classified
        assert res.matches[0].trace[-1]["op"] == "normalize_gcd"

    def test_sign_flipped_cp2_unreachable(self):
        # cp2(1,2) with the signs reassigned admits no reverse move
        assert not membership_4d(data((1, 1, 2), (1, 1, 3), (-1, 2, 3))).classified

    def test_requires_arity_2(self):
        with pytest.raises(ValueError):
            membership_4d(data((1, 1, 2, 3), (-1, 1, 2, 3)))

    def test_forced_split(self):
        # only reachable by splitting the negative datum of a rotation pair
        d = data((1, 1, 2), (-1, 1, 3), (-1, 2, 3))
        res = membership_4d(d)
        assert res.classified
        ops = [s["op"] for s in res.matches[0].trace]
        assert ops == ["add_pair", "split_minus"]

    def test_classification_flag(self):
        assert Classification(()).classified is False


class TestDispatch:
    def test_each_shape_goes_to_its_classifier(self):
        assert classify(gen_s6(1, 2, 3)) == classify_two_fixed_points(gen_s6(1, 2, 3))
        assert classify(PETRIE) == classify_6d4fp(PETRIE)
        d = data((1, 2, 4), (-1, 2, 4))
        assert classify(d) == membership_4d(d, effective=False)
        assert classify(d, effective=True) == membership_4d(d, effective=True)
        # two points of arity 2 are dimension-4 data, not a sphere rotation
        assert isinstance(classify(data((1, 1, 2), (-1, 1, 2))).matches[0], FourDimReachable)

    def test_unsupported_shapes_raise(self):
        with pytest.raises(UnsupportedShape, match="^empty data has no classification$"):
            classify(FixedPointData(()))
        with pytest.raises(UnsupportedShape, match=r"^unsupported shape \(3 points, arity 3\)$"):
            classify(data((1, 1, 2, 3), (-1, 1, 2, 3), (1, 1, 2, 3)))

    def test_figure1_taggable(self):
        assert figure1_taggable(PETRIE)
        assert figure1_taggable(gen_cp3(1, 2, 3))
        assert not figure1_taggable(data((1, 1, 2, 3), (1, 1, 2, 3), (1, 1, 2, 3), (-1, 1, 2, 3)))
        assert not figure1_taggable(gen_s6(1, 2, 3))
        assert not figure1_taggable(data((1, 1, 2), (-1, 1, 2), (1, 1, 2), (-1, 1, 2)))
        assert not figure1_taggable(FixedPointData(()))


# --- cross-oracle against the former search-based classifiers ----------------

def _raise_weight(d: FixedPointData, i: int, j: int) -> FixedPointData:
    pts = list(d.points)
    ws = list(pts[i].weights)
    ws[j] += 1
    pts[i] = FixedPointDatum(pts[i].sign, tuple(ws))
    return FixedPointData(tuple(pts))


def _flip_sign(d: FixedPointData, i: int) -> FixedPointData:
    pts = list(d.points)
    pts[i] = FixedPointDatum(-pts[i].sign, pts[i].weights)
    return FixedPointData(tuple(pts))


def _with_perturbations(d: FixedPointData, rng: random.Random) -> list[FixedPointData]:
    """d, d with one weight raised by 1, and d with one sign flipped."""
    i = rng.randrange(len(d.points))
    j = rng.randrange(d.arity)
    return [d, _raise_weight(d, i, j), _flip_sign(d, rng.randrange(len(d.points)))]


def _same_6d(d: FixedPointData) -> None:
    assert classify_6d4fp(d).case2_params() == case2_params_by_search(d), str(d)


def _same_4d(d: FixedPointData, effective: bool = False) -> None:
    got = membership_4d(d, effective=effective)
    assert got.to_json() == membership_4d_recursive(d, effective=effective).to_json(), str(d)
    if got.classified:
        assert replay_4d_trace(got.matches[0].trace).same_as(d)


def forward_trace_data(rng: random.Random, steps: int) -> FixedPointData:
    """Data of a random forward grammar trace: coprime rotation pairs and splits."""
    def pair():
        while True:
            a, b = rng.randint(1, 5), rng.randint(1, 5)
            if math.gcd(a, b) == 1:
                return [(1, a, b), (-1, a, b)]

    live = pair()
    for _ in range(steps):
        if rng.random() < 0.3:
            live += pair()
        else:
            sign, c, dd = live.pop(rng.randrange(len(live)))
            live += [(sign, c, c + dd), (sign, dd, c + dd)]
    rng.shuffle(live)
    return data(*live)


def split_chain(steps: int) -> FixedPointData:
    """add_pair(1, 1), then split (1, k) for k = 1..steps."""
    return replay_4d_trace(
        [{"op": "add_pair", "params": (1, 1)}]
        + [{"op": "split_plus", "params": (1, k)} for k in range(1, steps + 1)]
    )


class TestCase2CrossOracle:
    def test_cp3_and_blowup_grid(self, rng):
        for a, b, c in itertools.product(range(1, 11), repeat=3):
            if a + b + c > 12:
                continue
            for gen in (gen_cp3, gen_blowup):
                for d in _with_perturbations(gen(a, b, c), rng):
                    _same_6d(d)

    def test_s6_pairs(self, rng):
        triples = list(itertools.combinations_with_replacement(range(1, 13), 3))
        # a sample: the full grid has 66k pairs, minutes for the cubic oracle
        for _ in range(150):
            x, y = rng.choice(triples), rng.choice(triples)
            for d in _with_perturbations(gen_s6_pair(*x, *y), rng):
                _same_6d(d)

    def test_random_data(self, rng):
        for _ in range(400):
            d = data(*[
                (rng.choice((-1, 1)),) + tuple(rng.randint(1, 8) for _ in range(3))
                for _ in range(4)
            ])
            _same_6d(d)

    def test_scale_case(self):
        # the former parameter search needed about 20 s on this input
        assert classify_6d4fp(gen_cp3(60, 61, 62)).case2_params() == [(60, 61, 62)]


def small_grid():
    """Every arity-2 multiset of 1-2 points with weights <= 8, 3 points with
    weights <= 6 and 4 points with weights <= 4."""
    for points, max_weight in ((1, 8), (2, 8), (3, 6), (4, 4)):
        kinds = [
            (sign, x, y)
            for sign in (-1, 1)
            for x in range(1, max_weight + 1)
            for y in range(x, max_weight + 1)
        ]
        for combo in itertools.combinations_with_replacement(kinds, points):
            yield data(*combo)


class TestMembershipCrossOracle:
    def test_exhaustive_small_grid(self):
        for d in small_grid():
            got = membership_4d(d, effective=False).to_json()
            assert got == membership_4d_recursive(d, effective=False).to_json(), str(d)

    def test_merged_form_criterion(self):
        generated = 0
        for d in small_grid():
            verdict = membership_4d(d).classified
            assert verdict == generated_by_merged_forms(d), str(d)
            generated += verdict
        assert generated == 59  # both verdicts occur on the grid

    def test_cp2_grid(self):
        for a, b in itertools.product(range(1, 9), repeat=2):
            d = gen_cp2(a, b)
            _same_4d(d, effective=False)
            _same_4d(d, effective=True)

    def test_forward_traces_and_perturbations(self, rng):
        for _ in range(20):
            for steps in range(11):
                d = forward_trace_data(rng, steps)
                for e in _with_perturbations(d, rng):
                    _same_4d(e)

    def test_random_data(self, rng):
        for _ in range(300):
            d = data(*[
                (rng.choice((-1, 1)), rng.randint(1, 6), rng.randint(1, 6))
                for _ in range(rng.randint(1, 6))
            ])
            _same_4d(d)

    def test_split_chains(self):
        for steps in range(1, 51):
            _same_4d(split_chain(steps))


class TestDeepSplitChain:
    """The search depth equals the chain length; it must not reach Python's
    recursion limit (1000 by default)."""

    STEPS = 2000

    def test_long_chain_reachable(self):
        limit = sys.getrecursionlimit()
        d = split_chain(self.STEPS)
        res = membership_4d(d)
        assert sys.getrecursionlimit() == limit
        (match,) = res.matches
        assert isinstance(match, FourDimReachable)
        assert len(match.trace) == self.STEPS + 1
        assert replay_4d_trace(match.trace).same_as(d)

    def test_long_chain_with_flipped_sign_rejected(self):
        d = _flip_sign(split_chain(self.STEPS), 0)
        (match,) = membership_4d(d).matches
        assert isinstance(match, NotInClassification)

    def test_cli_classifies_long_chain(self, capsys, tmp_path):
        limit = sys.getrecursionlimit()
        p = tmp_path / "chain.txt"
        p.write_text("".join(
            f"{'+' if q.sign == 1 else '-'} {q.weights[0]} {q.weights[1]}\n"
            for q in split_chain(self.STEPS).points
        ))
        assert main(["classify", str(p)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out[0]["verdict"] == "FourDimReachable"
        assert sys.getrecursionlimit() == limit


# --- invariance under reordering the points ----------------------------------

@st.composite
def six_dim_four_points(draw, max_weight=12):
    if draw(st.booleans()):
        a, b, c = (draw(st.integers(1, max_weight // 3)) for _ in range(3))
        d = draw(st.sampled_from((gen_cp3, gen_blowup)))(a, b, c)
        return data(*[(p.sign, *p.weights) for p in d.points])
    point = st.tuples(st.sampled_from((-1, 1)), *(st.integers(1, max_weight),) * 3)
    return data(*draw(st.lists(point, min_size=4, max_size=4)))


@st.composite
def four_dim_data(draw):
    if draw(st.booleans()):
        return forward_trace_data(random.Random(draw(st.integers(0, 10**6))), draw(st.integers(0, 8)))
    point = st.tuples(st.sampled_from((-1, 1)), st.integers(1, 6), st.integers(1, 6))
    return data(*draw(st.lists(point, min_size=1, max_size=6)))


class TestReorderInvariance:
    @settings(max_examples=150, deadline=None)
    @given(six_dim_four_points(), st.data())
    def test_classify_6d4fp(self, d, draws):
        shuffled = FixedPointData(tuple(draws.draw(st.permutations(d.points))))
        assert classify_6d4fp(shuffled).to_json() == classify_6d4fp(d).to_json()

    @settings(max_examples=150, deadline=None)
    @given(four_dim_data(), st.data())
    def test_membership_4d(self, d, draws):
        # the verdict is invariant; the trace may differ between point orders
        shuffled = FixedPointData(tuple(draws.draw(st.permutations(d.points))))
        got, want = membership_4d(shuffled, effective=False), membership_4d(d, effective=False)
        assert got.classified == want.classified
        if got.classified:
            assert replay_4d_trace(got.matches[0].trace).same_as(d)
        else:
            assert got == want
