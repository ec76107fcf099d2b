import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact import constraints
from circleact.core import (
    FixedPointData,
    FixedPointDatum,
    InvalidWeightError,
    canonical_form,
    disjoint_union,
)
from circleact.generators import gen_blowup, gen_cp3, gen_s6, gen_s6_pair
from circleact.rewrite import (
    ReductionFailure,
    RewriteTrace,
    StaleMoveError,
    _case_script,
    _deepening_search,
    applicable_moves,
    apply_move,
    collection_from_data,
    reduce_to_empty,
)
from rewrite_oracle import (
    applicable_moves_by_filtering,
    case_script_by_search,
    reduce_to_empty_by_regeneration,
    search_by_regeneration,
)
from conftest import random_data


def cls(sign, *weights):
    """The canonical representative of the signed class [sign, *weights]."""
    return FixedPointDatum(*canonical_form(sign, weights))


def coll(*specs):
    return Counter(cls(*spec) for spec in specs)


class TestCollections:
    def test_from_data_canonical(self):
        got = collection_from_data(gen_cp3(1, 1, 1))
        assert got == coll(
            (1, 1, 2, 3), (-1, 1, 1, 2), (1, 1, 1, 2), (-1, 1, 2, 3)
        )

    def test_multiplicities(self):
        got = collection_from_data(FixedPointData((cls(1, 1, 2, 3), cls(1, 3, 2, 1))))
        assert got[cls(1, 1, 2, 3)] == 2

    def test_from_data_is_counter_of_points(self, rng):
        for _ in range(200):
            d = random_data(rng, max_points=8)
            assert collection_from_data(d) == Counter(d.points)


class TestApplicableMoves:
    def test_op1_cancelling_pair(self):
        moves = applicable_moves(coll((1, 2, 3, 5), (-1, 2, 3, 5)))
        op1 = [m for m in moves if m.op == 1]
        assert len(op1) == 1
        assert apply_move(coll((1, 2, 3, 5), (-1, 2, 3, 5)), op1[0]) == Counter()

    def test_op2_on_cp3(self):
        c = collection_from_data(gen_cp3(1, 2, 3))
        ops = {(m.op, m.orientation, m.params) for m in applicable_moves(c)}
        assert (2, 1, (1, 3, 6)) in ops

    def test_op2_side_condition(self):
        # [+,A,B,C] needs A < B < C strictly
        c = coll((1, 2, 2, 5), (-1, 3, 3, 5))
        assert all(m.op != 2 for m in applicable_moves(c))

    def test_op3_instance(self):
        # [s,A,B,C] and [s,A,C-B,C] with A=1, B=2, C=5
        c = coll((1, 1, 2, 5), (1, 1, 3, 5))
        moves = [m for m in applicable_moves(c) if m.op == 3]
        params = {m.params for m in moves}
        assert (1, 2, 5) in params
        m = next(m for m in moves if m.params == (1, 2, 5))
        after = apply_move(c, m)
        # the A-B = -1 entries canonicalize by flipping the class sign
        assert after == coll((1, 1, 3, 4), (1, 1, 2, 3), (-1, 1, 1, 3), (1, 1, 1, 4))

    def test_op4_instance(self):
        # [s,A,A,C] and [s,A,C-A,C] with A=1, C=3
        c = coll((1, 1, 1, 3), (1, 1, 2, 3))
        moves = [m for m in applicable_moves(c) if m.op == 4]
        assert any(m.params == (1, 3) for m in moves)
        m = next(m for m in moves if m.params == (1, 3))
        after = apply_move(c, m)
        assert after == coll((1, 2, 1, 1), (1, 2, 1, 1), (1, 2, 1, 1), (-1, 1, 1, 1))

    def test_op4_degenerate_rejected(self):
        # C = 2A would create a zero weight; no op-4 instance is offered
        c = coll((1, 1, 1, 2), (1, 1, 1, 2))
        assert all(m.op != 4 for m in applicable_moves(c))

    def test_op5_instance(self):
        c = coll((1, 3, 1, 1), (-1, 3, 2, 2))
        moves = [m for m in applicable_moves(c) if m.op == 5]
        assert any(m.params == (1, 3) for m in moves)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            applicable_moves(Counter([FixedPointDatum(1, (1, 2))]))

    def test_deterministic_order(self):
        c = collection_from_data(gen_cp3(1, 2, 3))
        assert applicable_moves(c) == applicable_moves(Counter(c))


class TestApplyMove:
    def test_stale_move(self):
        c = coll((1, 2, 3, 5), (-1, 2, 3, 5))
        move = applicable_moves(c)[0]
        emptied = apply_move(c, move)
        with pytest.raises(StaleMoveError):
            apply_move(emptied, move)

    def test_does_not_mutate(self):
        c = coll((1, 2, 3, 5), (-1, 2, 3, 5))
        before = Counter(c)
        apply_move(c, applicable_moves(c)[0])
        assert c == before


class TestReduceToEmpty:
    def test_cp3_script(self):
        trace = reduce_to_empty(collection_from_data(gen_cp3(1, 2, 3)))
        assert isinstance(trace, RewriteTrace)
        ops = [(m.op, m.params) for m in trace.moves]
        assert ops[0] == (2, (1, 3, 6))
        assert [op for op, _ in ops[1:]] == [1, 1]
        trace.replay()

    def test_sphere_pair_script(self):
        trace = reduce_to_empty(collection_from_data(gen_s6_pair(1, 2, 3, 4, 5, 6)))
        assert [m.op for m in trace.moves] == [1, 1]

    def test_grid_short_traces(self):
        for a, b, c in itertools.product(range(1, 3), repeat=3):
            trace = reduce_to_empty(collection_from_data(gen_cp3(a, b, c)))
            assert isinstance(trace, RewriteTrace)
            assert len(trace.moves) <= 3
            trace.replay()

    def test_search_strategy_agrees(self):
        c = collection_from_data(gen_cp3(2, 1, 2))
        auto = reduce_to_empty(c)
        searched = _deepening_search(c, 12)
        assert isinstance(searched, RewriteTrace)
        for t in (auto, searched):
            states = t.replay()
            assert states[-1] == Counter()

    def test_empty_collection(self):
        trace = reduce_to_empty(Counter())
        assert trace.initial == () and trace.moves == ()
        assert trace.replay() == [Counter()]

    def test_irreducible_reports_failure(self):
        res = reduce_to_empty(coll((1, 1, 1, 1)), max_depth=3)
        assert isinstance(res, ReductionFailure)
        # one state per depth: the lone class admits no move
        assert res.depth == 3 and res.states_explored == 3

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError, match="max_depth must be at least 0, got -1"):
            reduce_to_empty(coll((1, 1, 2, 3), (-1, 1, 2, 3)), max_depth=-1)

    def test_noncanonical_rejected(self):
        # a class is held as its canonical FixedPointDatum, so a
        # non-canonical one cannot be built, let alone reduced
        with pytest.raises(InvalidWeightError):
            FixedPointDatum(1, (-1, 2, 3))

    def test_eight_point_union(self):
        c = collection_from_data(gen_s6_pair(1, 2, 3, 1, 2, 3)) + collection_from_data(
            gen_s6_pair(2, 2, 4, 1, 1, 5)
        )
        trace = reduce_to_empty(c)
        assert isinstance(trace, RewriteTrace)
        assert all(m.op == 1 for m in trace.moves) and len(trace.moves) == 4


class TestTrace:
    def test_json_lines(self):
        trace = reduce_to_empty(collection_from_data(gen_cp3(1, 1, 1)))
        lines = trace.to_json_lines().strip().splitlines()
        assert len(lines) == len(trace.moves)
        for line in lines:
            rec = json.loads(line)
            assert set(rec) == {"op", "orientation", "params", "removed", "added"}

    def test_replay_detects_corruption(self):
        trace = reduce_to_empty(collection_from_data(gen_cp3(1, 1, 1)))
        bad = RewriteTrace(trace.initial, trace.moves[:-1])
        with pytest.raises(AssertionError, match="empty collection"):
            bad.replay()

    def test_json_lines_bytes(self):
        """The JSON trace of searched reductions, byte for byte, against a
        formatter of the bracket notation written here."""

        def bracket(c):
            sign = "+" if c.sign == 1 else "-"
            return "[" + ",".join([sign] + [str(w) for w in c.weights]) + "]"

        def line(m):
            return json.dumps(
                {
                    "op": m.op,
                    "orientation": m.orientation,
                    "params": list(m.params),
                    "removed": [bracket(c) for c in m.removed],
                    "added": [bracket(c) for c in m.added],
                }
            )

        for parts in GENERATOR_UNIONS:
            trace = reduce_to_empty(collection_from_data(union_of(*parts)))
            assert trace.to_json_lines() == "".join(line(m) + "\n" for m in trace.moves)
        # a searched move that adds classes, printed in full
        d = union_of(gen_cp3(1, 2, 3), gen_s6(2, 3, 5))
        trace = reduce_to_empty(collection_from_data(d))
        assert line(trace.moves[1]) == (
            '{"op": 2, "orientation": -1, "params": [3, 5, 6], '
            '"removed": ["[-,3,5,6]", "[+,1,3,6]"], '
            '"added": ["[-,2,3,3]", "[+,1,2,5]"]}'
        )


def outcome(result) -> object:
    """What the CLI prints of a reduction: the failure record or every move."""
    if isinstance(result, ReductionFailure):
        return result.to_dict()
    return [m.to_dict() for m in result.moves]


def union_of(*parts):
    out = parts[0]
    for d in parts[1:]:
        out = disjoint_union(out, d)
    return out


def random_collection(rng: random.Random):
    """1-7 random arity-3 classes with weights at most 6."""
    return Counter(
        cls(rng.choice((-1, 1)), *(rng.randint(1, 6) for _ in range(3)))
        for _ in range(rng.randint(1, 7))
    )


# generator unions of 6-10 points, which reduce_to_empty reduces by search
GENERATOR_UNIONS = [
    # the 10-point scaling probe of the benchmark's unions workload
    (gen_s6(2, 3, 5), gen_cp3(1, 2, 3), gen_blowup(2, 1, 3)),
    (gen_s6(1, 2, 3), gen_cp3(1, 2, 3)),
    (gen_s6(1, 1, 4), gen_blowup(1, 2, 3)),
    (gen_s6(1, 2, 3), gen_s6(2, 2, 2), gen_s6(1, 3, 5)),
    (gen_s6(1, 2, 3), gen_s6(1, 2, 4), gen_cp3(2, 2, 2)),
    (gen_s6_pair(1, 2, 3, 2, 3, 4), gen_blowup(1, 1, 1), gen_s6(3, 4, 5)),
    (gen_s6(1, 2, 3), gen_s6(2, 3, 4), gen_s6(1, 1, 2), gen_s6(4, 5, 6), gen_s6(1, 5, 6)),
]


class TestAgainstOracle:
    """The tuple-based move table and search against the former route that
    builds every candidate as a RewriteMove and regenerates moves at every
    expansion (tests/rewrite_oracle.py)."""

    def test_applicable_moves_random(self, rng):
        for _ in range(3000):
            c = random_collection(rng)
            got = [m.to_dict() for m in applicable_moves(c)]
            assert got == [m.to_dict() for m in applicable_moves_by_filtering(c)], c

    def test_failing_searches_random(self, rng):
        failures = 0
        for _ in range(150):
            c = random_collection(rng)
            for depth in (3, 4):
                got = reduce_to_empty(c, max_depth=depth)
                assert outcome(got) == outcome(
                    reduce_to_empty_by_regeneration(c, max_depth=depth)
                ), c
                failures += isinstance(got, ReductionFailure)
        assert failures > 250

    @pytest.mark.parametrize("gen", [gen_cp3, gen_blowup, gen_s6])
    def test_generators_by_search(self, gen):
        for a, b, c in itertools.product(range(1, 7), repeat=3):
            if a + b + c > 8:
                continue
            coll_ = collection_from_data(gen(a, b, c))
            got = _deepening_search(coll_, 12)
            assert isinstance(got, RewriteTrace)
            assert outcome(got) == outcome(search_by_regeneration(coll_))

    @pytest.mark.parametrize("parts", GENERATOR_UNIONS)
    def test_generator_unions(self, parts):
        coll_ = collection_from_data(union_of(*parts))
        assert 6 <= sum(coll_.values()) <= 10
        got = reduce_to_empty(coll_)
        assert isinstance(got, RewriteTrace)
        assert outcome(got) == outcome(reduce_to_empty_by_regeneration(coll_))


class TestCaseScript:
    """The closed-form 4-point scripts against the former script, which
    searched the applicable moves for its op-1 moves
    (tests/rewrite_oracle.py)."""

    @staticmethod
    def scripts(d):
        c = collection_from_data(d)
        got, want = _case_script(c), case_script_by_search(c)
        assert want is not None
        assert [m.to_dict() for m in got] == [m.to_dict() for m in want], d
        return got

    @pytest.mark.parametrize("gen", [gen_cp3, gen_blowup])
    def test_template_grid(self, gen):
        for a, b, c in itertools.product(range(1, 7), repeat=3):
            assert len(self.scripts(gen(a, b, c))) in (2, 3)

    def test_sphere_pairs(self):
        for params in itertools.product(range(1, 4), repeat=6):
            assert [m.op for m in self.scripts(gen_s6_pair(*params))] == [1, 1]

    def test_not_a_known_shape(self):
        lone = coll((1, 1, 1, 1))
        four = coll((1, 1, 2, 3), (-1, 1, 2, 3), (1, 1, 1, 1), (1, 1, 1, 1))
        for c in (lone, four):
            assert _case_script(c) is None and case_script_by_search(c) is None

    def test_no_check_suite_for_other_data(self, monkeypatch):
        # matching neither case is decided without the check suite, which
        # classify_6d4fp runs only to explain its verdict
        c = coll((1, 1, 2, 3), (1, 1, 2, 3), (-1, 1, 1, 1), (-1, 2, 2, 2))

        def refuse(d):
            raise AssertionError("run_all called")

        monkeypatch.setattr(constraints, "run_all", refuse)
        assert _case_script(c) is None


@st.composite
def generator_union(draw):
    """At most one projective-space or blow-up datum and up to three sphere
    rotations, all with parameters at most 3: 2-10 points."""
    small = st.integers(1, 3)
    parts = [
        gen_s6(draw(small), draw(small), draw(small))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if not parts or draw(st.booleans()):
        gen = draw(st.sampled_from([gen_cp3, gen_blowup]))
        parts.append(gen(draw(small), draw(small), draw(small)))
    return union_of(*parts)


class TestPointOrder:
    @settings(max_examples=200, deadline=None)
    @given(generator_union(), st.randoms(use_true_random=False))
    def test_trace_independent_of_point_order(self, d, order):
        points = list(d.points)
        order.shuffle(points)
        first = reduce_to_empty(collection_from_data(d))
        again = reduce_to_empty(collection_from_data(FixedPointData(tuple(points))))
        assert isinstance(first, RewriteTrace)
        assert outcome(again) == outcome(first)
        assert again.initial == first.initial
        assert first.replay()[-1] == Counter()
