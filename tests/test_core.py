import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact.core import (
    DimensionMismatchError,
    FixedPointData,
    FixedPointDatum,
    InvalidWeightError,
    ParseError,
    canonical_form,
    data,
    disjoint_union,
    from_complex_weights,
    from_json,
    parse,
    reverse_orientation,
    serialize,
    to_json,
)
from conftest import random_data

PETRIE_TEXT = "+ 7 2 3\n- 7 2 3\n+ 5 2 3\n- 5 2 3"


def petrie():
    return data((1, 7, 2, 3), (-1, 7, 2, 3), (1, 5, 2, 3), (-1, 5, 2, 3))


class TestCanonicalize:
    """canonical_form: the canonical representative of a signed class."""

    def test_one_negation_flips_sign(self):
        assert canonical_form(1, (-1, 2, 3)) == (-1, (1, 2, 3))

    def test_already_canonical(self):
        assert canonical_form(1, (1, 2, 3)) == (1, (1, 2, 3))

    def test_two_negations_preserve_sign(self):
        assert canonical_form(-1, (-7, -2, 3)) == (-1, (2, 3, 7))

    def test_zero_weight_rejected(self):
        # a class with a zero weight has no canonical FixedPointDatum
        with pytest.raises(InvalidWeightError):
            FixedPointDatum(*canonical_form(1, (0, -2)))

    def test_idempotent(self, rng):
        for _ in range(300):
            n = rng.randint(1, 4)
            ws = tuple(rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n))
            once = canonical_form(rng.choice((-1, 1)), ws)
            assert canonical_form(*once) == once


class TestFromComplexWeights:
    def test_petrie_point(self):
        assert from_complex_weights((7, 2, 3)) == FixedPointDatum(1, (7, 2, 3))

    def test_one_negative(self):
        # {-a, b, b+c} at a=b=c=1
        assert from_complex_weights((-1, 1, 2)) == FixedPointDatum(-1, (1, 1, 2))

    def test_three_negatives(self):
        assert from_complex_weights((-1, -2, -3)) == FixedPointDatum(-1, (1, 2, 3))

    def test_zero_rejected(self):
        with pytest.raises(InvalidWeightError):
            from_complex_weights((0, 1))

    def test_agrees_with_canonicalization(self, rng):
        for _ in range(300):
            n = rng.randint(1, 4)
            ws = tuple(rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n))
            negated = sum(w < 0 for w in ws)
            want = FixedPointDatum((-1) ** negated, tuple(abs(w) for w in ws))
            assert from_complex_weights(ws) == want


class TestDisjointUnion:
    def test_two_spheres(self):
        got = disjoint_union(
            data((1, 1, 2, 3), (-1, 1, 2, 3)), data((1, 4, 5, 6), (-1, 4, 5, 6))
        )
        want = data((1, 1, 2, 3), (-1, 1, 2, 3), (1, 4, 5, 6), (-1, 4, 5, 6))
        assert got.same_as(want)

    def test_identity_with_empty(self):
        x = data((1, 1, 2), (-1, 1, 2))
        assert disjoint_union(x, FixedPointData(())).same_as(x)
        assert disjoint_union(FixedPointData(()), FixedPointData(())).points == ()

    def test_arity_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            disjoint_union(data((1, 1, 2)), data((1, 1, 2, 3)))

    def test_commutative_associative(self, rng):
        for _ in range(100):
            n = rng.randint(1, 3)
            parts = [
                random_data(rng, max_points=3, max_arity=n, allow_empty=True)
                for _ in range(3)
            ]
            parts = [
                FixedPointData(
                    tuple(
                        FixedPointDatum(p.sign, (p.weights + (1,) * n)[:n])
                        for p in part.points
                    )
                )
                for part in parts
            ]
            x, y, z = parts
            assert disjoint_union(x, y).same_as(disjoint_union(y, x))
            assert disjoint_union(disjoint_union(x, y), z).same_as(
                disjoint_union(x, disjoint_union(y, z))
            )


class TestReverseOrientation:
    def test_swap(self):
        got = reverse_orientation(data((1, 1, 2, 3), (-1, 1, 2, 3)))
        assert got.same_as(data((-1, 1, 2, 3), (1, 1, 2, 3)))

    def test_involution(self, rng):
        for _ in range(100):
            d = random_data(rng, allow_empty=True)
            assert reverse_orientation(reverse_orientation(d)).points == d.points

    def test_petrie_signs_flip(self):
        got = reverse_orientation(petrie())
        assert [p.sign for p in got.points] == [-1, 1, -1, 1]


class TestTextFormat:
    def test_petrie(self):
        assert parse(PETRIE_TEXT).same_as(petrie())

    def test_empty(self):
        assert parse("").points == ()

    def test_zero_weight_fails_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse("+ 1 2 3\n+ 1 0 2")
        assert exc.value.line_no == 2

    def test_bad_sign(self):
        with pytest.raises(ParseError):
            parse("* 1 2")

    def test_inconsistent_arity(self):
        with pytest.raises(ParseError) as exc:
            parse("+ 1 2\n- 1 2 3")
        assert exc.value.line_no == 2

    @pytest.mark.parametrize(
        "token", ["1_0", "\u0663", "+3", "2.5", "x", "\u00b2", "-"]
    )
    def test_non_decimal_weight_fails_with_line(self, token):
        # int() would read "1_0" as 10 and the Arabic-Indic digit as 3
        with pytest.raises(ParseError, match="non-integer weight") as exc:
            parse(f"+ 1 2 3\n- 1 {token} 3\n")
        assert exc.value.line_no == 2

    def test_negative_weight_is_not_positive(self):
        with pytest.raises(ParseError, match="weights must be positive integers"):
            parse("+ 1 -2 3\n")

    def test_comments_and_blanks(self):
        text = "# header\n\n+ 1 2\n  \n- 1 2\n"
        assert parse(text).same_as(data((1, 1, 2), (-1, 1, 2)))

    def test_round_trip_random(self, rng):
        for _ in range(200):
            d = random_data(rng, max_points=5, max_arity=4, allow_empty=True)
            assert parse(serialize(d)).points == d.points
            assert from_json(to_json(d)).points == d.points

    def test_json_shape(self):
        d = data((1, 7, 2, 3))
        assert to_json(d) == '{"points": [{"sign": 1, "weights": [2, 3, 7]}]}'


class TestJsonFormat:
    @pytest.mark.parametrize(
        "text",
        [
            '{"x": 1}',
            '[]',
            '{"points": {"a": 1}}',
            '{"points": [1]}',
            '{"points": [{"sign": 1}]}',
            '{"points": [{"sign": 1, "weights": ["a"]}]}',
            '{"points": [{"sign": 1, "weights": 3}]}',
            '{"points": [{"sign": 1, "weights": []}]}',
            '{"points": [{"sign": 1, "weights": [0, 2]}]}',
            '{"points": [{"sign": 1, "weights": [2.0]}]}',
            '{"points": [{"sign": 1, "weights": [true, 2]}]}',
            '{"points": [{"sign": true, "weights": [1, 2]}]}',
            '{"points": [{"sign": 2, "weights": [1, 2]}]}',
            '{"points": [{"sign": "+", "weights": [1, 2]}]}',
            '{"points": [{"sign": 1, "weights": [1]}, {"sign": -1, "weights": [1, 2]}]}',
            '{"points": ' + "[" * 100000 + "]" * 100000 + "}",
        ],
    )
    def test_malformed_is_parse_error(self, text):
        with pytest.raises(ParseError) as exc:
            from_json(text)
        assert exc.value.line_no is None

    def test_where_is_reported(self):
        with pytest.raises(ParseError, match=r"points\[1\]: sign"):
            from_json('{"points": [{"sign": 1, "weights": [1]}, {"sign": 0, "weights": [1]}]}')

    def test_empty_points(self):
        assert from_json('{"points": []}').points == ()


class TestInvariants:
    def test_weights_sorted(self):
        assert FixedPointDatum(1, (3, 1, 2)).weights == (1, 2, 3)

    def test_mixed_arity_rejected(self):
        with pytest.raises(DimensionMismatchError):
            FixedPointData((FixedPointDatum(1, (1,)), FixedPointDatum(1, (1, 2))))

    def test_dimension(self):
        assert data((1, 1, 2, 3)).dimension == 6


@st.composite
def fixed_point_data(draw):
    arity = draw(st.integers(1, 3))
    point = st.builds(
        FixedPointDatum,
        st.sampled_from((-1, 1)),
        st.lists(st.integers(1, 50), min_size=arity, max_size=arity).map(tuple),
    )
    return FixedPointData(tuple(draw(st.lists(point, max_size=6))))


class TestRoundTripProperties:
    @settings(max_examples=200, deadline=None)
    @given(fixed_point_data())
    def test_text_round_trip(self, d):
        assert parse(serialize(d)) == d

    @settings(max_examples=200, deadline=None)
    @given(fixed_point_data())
    def test_json_round_trip(self, d):
        assert from_json(to_json(d)) == d
