import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circleact.core import FixedPointData, data, disjoint_union, reverse_orientation
from circleact.generators import gen_cp2, gen_cp3, gen_s6_pair
from circleact.series import (
    MAX_DEGREE,
    TruncatedSeries,
    signature_exact,
    signature_series,
    signature_value,
)
from conftest import even_data, random_data
from rational_oracle import (
    RationalPolynomial,
    factor_series,
    product_signature_series,
    quotient_series,
    rational_signature_exact,
    signature_rational_parts,
)

# Lemma 5.6 case (ii) family at a=2, c=1: not realizable.
NEG1 = data((1, 2, 4, 1), (1, 2, 3, 1), (-1, 4, 3, 2), (-1, 1, 1, 2))


def F(*values):
    return [Fraction(v) for v in values]


def verdict(res):
    return res.constant, res.witness_degree


class TestFactorSeries:
    def test_w1(self):
        assert factor_series(1, 3).coeffs == F(1, 2, 2, 2)

    def test_w2(self):
        assert factor_series(2, 5).coeffs == F(1, 0, 2, 0, 2, 0)

    def test_below_first_term(self):
        assert factor_series(7, 5).coeffs == F(1, 0, 0, 0, 0, 0)

    def test_nonpositive_weight(self):
        with pytest.raises(ValueError):
            factor_series(0, 3)

    def test_truncation_coherence(self, rng):
        for _ in range(100):
            w = rng.randint(1, 9)
            n = rng.randint(1, 30)
            shorter = rng.randint(0, n)
            head = factor_series(w, n).coeffs[: shorter + 1]
            assert TruncatedSeries(shorter, head) == factor_series(w, shorter)


class TestSignatureSeries:
    def test_sphere_cancels(self):
        s = signature_series(data((1, 2, 3, 5), (-1, 2, 3, 5)), 12)
        assert s == TruncatedSeries(12)

    def test_negative_instance_nonzero(self):
        # frozen via an independent symbolic series expansion of
        # sum eps * prod (1+t^w)/(1-t^w)
        s = signature_series(NEG1, 6)
        assert s.coeffs == F(0, 0, -4, -8, -16, -24, -36)
        assert any(s.coeffs[k] for k in range(1, 7))

    def test_cp3_zero(self):
        d = data((1, 1, 2, 3), (-1, 1, 1, 2), (1, 1, 1, 2), (-1, 1, 2, 3))
        assert signature_series(d, 10) == TruncatedSeries(10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            signature_series(FixedPointData(()), 3)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            signature_series(NEG1, -1)


class TestSignatureExact:
    def test_two_point_constant_zero(self):
        res = signature_exact(data((1, 4, 9), (-1, 4, 9)))
        assert res.is_constant and res.constant == 0

    def test_cp3_constant_zero(self):
        d = data((1, 1, 2, 3), (-1, 1, 1, 2), (1, 1, 1, 2), (-1, 1, 2, 3))
        res = signature_exact(d)
        assert res.is_constant and res.constant == 0

    def test_negative_instance_nonconstant(self):
        res = signature_exact(NEG1)
        assert not res.is_constant
        assert res.witness_degree == 2  # frozen via symbolic oracle

    def test_mirror_union_constant_zero(self, rng):
        for _ in range(50):
            d = random_data(rng, max_points=2, max_weight=5)
            res = signature_exact(disjoint_union(d, reverse_orientation(d)))
            assert res.is_constant and res.constant == 0

    def test_positive_dimension_zero_signature_survivor(self):
        # 6-dimensional data passing the suite must have signature 0
        res = signature_exact(data((1, 1, 2, 3), (-1, 1, 2, 3)))
        assert res.constant == 0

    def test_witness_at_truncation_bound(self):
        # {+,5}: S = 5 and (1+t^5)/(1-t^5) = 1 + 2t^5 + ..., so the only
        # deviation the kernel may see is its last coefficient.
        res = signature_exact(data((1, 5)))
        assert res.witness_degree == 5
        assert verdict(res) == verdict(rational_signature_exact(data((1, 5))))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            signature_exact(FixedPointData(()))

    def test_degree_limit(self):
        # S = 2 * MAX_DEGREE: refused before any list is allocated
        d = data((1, 1, MAX_DEGREE), (-1, 2, MAX_DEGREE - 1))
        with pytest.raises(ValueError, match="exceeds the supported degree"):
            signature_exact(d)
        with pytest.raises(ValueError, match="exceeds the supported degree"):
            signature_series(d, MAX_DEGREE + 1)


class TestSignatureValue:
    def test_petrie(self):
        d = data((1, 7, 2, 3), (-1, 7, 2, 3), (1, 5, 2, 3), (-1, 5, 2, 3))
        assert signature_value(d) == 0

    def test_two_plus(self):
        assert signature_value(data((1, 1, 1), (1, 1, 1))) == 2

    def test_empty(self):
        assert signature_value(FixedPointData(())) == 0

    def test_constant_sum_is_sum_of_signs(self, rng):
        """Each factor (1+t^w)/(1-t^w) is 1 at t=0, so a constant signature
        sum is sum_p eps(p); check_signature_constant relies on it."""
        constants = []
        for _ in range(2000):
            d = even_data(rng)
            result = signature_exact(d)
            if result.is_constant:
                assert result.constant == signature_value(d), d
                constants.append(result.constant)
        assert len(constants) > 200 and len(set(constants)) > 2


class TestCrossOracle:
    def test_series_matches_rational_truncation(self, rng):
        for _ in range(150):
            d = random_data(rng, max_points=4, max_arity=3, max_weight=6)
            order = rng.randint(1, 25)
            via_series = signature_series(d, order)
            num, den = signature_rational_parts(d)
            via_quotient = quotient_series(num, den, order)
            assert via_series == via_quotient

    def test_series_matches_factor_products(self, rng):
        for _ in range(150):
            d = random_data(rng, max_points=4, max_arity=3, max_weight=6)
            order = rng.randint(0, 25)
            assert signature_series(d, order) == product_signature_series(d, order)

    def test_exact_matches_rational_on_random_data(self, rng):
        for _ in range(300):
            d = random_data(rng, max_points=6, max_arity=3, max_weight=8)
            assert verdict(signature_exact(d)) == verdict(rational_signature_exact(d))

    def test_exact_matches_rational_on_mirror_unions(self, rng):
        for _ in range(100):
            d = random_data(rng, max_points=3, max_arity=3, max_weight=8)
            m = disjoint_union(d, reverse_orientation(d))
            res = signature_exact(m)
            assert res.constant == 0
            assert verdict(res) == verdict(rational_signature_exact(m))

    def test_exact_matches_rational_on_generators(self, rng):
        cases = [gen_cp3(a, b, 40 - a - b) for a, b in ((1, 1), (3, 17), (13, 14))]
        cases += [gen_cp3(a, b, c) for a, b, c in itertools.product((1, 4, 9), repeat=3)]
        cases += [gen_s6_pair(*(rng.randint(1, 40) for _ in range(6))) for _ in range(10)]
        cases += [gen_s6_pair(40, 1, 2, 3, 39, 40)]
        for d in cases:
            res = signature_exact(d)
            assert res.constant == 0
            assert verdict(res) == verdict(rational_signature_exact(d))
            # one weight raised by 1 breaks constancy at the same degree
            # on both routes
            p, *rest = d.points
            bumped = data((p.sign, *p.weights[:-1], p.weights[-1] + 1),
                          *((q.sign, *q.weights) for q in rest))
            assert verdict(signature_exact(bumped)) == verdict(
                rational_signature_exact(bumped)
            )


class TestPolynomials:
    def test_quotient_geometric(self):
        one = RationalPolynomial.constant(1)
        den = RationalPolynomial.one_minus(1)
        assert quotient_series(one, den, 4).coeffs == F(1, 1, 1, 1, 1)

    def test_quotient_needs_unit(self):
        t = RationalPolynomial({1: 1})
        with pytest.raises(ValueError):
            quotient_series(RationalPolynomial.constant(1), t, 3)

    def test_mul_sparse(self):
        p = RationalPolynomial.one_plus(3) * RationalPolynomial.one_minus(3)
        assert p == RationalPolynomial({0: 1, 6: -1})

    def test_no_zero_coefficients_stored(self):
        p = RationalPolynomial.one_plus(2) - RationalPolynomial.one_plus(2)
        assert p.is_zero() and p.coeffs == {}


# --- algebraic invariances of the kernel ------------------------------------

@st.composite
def fixed_point_data(draw, max_points=6, arities=(1, 2, 3), max_weight=8):
    arity = draw(st.sampled_from(arities))
    point = st.tuples(
        st.sampled_from((-1, 1)),
        *(st.integers(1, max_weight) for _ in range(arity)),
    )
    return data(*draw(st.lists(point, min_size=1, max_size=max_points)))


@st.composite
def constant_data(draw):
    """Data whose signature sum is constant: dimension-4 unions of
    projective-plane actions (signature +-1) and mirror unions (0)."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        part = gen_cp2(a, b)
        if draw(st.booleans()):
            part = reverse_orientation(part)
        parts.append(part)
    if draw(st.booleans()):
        d = draw(fixed_point_data(max_points=3, arities=(2,), max_weight=6))
        parts.append(disjoint_union(d, reverse_orientation(d)))
    out = parts[0]
    for part in parts[1:]:
        out = disjoint_union(out, part)
    return out


class TestKernelProperties:
    @settings(max_examples=150, deadline=None)
    @given(fixed_point_data(), st.data())
    def test_point_order_invariance(self, d, draws):
        shuffled = FixedPointData(tuple(draws.draw(st.permutations(d.points))))
        assert signature_exact(shuffled) == signature_exact(d)
        assert signature_series(shuffled, 12) == signature_series(d, 12)

    @settings(max_examples=150, deadline=None)
    @given(fixed_point_data())
    def test_reversal_negates_constant_keeps_witness(self, d):
        res = signature_exact(d)
        rev = signature_exact(reverse_orientation(d))
        assert rev.witness_degree == res.witness_degree
        assert rev.is_constant == res.is_constant
        if res.is_constant:
            assert rev.constant == -res.constant

    @settings(max_examples=100, deadline=None)
    @given(constant_data(), constant_data())
    def test_constant_additive_under_union(self, d1, d2):
        r1, r2 = signature_exact(d1), signature_exact(d2)
        assert r1.is_constant and r2.is_constant
        union = signature_exact(disjoint_union(d1, d2))
        assert union.constant == r1.constant + r2.constant
        assert union.constant == signature_value(d1) + signature_value(d2)
