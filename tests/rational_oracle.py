"""Independent rational-function route to the signature sum, for tests only.

The package decides the signature identity with an integer recurrence
(``circleact.series``).  This module keeps a second route that shares no
code with it: sparse polynomials over ``Fraction``, the unreduced numerator
over the common denominator prod (1 - t^w), power-series division, and the
product of per-weight factor series.  Tests compare the two routes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from circleact.core import FixedPointData
from circleact.series import SignatureResult, TruncatedSeries


class RationalPolynomial:
    """Sparse polynomial over Q: map exponent -> nonzero coefficient."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[dict] = None):
        self.coeffs = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[e] = c

    @classmethod
    def constant(cls, value) -> "RationalPolynomial":
        return cls({0: Fraction(value)})

    @classmethod
    def one_plus(cls, w: int) -> "RationalPolynomial":
        """1 + t^w"""
        return cls({0: Fraction(1), w: Fraction(1)})

    @classmethod
    def one_minus(cls, w: int) -> "RationalPolynomial":
        """1 - t^w"""
        return cls({0: Fraction(1), w: Fraction(-1)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no minimal degree")
        return min(self.coeffs)

    def coefficient(self, e: int) -> Fraction:
        return self.coeffs.get(e, Fraction(0))

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            elif e in out:
                del out[e]
        res = RationalPolynomial()
        res.coeffs = out
        return res

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + other.scale(-1)

    def __mul__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                elif e in out:
                    del out[e]
        res = RationalPolynomial()
        res.coeffs = out
        return res

    def scale(self, value) -> "RationalPolynomial":
        value = Fraction(value)
        res = RationalPolynomial()
        if value:
            res.coeffs = {e: c * value for e, c in self.coeffs.items()}
        return res

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "RationalPolynomial(0)"
        terms = " + ".join(f"{c}*t^{e}" for e, c in sorted(self.coeffs.items()))
        return f"RationalPolynomial({terms})"

    def truncated(self, order: int) -> list[Fraction]:
        """Coefficients of t^0..t^order."""
        out = [Fraction(0)] * (order + 1)
        for e, c in self.coeffs.items():
            if 0 <= e <= order:
                out[e] = c
        return out


def signature_rational_parts(
    d: FixedPointData,
) -> tuple[RationalPolynomial, RationalPolynomial]:
    """Numerator and common denominator of the signature sum, unreduced."""
    if not d.points:
        raise ValueError("needs non-empty data")
    denominator = RationalPolynomial.constant(1)
    for p in d.points:
        for w in p.weights:
            denominator = denominator * RationalPolynomial.one_minus(w)
    numerator = RationalPolynomial()
    for p in d.points:
        term = RationalPolynomial.constant(p.sign)
        for w in p.weights:
            term = term * RationalPolynomial.one_plus(w)
        for q in d.points:
            if q is p:
                continue
            for w in q.weights:
                term = term * RationalPolynomial.one_minus(w)
        numerator = numerator + term
    return numerator, denominator


def rational_signature_exact(d: FixedPointData) -> SignatureResult:
    """Constancy by comparing numerator with constant * denominator."""
    numerator, denominator = signature_rational_parts(d)
    # If numerator = c * denominator, then c = numerator(0) since den(0) = 1.
    c = numerator.coefficient(0)
    difference = numerator - denominator.scale(c)
    if difference.is_zero():
        return SignatureResult(constant=c, witness_degree=None)
    return SignatureResult(constant=None, witness_degree=difference.min_degree())


def quotient_series(
    numerator: RationalPolynomial, denominator: RationalPolynomial, order: int
) -> TruncatedSeries:
    """Order-N series of numerator/denominator; requires denominator(0) != 0."""
    a = denominator.truncated(order)
    if not a[0]:
        raise ValueError("denominator must be a unit at t=0")
    b = numerator.truncated(order)
    out = [Fraction(0)] * (order + 1)
    for k in range(order + 1):
        acc = b[k]
        for j in range(1, k + 1):
            if a[j]:
                acc -= a[j] * out[k - j]
        out[k] = acc / a[0]
    return TruncatedSeries(order, out)


def factor_series(w: int, order: int) -> TruncatedSeries:
    """Order-N expansion of (1+t^w)/(1-t^w): 1 + 2*sum_{j>=1, jw<=N} t^{jw}."""
    if w < 1:
        raise ValueError("weight must be positive")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[0] = Fraction(1)
    for e in range(w, order + 1, w):
        coeffs[e] = Fraction(2)
    return TruncatedSeries(order, coeffs)


def series_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Truncated Cauchy product of two series of the same order."""
    if a.order != b.order:
        raise ValueError("order mismatch")
    n = a.order
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a.coeffs):
        if not x:
            continue
        for j, y in enumerate(b.coeffs[: n - i + 1]):
            if y:
                out[i + j] += x * y
    return TruncatedSeries(n, out)


def product_signature_series(d: FixedPointData, order: int) -> TruncatedSeries:
    """sum_p eps(p) * prod_i factor_series(w_pi, N) by explicit products."""
    if not d.points:
        raise ValueError("signature series needs non-empty data")
    total = [Fraction(0)] * (order + 1)
    for p in d.points:
        term = TruncatedSeries(order, [1] + [0] * order)
        for w in p.weights:
            term = series_product(term, factor_series(w, order))
        total = [s + p.sign * c for s, c in zip(total, term.coeffs)]
    return TruncatedSeries(order, total)
