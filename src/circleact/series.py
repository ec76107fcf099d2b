"""Exact integer arithmetic for the equivariant signature identity.

The signature of an oriented manifold with isolated fixed points equals

    f(t) = sum_p eps(p) * prod_i (1 + t^{w_pi}) / (1 - t^{w_pi})

for every indeterminate t, and is a constant.  Over the common denominator
Den = prod (1 - t^w), whose degree is the sum S of the weights and whose
value at t=0 is 1, f - f(0) = P/Den with deg P <= S.  So f is constant
exactly when its power series vanishes in degrees 1..S, and otherwise the
first nonzero coefficient there is the least degree of P.  Points with equal
weights are merged first (their signs add), and S counts each merged weight
tuple once; a tuple whose signs cancel drops out of f and of S.

Each point's series through t^S comes from the integer recurrence
h[i] = g[i] + g[i-w] + h[i-w], one pass per weight, which multiplies g by
(1 + t^w)/(1 - t^w).  The signed sum of those series decides constancy.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import FixedPointData

# Largest degree the kernel expands to.  Time and memory grow linearly with
# it, so larger requests (huge weights, or a huge --order) are refused with
# a ValueError instead of exhausting memory.
MAX_DEGREE = 10**6


class TruncatedSeries:
    """Order-N truncated series: exact coefficients for t^0..t^N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=None):
        if order < 0:
            raise ValueError("order must be non-negative")
        self.order = order
        if coeffs is None:
            self.coeffs = [0] * (order + 1)
        else:
            coeffs = list(coeffs)
            if len(coeffs) != order + 1:
                raise ValueError("coefficient list does not match order")
            self.coeffs = coeffs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"TruncatedSeries(order={self.order}, coeffs={self.coeffs})"


def _net_signs(d: FixedPointData) -> dict[tuple[int, ...], int]:
    """Sum of the signs of the points carrying each weight tuple, zeros dropped."""
    if not d.points:
        raise ValueError("signature sum needs non-empty data")
    signs: Counter = Counter()
    for p in d.points:
        signs[p.weights] += p.sign
    return {weights: sign for weights, sign in signs.items() if sign}


def check_order(order: int) -> None:
    """Refuse (ValueError) a series order outside 0..MAX_DEGREE."""
    if order < 0:
        raise ValueError("order must be non-negative")
    if order > MAX_DEGREE:
        raise ValueError(
            f"signature series through degree {order} exceeds the "
            f"supported degree {MAX_DEGREE}"
        )


def _series(signs: dict[tuple[int, ...], int], length: int) -> list[int]:
    """Coefficients of t^0..t^(length-1) of sum sign * prod (1+t^w)/(1-t^w)."""
    check_order(length - 1)
    total = [0] * length
    for weights, sign in signs.items():
        g = [0] * length
        g[0] = 1
        for w in weights:
            h = g[:]
            for i in range(w, length):
                h[i] = g[i] + g[i - w] + h[i - w]
            g = h
        for i, c in enumerate(g):
            if c:
                total[i] += sign * c
    return total


def signature_series(d: FixedPointData, order: int) -> TruncatedSeries:
    """sum_p eps(p) * prod_i (1+t^w_pi)/(1-t^w_pi) through t^order, exactly."""
    check_order(order)
    return TruncatedSeries(order, _series(_net_signs(d), order + 1))


@dataclass(frozen=True)
class SignatureResult:
    """Outcome of the exact constancy check of the signature sum."""

    constant: Optional[Fraction]
    witness_degree: Optional[int]

    @property
    def is_constant(self) -> bool:
        return self.constant is not None


def signature_exact(d: FixedPointData) -> SignatureResult:
    """Decide whether the signature sum is a constant rational function.

    Expands the sum through t^S, S the degree of its common denominator.
    Returns the constant on success, otherwise the least positive degree
    with a nonzero coefficient.
    """
    signs = _net_signs(d)
    bound = sum(sum(weights) for weights in signs)
    total = _series(signs, bound + 1)
    for degree in range(1, bound + 1):
        if total[degree]:
            return SignatureResult(constant=None, witness_degree=degree)
    return SignatureResult(constant=Fraction(total[0]), witness_degree=None)


def signature_value(d: FixedPointData) -> Fraction:
    """sum_p eps(p): the t=0 value of the signature sum."""
    return Fraction(sum(p.sign for p in d.points))
