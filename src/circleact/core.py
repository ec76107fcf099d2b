"""Canonical data model for fixed-point data of circle actions.

A fixed point of a circle action on a compact oriented 2n-manifold carries a
sign in {-1,+1} and a multiset of n positive integer weights.  This module
holds the immutable value types, parsing/serialization, and the basic
constructions (disjoint union, orientation reversal, complex-to-real
conversion).  A signed class of the rewriting system, a signed weight tuple
modulo flipping one weight and the sign together, is held as its canonical
representative: the ``FixedPointDatum`` of ``canonical_form``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


class InvalidWeightError(ValueError):
    """A weight is zero (or otherwise out of range)."""


class DimensionMismatchError(ValueError):
    """Two data sets of different arity were combined."""


class ParseError(ValueError):
    """Malformed input; text input carries a 1-based line number, JSON None."""

    def __init__(self, line_no: Optional[int], message: str):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


def _check_sign(sign: int) -> None:
    if sign not in (-1, 1):
        raise ValueError(f"sign must be -1 or +1, got {sign!r}")


@dataclass(frozen=True)
class FixedPointDatum:
    """One fixed point: sign and sorted multiset of positive weights."""

    sign: int
    weights: tuple[int, ...]

    def __post_init__(self):
        _check_sign(self.sign)
        if not self.weights:
            raise ValueError("a fixed point needs at least one weight")
        for w in self.weights:
            if w < 1:
                raise InvalidWeightError(f"weights must be positive, got {w}")
        object.__setattr__(self, "weights", tuple(sorted(self.weights)))

    @property
    def arity(self) -> int:
        return len(self.weights)

    def __str__(self) -> str:
        s = "+" if self.sign == 1 else "-"
        return "{%s,%s}" % (s, ",".join(str(w) for w in self.weights))


def canonical_form(sign: int, weights: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The canonical ``(sign, weights)`` of a signed weight tuple: weights
    made positive and sorted, the sign flipped once per negative entry."""
    for w in weights:
        if w < 0:
            sign = -sign
    return sign, tuple(sorted(map(abs, weights)))


def from_complex_weights(weights: Iterable[int]) -> FixedPointDatum:
    """Real fixed-point datum of a point with given complex weights.

    With n_neg negative entries the sign is (-1)**n_neg and the real weights
    are the absolute values.
    """
    ws = tuple(weights)
    for w in ws:
        if w == 0:
            raise InvalidWeightError("zero complex weight")
    return FixedPointDatum(*canonical_form(1, ws))


@dataclass(frozen=True)
class FixedPointData:
    """The fixed-point data of a manifold: points of uniform arity.

    List order is presentation only; all checks treat the points as a
    multiset.  The empty data is a valid value.
    """

    points: tuple[FixedPointDatum, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        arities = {p.arity for p in self.points}
        if len(arities) > 1:
            raise DimensionMismatchError(f"mixed arities {sorted(arities)}")

    @property
    def arity(self) -> int:
        if not self.points:
            raise ValueError("empty data has no arity")
        return self.points[0].arity

    @property
    def dimension(self) -> int:
        return 2 * self.arity

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def as_multiset(self) -> tuple[FixedPointDatum, ...]:
        return tuple(sorted(self.points, key=lambda p: (p.sign, p.weights)))

    def same_as(self, other: "FixedPointData") -> bool:
        return self.as_multiset() == other.as_multiset()

    def __str__(self) -> str:
        return ", ".join(str(p) for p in self.points)


def data(*points: Sequence) -> FixedPointData:
    """Shorthand constructor: data((+1, 1, 2, 3), (-1, 1, 2, 3))."""
    return FixedPointData(
        tuple(FixedPointDatum(p[0], tuple(p[1:])) for p in points)
    )


def disjoint_union(d1: FixedPointData, d2: FixedPointData) -> FixedPointData:
    if d1.points and d2.points and d1.arity != d2.arity:
        raise DimensionMismatchError(
            f"cannot union arity {d1.arity} with arity {d2.arity}"
        )
    return FixedPointData(d1.points + d2.points)


def reverse_orientation(d: FixedPointData) -> FixedPointData:
    """Negate every sign; weights unchanged.  Involutive."""
    return FixedPointData(
        tuple(FixedPointDatum(-p.sign, p.weights) for p in d.points)
    )


# --- text and JSON formats -------------------------------------------------
#
# Text: one point per line, "<sign> w1 w2 ... wn" with sign in {+,-};
# lines beginning with '#' are comments, blank lines are ignored.
# JSON mirror: {"points":[{"sign":1,"weights":[7,2,3]}, ...]}.

def is_decimal(token: str) -> bool:
    """An optionally negative ASCII decimal integer; int() alone would also
    read "1_0", "+3" and non-ASCII digits."""
    return token.isascii() and token.removeprefix("-").isdigit()


def parse(text: str) -> FixedPointData:
    points = []
    arity = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] not in ("+", "-"):
            raise ParseError(line_no, f"expected sign '+' or '-', got {tokens[0]!r}")
        sign = 1 if tokens[0] == "+" else -1
        if len(tokens) < 2:
            raise ParseError(line_no, "no weights on line")
        if not all(map(is_decimal, tokens[1:])):
            raise ParseError(line_no, f"non-integer weight in {tokens[1:]}")
        weights = tuple(int(t) for t in tokens[1:])
        if any(w < 1 for w in weights):
            raise ParseError(line_no, "weights must be positive integers")
        if arity is None:
            arity = len(weights)
        elif len(weights) != arity:
            raise ParseError(
                line_no, f"inconsistent arity: expected {arity}, got {len(weights)}"
            )
        points.append(FixedPointDatum(sign, weights))
    return FixedPointData(tuple(points))


def serialize(d: FixedPointData) -> str:
    lines = []
    for p in d.points:
        s = "+" if p.sign == 1 else "-"
        lines.append(" ".join([s] + [str(w) for w in p.weights]))
    return "\n".join(lines) + ("\n" if lines else "")


def to_json(d: FixedPointData) -> str:
    return json.dumps(
        {"points": [{"sign": p.sign, "weights": list(p.weights)} for p in d.points]}
    )


def from_json(text: str) -> FixedPointData:
    """Read the JSON mirror; any other structure is a ParseError.

    Signs and weights must be JSON integers: booleans and floats are
    rejected, as the text format rejects anything but decimal integers.
    """
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ParseError(None, "JSON nested too deeply") from None
    if not isinstance(obj, dict) or not isinstance(obj.get("points"), list):
        raise ParseError(None, 'expected an object {"points": [...]}')
    points = []
    arity = None
    for i, entry in enumerate(obj["points"]):
        where = f"points[{i}]"
        if not isinstance(entry, dict) or "sign" not in entry or "weights" not in entry:
            raise ParseError(None, f'{where}: expected an object with "sign" and "weights"')
        sign, weights = entry["sign"], entry["weights"]
        if type(sign) is not int or sign not in (-1, 1):
            raise ParseError(None, f"{where}: sign must be -1 or 1, got {sign!r}")
        if (
            not isinstance(weights, list)
            or not weights
            or any(type(w) is not int or w < 1 for w in weights)
        ):
            raise ParseError(
                None, f"{where}: weights must be a non-empty list of positive "
                f"integers, got {weights!r}"
            )
        if arity is None:
            arity = len(weights)
        elif len(weights) != arity:
            raise ParseError(
                None, f"{where}: inconsistent arity: expected {arity}, got {len(weights)}"
            )
        points.append(FixedPointDatum(sign, tuple(weights)))
    return FixedPointData(tuple(points))
