"""Generators for the worked families of fixed-point data.

These are the standard constructions: sphere rotations and their disjoint
unions, the linear projective-space action in complex dimensions 2 and 3,
and the blow-up of a sphere rotation at a fixed point (built from its
complex weight lists, so it exercises the complex-to-real conversion).
"""

from __future__ import annotations

from .classify import cp3_template
from .core import (
    FixedPointData,
    data,
    disjoint_union,
    from_complex_weights,
)


def _require_positive(*params: int) -> None:
    for v in params:
        if v < 1:
            raise ValueError(f"parameters must be positive, got {v}")


def gen_s6(a: int, b: int, c: int) -> FixedPointData:
    """Rotation of the 6-sphere: two fixed points with opposite signs."""
    _require_positive(a, b, c)
    return data((1, a, b, c), (-1, a, b, c))


def gen_s6_pair(a: int, b: int, c: int, d: int, e: int, f: int) -> FixedPointData:
    """Disjoint union (equivariant connected sum) of two sphere rotations."""
    _require_positive(a, b, c, d, e, f)
    return disjoint_union(gen_s6(a, b, c), gen_s6(d, e, f))


def gen_cp3(a: int, b: int, c: int) -> FixedPointData:
    """Linear circle action on complex projective 3-space."""
    _require_positive(a, b, c)
    return cp3_template(a, b, c)


def gen_blowup(a: int, b: int, c: int) -> FixedPointData:
    """Blow-up of a sphere rotation at one fixed point.

    Constructed from the complex weight lists of the four resulting fixed
    points; as a multiset this equals gen_cp3(a, b, c).
    """
    _require_positive(a, b, c)
    complex_weights = [
        (c, b, a + b),                       # the untouched pole
        (-c, b + c, a + b + c),              # exceptional points
        (-b - c, a, b),
        (-a - b - c, -a, a + b),
    ]
    return FixedPointData(tuple(from_complex_weights(ws) for ws in complex_weights))


def gen_cp2(a: int, b: int) -> FixedPointData:
    """Linear circle action on complex projective 2-space (dimension 4)."""
    _require_positive(a, b)
    return data((1, a, a + b), (-1, a, b), (1, b, a + b))


GENERATORS = {
    "s6": (gen_s6, 3),
    "s6pair": (gen_s6_pair, 6),
    "cp3": (gen_cp3, 3),
    "blowup": (gen_blowup, 3),
    "cp2": (gen_cp2, 2),
}
