"""Desk-scale enumeration oracle.

Enumerates every canonical fixed-point data of a given shape (number of
points, arity, weight bound) up to point permutation, runs the constraint
suite with cheap checks first, tests for an admissible 4-vertex multigraph
matching one of the five shapes, and cross-tabulates the survivors against
the classification.

The per-candidate work is done once per point kind, before the walk: each
of the 2·C(W+arity−1, arity) kinds gets its printed form and a weight-parity
mask (bit w set iff w occurs an odd number of times in the kind).  A
candidate is a multiset of kind indices; it fails weight parity exactly when
the XOR of its kinds' masks is nonzero, and then its row is written without
building a ``FixedPointData``.  Only the zero-mask candidates (16,786 of
123,410 at four points, arity 3, W = 4) run the full check suite, the graph
tagging and the classification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import FixedPointData, FixedPointDatum
from . import constraints
from .classify import NotInClassification, UnsupportedShape, classify, figure1_taggable
from .multigraph import enumerate_admissible, match_figure1


def point_kinds(arity: int, max_weight: int) -> list[FixedPointDatum]:
    """Every point of the given arity with weights <= max_weight, sorted by
    (sign, weights)."""
    weight_tuples = list(
        itertools.combinations_with_replacement(range(1, max_weight + 1), arity)
    )
    return [FixedPointDatum(sign, ws) for sign in (-1, 1) for ws in weight_tuples]


def parity_mask(p: FixedPointDatum) -> int:
    """Bit w is set iff the weight w occurs an odd number of times in p."""
    mask = 0
    for w in p.weights:
        mask ^= 1 << w
    return mask


def enumerate_candidates(
    points: int, arity: int, max_weight: int
) -> Iterator[FixedPointData]:
    """All data with the given shape and weights <= max_weight, canonical
    up to permutation of the point list."""
    for combo in itertools.combinations_with_replacement(
        point_kinds(arity, max_weight), points
    ):
        yield FixedPointData(combo)


@dataclass(frozen=True)
class SweepRow:
    serialized: str
    checks_passed: bool
    failed_checks: tuple[str, ...]
    figure1_tags: tuple[str, ...]
    classification: str


def _cheap_then_full_checks(d: FixedPointData) -> tuple[bool, tuple[str, ...]]:
    """Run the suite in increasing cost order with early exit on failure.

    Weight parity is left out: ``sweep`` calls this only for candidates
    whose parity masks XOR to zero, which is exactly when that check
    passes."""
    cheap = [
        constraints.check_parity_dimension,
        constraints.check_uniform_weight_balance,
        constraints.check_smallest_weights,
        constraints.check_abbv,
    ]
    for check in cheap:
        r = check(d)
        if r.failed:
            return False, (r.name,)
    r = constraints.check_signature_constant(d)
    if r.failed:
        return False, (r.name,)
    failed = []
    for w in sorted({x for p in d.points for x in p.weights}):
        r = constraints.check_congruence_pairing(d, w)
        if r.failed:
            failed.append(r.name)
    return not failed, tuple(failed)


def classify_label(d: FixedPointData) -> str:
    try:
        verdict = classify(d)
    except UnsupportedShape:
        return ""
    labels = []
    for m in verdict.matches:
        if isinstance(m, NotInClassification):
            labels.append("NotInClassification")
        else:
            labels.append(type(m).__name__.replace("Match", ""))
    return "+".join(sorted(set(labels)))


def _checked_row(d: FixedPointData, serialized: str) -> SweepRow:
    """The row of a candidate that passes weight parity."""
    ok, failed = _cheap_then_full_checks(d)
    tags: tuple[str, ...] = ()
    classification = ""
    if ok:
        if figure1_taggable(d):
            found = []
            for g in enumerate_admissible(d):
                case = match_figure1(g)
                if case is not None:
                    found.append(case.tag)
            tags = tuple(sorted(set(found)))
        classification = classify_label(d)
    return SweepRow(serialized, ok, failed, tags, classification)


_PARITY_FAILED = ("weight_parity",)


def sweep(points: int = 4, arity: int = 3, max_weight: int = 3) -> list[SweepRow]:
    """Full oracle run; rows are emitted for every candidate, sorted."""
    kinds = point_kinds(arity, max_weight)
    texts = [str(p) for p in kinds]
    masks = [parity_mask(p) for p in kinds]
    rows = []
    for combo in itertools.combinations_with_replacement(range(len(kinds)), points):
        mask = 0
        for i in combo:
            mask ^= masks[i]
        serialized = "; ".join([texts[i] for i in combo])
        if mask:
            rows.append(SweepRow(serialized, False, _PARITY_FAILED, (), ""))
        else:
            d = FixedPointData(tuple(kinds[i] for i in combo))
            rows.append(_checked_row(d, serialized))
    rows.sort(key=lambda r: r.serialized)
    return rows


def survivors(rows: list[SweepRow]) -> list[SweepRow]:
    """Rows passing every check and possessing a tagged admissible graph."""
    return [r for r in rows if r.checks_passed and r.figure1_tags]


def to_csv(rows: list[SweepRow]) -> str:
    lines = ["data,checks_passed,failed_checks,figure1_tags,classification"]
    for r in rows:
        lines.append(
            '"{}",{},{},{},{}'.format(
                r.serialized,
                int(r.checks_passed),
                "|".join(r.failed_checks),
                "|".join(r.figure1_tags),
                r.classification,
            )
        )
    return "\n".join(lines) + "\n"
