"""Desk-scale enumeration oracle.

Enumerates every canonical fixed-point data of a given shape (number of
points, arity, weight bound) up to point permutation, runs the constraint
suite with cheap checks first, tests for an admissible 4-vertex multigraph
matching one of the five shapes, and cross-tabulates the survivors against
the classification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import FixedPointData, FixedPointDatum
from . import constraints
from .classify import NotInClassification, UnsupportedShape, classify, figure1_taggable
from .multigraph import enumerate_admissible, match_figure1


def enumerate_candidates(
    points: int, arity: int, max_weight: int
) -> Iterator[FixedPointData]:
    """All data with the given shape and weights <= max_weight, canonical
    up to permutation of the point list."""
    weight_tuples = list(
        itertools.combinations_with_replacement(range(1, max_weight + 1), arity)
    )
    datums = [
        FixedPointDatum(sign, ws)
        for sign in (-1, 1)
        for ws in weight_tuples
    ]
    datums.sort(key=lambda p: (p.sign, p.weights))
    for combo in itertools.combinations_with_replacement(datums, points):
        yield FixedPointData(combo)


@dataclass(frozen=True)
class SweepRow:
    serialized: str
    checks_passed: bool
    failed_checks: tuple[str, ...]
    figure1_tags: tuple[str, ...]
    classification: str


def _cheap_then_full_checks(d: FixedPointData) -> tuple[bool, tuple[str, ...]]:
    """Run the suite in increasing cost order with early exit on failure."""
    cheap = [
        constraints.check_weight_parity,
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


def sweep(points: int = 4, arity: int = 3, max_weight: int = 3) -> list[SweepRow]:
    """Full oracle run; rows are emitted for every candidate, sorted."""
    rows = []
    for d in enumerate_candidates(points, arity, max_weight):
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
        rows.append(
            SweepRow(
                serialized="; ".join(str(p) for p in d.points),
                checks_passed=ok,
                failed_checks=failed,
                figure1_tags=tags,
                classification=classification,
            )
        )
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
