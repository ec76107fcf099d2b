"""Independent classifiers, for tests only.

``circleact.classify`` finds the Case-2 parameters from the negative points
and decides dimension-4 membership with a walk that never backtracks.  This
module keeps the implementations they replaced: the search over every
(a, b, c) with a+b+c at most the largest weight, and the recursive reverse
search with full backtracking, which copies and re-sorts the state at every
level.  It is the reference for the walk: tests require the same verdicts
and, byte for byte, the same traces, so a walk that takes a move from which
no trace exists, or a different first move, shows up.

``generated_by_merged_forms`` decides membership without any search, from
the criterion that makes the walk exact: the points are coprime and the two
signs merge to the same form.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Optional

from circleact.classify import (
    Classification,
    FourDimReachable,
    NotInClassification,
    cp3_template,
)
from circleact.core import FixedPointData, FixedPointDatum


def case2_params_by_search(d: FixedPointData) -> list[tuple[int, int, int]]:
    """Every (a, b, c) whose template equals the data, by trying them all:
    the template's largest entry is a+b+c, so a+b+c is bounded by the
    largest weight of the data."""
    target = Counter(d.as_multiset())
    max_weight = max(w for p in d.points for w in p.weights)
    found = []
    for a in range(1, max_weight + 1):
        for b in range(1, max_weight - a + 1):
            for c in range(1, max_weight - a - b + 1):
                if Counter(cp3_template(a, b, c).as_multiset()) == target:
                    found.append((a, b, c))
    return found


def _state_key(points) -> tuple:
    return tuple(sorted((p.sign, p.weights) for p in points))


def recursive_reverse_search(points) -> Optional[list[dict]]:
    """Reverse search with one Python frame per reverse step; the state is
    a list, copied for every candidate move."""
    dead: set = set()

    def search(state: list[FixedPointDatum]) -> Optional[list[dict]]:
        if not state:
            return []
        key = _state_key(state)
        if key in dead:
            return None
        # reverse add_pair first: delete {+,a,b},{-,a,b} with gcd(a,b)=1
        counts = Counter(state)
        for p in sorted(counts, key=lambda p: (p.weights, p.sign)):
            if p.sign != 1:
                continue
            partner = FixedPointDatum(-1, p.weights)
            if counts[partner] and math.gcd(*p.weights) == 1:
                rest = list(state)
                rest.remove(p)
                rest.remove(partner)
                sub = search(rest)
                if sub is not None:
                    return sub + [{"op": "add_pair", "params": p.weights}]
        # reverse splits, largest produced weight first
        candidates = []
        for sign in (1, -1):
            same = [p for p in state if p.sign == sign]
            for p in same:
                c, top = p.weights
                dd = top - c
                if dd < 1:
                    continue
                sibling = FixedPointDatum(sign, tuple(sorted((dd, top))))
                rest = list(state)
                rest.remove(p)
                if sibling in rest:
                    rest.remove(sibling)
                    source = FixedPointDatum(sign, tuple(sorted((c, dd))))
                    candidates.append((top, sign, (c, dd), rest + [source]))
        candidates.sort(key=lambda item: -item[0])
        seen = set()
        for top, sign, (c, dd), new_state in candidates:
            k = (sign, tuple(sorted((c, dd))), top, _state_key(new_state))
            if k in seen:
                continue
            seen.add(k)
            sub = search(new_state)
            if sub is not None:
                op = "split_plus" if sign == 1 else "split_minus"
                return sub + [{"op": op, "params": tuple(sorted((c, dd)))}]
        dead.add(key)
        return None

    return search(list(points))


def membership_4d_recursive(d: FixedPointData, effective: bool = True) -> Classification:
    """``membership_4d`` with the recursive reverse search."""
    if d.points and d.arity != 2:
        raise ValueError("needs arity-2 data")
    prefix: list[dict] = []
    points = list(d.points)
    if points:
        g = math.gcd(*[w for p in points for w in p.weights])
        if g != 1:
            if effective:
                return Classification(
                    (
                        NotInClassification(
                            f"weights share common factor {g}; not effective"
                        ),
                    )
                )
            points = [
                FixedPointDatum(p.sign, tuple(w // g for w in p.weights))
                for p in points
            ]
            prefix = [{"op": "normalize_gcd", "params": (g,)}]
    trace = recursive_reverse_search(points)
    if trace is None:
        return Classification(
            (NotInClassification("reverse search exhausted; not generated"),)
        )
    return Classification((FourDimReachable(tuple(trace + prefix)),))


def merged_form(weights) -> Counter:
    """Merge sibling pairs, (x, x+y) and (y, x+y) into (x, y), until none
    is left; the result does not depend on the order of the merges."""
    counts = Counter(weights)
    merged = True
    while merged:
        merged = False
        for x, y in list(counts):
            if x >= y or not counts[(x, y)]:
                continue
            sibling = tuple(sorted((y - x, y)))
            if counts[sibling] >= (2 if sibling == (x, y) else 1):
                counts[(x, y)] -= 1
                counts[sibling] -= 1
                counts[tuple(sorted((x, y - x)))] += 1
                merged = True
    return +counts


def generated_by_merged_forms(d: FixedPointData) -> bool:
    """Whether the grammar generates arity-2 data ``d`` (no normalization):
    every point is coprime and both signs merge to the same form."""
    if any(math.gcd(*p.weights) != 1 for p in d.points):
        return False
    plus = merged_form(p.weights for p in d.points if p.sign == 1)
    minus = merged_form(p.weights for p in d.points if p.sign == -1)
    return plus == minus
