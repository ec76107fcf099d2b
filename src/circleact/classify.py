"""Decision procedures for the classification theorems.

Three shapes of input are decidable: exactly two fixed points (sphere
rotation), four fixed points in dimension 6 (two-sphere union vs. linear
projective-space type), and dimension-4 data (membership in the generating
grammar: add a coprime rotation pair, or split a positive/negative datum).
``classify`` dispatches on the shape.

Both searches are direct. The projective-space parameters are read off the
negative points (at most 12 candidates, whatever the weights), and every
match is among them. Dimension-4 membership is a walk that takes back the
first reverse move until nothing is left or no move applies; the grammar
never needs backtracking (see ``_reverse_search``), so the walk makes at most
one move per point and its depth is not bounded by the recursion limit.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Optional

from .core import FixedPointData, FixedPointDatum, data
from . import constraints


@dataclass(frozen=True)
class Case1Match:
    """Two pairs, each sharing a weight multiset with opposite signs."""

    pairs: tuple[tuple[int, ...], tuple[int, ...]]  # the two weight multisets

    def to_dict(self) -> dict:
        return {
            "verdict": "Case1",
            "params": {"pairs": [list(self.pairs[0]), list(self.pairs[1])]},
        }


@dataclass(frozen=True)
class Case2Match:
    """Linear projective-space template with parameters (a, b, c)."""

    a: int
    b: int
    c: int

    def to_dict(self) -> dict:
        return {"verdict": "Case2", "params": {"a": self.a, "b": self.b, "c": self.c}}


@dataclass(frozen=True)
class TwoPointRotation:
    weights: tuple[int, ...]

    def to_dict(self) -> dict:
        return {"verdict": "TwoPointRotation", "params": {"weights": list(self.weights)}}


@dataclass(frozen=True)
class FourDimReachable:
    """Forward generation trace: ordered list of grammar steps."""

    trace: tuple[dict, ...]

    def to_dict(self) -> dict:
        return {"verdict": "FourDimReachable", "trace": list(self.trace)}


@dataclass(frozen=True)
class NotInClassification:
    reason: str
    failed_checks: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "verdict": "NotInClassification",
            "reason": self.reason,
            "failed_checks": list(self.failed_checks),
        }


@dataclass(frozen=True)
class Classification:
    """All matches for the input; a datum may match several cases."""

    matches: tuple = ()

    @property
    def classified(self) -> bool:
        return bool(self.matches) and not any(
            isinstance(m, NotInClassification) for m in self.matches
        )

    def case1(self) -> Optional[Case1Match]:
        for m in self.matches:
            if isinstance(m, Case1Match):
                return m
        return None

    def case2_params(self) -> list[tuple[int, int, int]]:
        return [(m.a, m.b, m.c) for m in self.matches if isinstance(m, Case2Match)]

    def to_json(self) -> str:
        return json.dumps([m.to_dict() for m in self.matches])


def classify_two_fixed_points(d: FixedPointData) -> Classification:
    """Two fixed points force equal weight multisets and opposite signs."""
    if len(d.points) != 2:
        raise ValueError("needs exactly 2 points")
    p, q = d.points
    if p.sign == q.sign:
        return Classification(
            (NotInClassification(f"signs are equal ({p.sign:+d})"),)
        )
    if p.weights != q.weights:
        return Classification(
            (
                NotInClassification(
                    f"weight multisets differ: {p.weights} vs {q.weights}"
                ),
            )
        )
    return Classification((TwoPointRotation(p.weights),))


def cp3_template(a: int, b: int, c: int) -> FixedPointData:
    """The four datums of the linear projective-space action."""
    return data(
        (1, a, a + b, a + b + c),
        (-1, a, b, b + c),
        (1, b, c, a + b),
        (-1, c, b + c, a + b + c),
    )


def classify_6d4fp(d: FixedPointData) -> Classification:
    """Classify 4-point, arity-3 data; reports every matching case.

    The matches come from ``case_matches``. Data matching neither case gets
    a ``NotInClassification`` whose reason lists the checks it fails.
    """
    matches = case_matches(d)
    if matches:
        return Classification(tuple(matches))

    reports = constraints.run_all(d)
    failed = tuple(r.name for r in reports if r.failed)
    reason = (
        f"failed checks: {', '.join(failed)}"
        if failed
        else "passes all data-level checks but matches neither template "
        "(component conditions not decidable from data)"
    )
    return Classification((NotInClassification(reason, failed),))


def case_matches(d: FixedPointData) -> list:
    """Every Case-1 match of 4-point, arity-3 data, then every Case-2 match,
    each checked by substituting it back.

    Case 1 tries the three ways to pair up the four points. Case 2 is
    decided from the negative points alone (see ``_case2_params``), so the
    cost does not depend on the size of the weights.
    """
    if len(d.points) != 4 or d.arity != 3:
        raise ValueError("needs exactly 4 points of arity 3")
    matches: list = []

    # Case 1: partition into two pairs with equal weights and opposite signs.
    pts = d.points
    seen_pairs = set()
    for partition in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        ok = True
        for i, j in partition:
            if pts[i].weights != pts[j].weights or pts[i].sign != -pts[j].sign:
                ok = False
                break
        if ok:
            key = tuple(sorted(pts[i].weights for (i, _) in partition))
            if key not in seen_pairs:
                seen_pairs.add(key)
                matches.append(Case1Match((key[0], key[1])))

    matches.extend(Case2Match(a, b, c) for a, b, c in _case2_params(d))
    for m in matches:
        _assert_substitution(m, d)
    return matches


def _case2_params(d: FixedPointData) -> list[tuple[int, int, int]]:
    """Every (a, b, c) whose template equals the data, in sorted order.

    The template's negative points are {a, b, b+c} and {c, b+c, a+b+c}, so
    in any match one negative point of the data holds the weights
    (a, b, b+c) in some order. Reading (a, b, b+c) off each ordering of
    each negative point's weights (at most 2 x 6 of them, keeping c >= 1)
    therefore yields every match among its candidates; a candidate is kept
    when its template has the same multiset as the data.
    """
    candidates = {
        (a, b, bc - b)
        for p in d.points
        if p.sign == -1
        for a, b, bc in itertools.permutations(p.weights)
        if bc > b
    }
    return sorted(t for t in candidates if cp3_template(*t).same_as(d))


class UnsupportedShape(ValueError):
    """No classification theorem covers data of this shape."""


def figure1_taggable(d: FixedPointData) -> bool:
    """Four points of arity 3 whose signs sum to 0: the data whose
    admissible multigraphs are matched against the shapes of Figure 1."""
    return len(d.points) == 4 and d.arity == 3 and sum(p.sign for p in d.points) == 0


def classify(d: FixedPointData, effective: bool = False) -> Classification:
    """Classify data of any decidable shape, dispatching on the shape.

    Two points of arity other than 2 go to ``classify_two_fixed_points``,
    four points of arity 3 to ``classify_6d4fp`` and arity-2 data to
    ``membership_4d`` (``effective`` is passed on). Empty data and every
    other shape raise ``UnsupportedShape``.
    """
    if not d.points:
        raise UnsupportedShape("empty data has no classification")
    if len(d.points) == 2 and d.arity != 2:
        return classify_two_fixed_points(d)
    if len(d.points) == 4 and d.arity == 3:
        return classify_6d4fp(d)
    if d.arity == 2:
        return membership_4d(d, effective=effective)
    raise UnsupportedShape(
        f"unsupported shape ({len(d.points)} points, arity {d.arity})"
    )


def _assert_substitution(match, d: FixedPointData) -> None:
    """Replaying the reported parameters must reproduce the input."""
    if isinstance(match, Case1Match):
        w1, w2 = match.pairs
        rebuilt = data((1, *w1), (-1, *w1), (1, *w2), (-1, *w2))
    elif isinstance(match, Case2Match):
        rebuilt = cp3_template(match.a, match.b, match.c)
    else:
        return
    if not rebuilt.same_as(d):
        raise AssertionError(f"substitution of {match} does not reproduce the data")


# --- dimension-4 grammar ---------------------------------------------------

def replay_4d_trace(trace) -> FixedPointData:
    """Apply a forward generation trace starting from the empty collection."""
    points: Counter = Counter()
    for step in trace:
        op = step["op"]
        if op == "add_pair":
            a, b = step["params"]
            if math.gcd(a, b) != 1:
                raise ValueError(f"add_pair({a},{b}) needs coprime parameters")
            points[FixedPointDatum(1, (a, b))] += 1
            points[FixedPointDatum(-1, (a, b))] += 1
        elif op in ("split_plus", "split_minus"):
            sign = 1 if op == "split_plus" else -1
            c, dd = step["params"]
            old = FixedPointDatum(sign, (c, dd))
            if not points[old]:
                raise ValueError(f"{op}({c},{dd}) needs the datum {old}")
            points[old] -= 1
            points[FixedPointDatum(sign, (c, c + dd))] += 1
            points[FixedPointDatum(sign, (dd, c + dd))] += 1
        elif op == "normalize_gcd":
            g = step["params"][0]
            points = Counter(
                {
                    FixedPointDatum(p.sign, tuple(w * g for w in p.weights)): n
                    for p, n in points.items()
                }
            )
        else:
            raise ValueError(f"unknown step {op!r}")
    return FixedPointData(tuple(points.elements()))


class _ReverseState:
    """The multiset under reverse search, with its reverse moves kept current.

    A point is a ``(sign, weights)`` pair. ``copies`` maps each point present
    to the stamps of its copies, oldest first. Stamps grow with insertion,
    so ordering points by their oldest stamp orders them as a list that
    drops first occurrences and appends new points would. ``pairs`` holds
    the coprime weights w with both (+, w) and (-, w) present; ``splits``
    holds the (sign, lo, hi) whose products (lo, lo+hi) and (hi, lo+hi) are
    both present. A count change refreshes both in O(1).
    """

    def __init__(self, points):
        self.copies: dict = {}
        self.pairs: set = set()
        self.splits: set = set()
        self.stamp = 0
        for p in points:
            self.push((p.sign, p.weights))

    def count(self, point) -> int:
        return len(self.copies.get(point, ()))

    def push(self, point) -> None:
        self.stamp += 1
        self.copies.setdefault(point, deque()).append(self.stamp)
        self._refresh(point)

    def pop(self, point) -> None:
        """Remove the oldest copy of ``point``."""
        queue = self.copies[point]
        queue.popleft()
        if not queue:
            del self.copies[point]
        self._refresh(point)

    def _refresh(self, point) -> None:
        sign, (x, y) = point
        if x < y:  # (x, y) is a product of splitting {x, y - x}
            lo, hi = sorted((x, y - x))
            need = 2 if lo == hi else 1
            if self.count((sign, (lo, y))) >= need and self.count((sign, (hi, y))) >= need:
                self.splits.add((sign, lo, hi))
            else:
                self.splits.discard((sign, lo, hi))
        w = (x, y)
        if self.count((1, w)) and self.count((-1, w)) and math.gcd(x, y) == 1:
            self.pairs.add(w)
        else:
            self.pairs.discard(w)

    def first_move(self) -> Optional[dict]:
        """The first forward step that could have come last, or None.

        Rotation pairs come first, by weights; then splits, largest produced
        weight first, + before -, and then the split one of whose products
        was inserted first.
        """
        if self.pairs:
            return {"op": "add_pair", "params": min(self.pairs)}
        if not self.splits:
            return None

        def order(split):
            sign, lo, hi = split
            top = lo + hi
            first = min(self.copies[(sign, (lo, top))][0], self.copies[(sign, (hi, top))][0])
            return -top, -sign, first

        sign, lo, hi = min(self.splits, key=order)
        return {"op": "split_plus" if sign == 1 else "split_minus", "params": (lo, hi)}

    def unapply(self, step) -> None:
        """Take back a forward step."""
        a, b = step["params"]
        if step["op"] == "add_pair":
            self.pop((1, (a, b)))
            self.pop((-1, (a, b)))
            return
        sign = 1 if step["op"] == "split_plus" else -1
        self.pop((sign, (a, a + b)))
        self.pop((sign, (b, a + b)))
        self.push((sign, (a, b)))


def _reverse_search(points) -> Optional[list[dict]]:
    """Forward trace generating ``points``, or None if there is none.

    Takes back ``_ReverseState.first_move`` until nothing is left (the
    trace) or no move applies (None). No backtracking is needed:

    1. Points of generated data are coprime pairs, and these form one tree
       rooted at (1, 1): the parent of (x, y) with x < y is the sorted
       (x, y - x). Map each node to the indicator of its set of infinite
       descent paths, counting (1, 1) twice because both of its children
       are (1, 2). A split keeps each sign's sum of indicators; a rotation
       pair adds the same to both sums.
    2. Merging siblings within one sign until no sibling pair is left has a
       unique result: two merged forms with equal sums are equal. Otherwise
       take a node of least depth whose counts differ; the strict
       descendants of it in the form with fewer copies cover its path set.
       The topmost of them partition that set, and the deepest of those has
       its sibling among them: a sibling pair.
    3. So data is generated exactly when its points are coprime and its
       plus and minus sums agree: then both signs merge to the same form,
       which is removed as rotation pairs.
    4. Both reverse moves keep the points coprime and the two sums equal,
       and nonempty generated data always has a move (a sibling pair, or
       else equal merged forms and so a rotation pair). So every move from
       generated data stays generated. Depth-first search tries the first
       move first, so it would take the walk's path, and return the same
       trace. Each move removes at least one point, so the walk makes at
       most one move per point.
    """
    state = _ReverseState(points)
    steps: list[dict] = []  # reverse moves taken, root first
    while state.copies:
        step = state.first_move()
        if step is None:
            return None
        state.unapply(step)
        steps.append(step)
    steps.reverse()
    return steps


def membership_4d(d: FixedPointData, effective: bool = True) -> Classification:
    """Decide whether arity-2 data is generated by the grammar.

    The grammar adds a coprime rotation pair {+,a,b},{-,a,b} or splits a
    datum {s,c,d} into {s,c,c+d},{s,d,c+d}. The reverse search takes back
    the first applicable move at each step; ``_reverse_search`` shows why
    that finds a trace whenever one exists. It makes at most one move per
    point, and the trace is checked by replaying it.
    """
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

    trace = _reverse_search(points)
    if trace is None:
        return Classification(
            (NotInClassification("reverse search exhausted; not generated"),)
        )
    # normalization, when present, is the final scaling step of the trace
    full = trace + prefix
    rebuilt = replay_4d_trace(full)
    if not rebuilt.same_as(d):
        raise AssertionError("trace replay does not reproduce the input")
    return Classification((FourDimReachable(tuple(full)),))
