"""Rewriting system on collections of signed equivalence classes.

Five operations remove and add arity-3 classes; a realizable collection can
always be converted to the empty collection.  A class is held as its
canonical representative, a ``FixedPointDatum`` (positive sorted weights,
sign flipped once per negated weight), so a collection is a
``Counter[FixedPointDatum]``; moves print a class in the system's bracket
notation ``[+,1,2,3]``.  This module enumerates
applicable operation instances from one move table, checking that the
removed classes are present on plain (sign, weights) tuples before building
the added ones, applies them with multiset semantics, and searches for a
reduction: closed-form scripts for the two known 4-point shapes, bounded
iterative deepening otherwise.  The search runs on sorted tuples of
canonical (sign, weights) pairs, computes each state's successors once per
call and builds ``RewriteMove`` objects, all in ``_build``, only for the
path it returns.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import FixedPointData, FixedPointDatum, canonical_form
from .classify import Case1Match, case_matches


class StaleMoveError(ValueError):
    """The move's removed classes are not present in the collection."""


Collection = Counter  # Counter[FixedPointDatum]


def collection_from_data(d: FixedPointData) -> Collection:
    return Counter(d.points)


def _bracket(c: FixedPointDatum) -> str:
    """A class in the rewriting system's notation, e.g. ``[+,1,2,3]``."""
    return "[%s,%s]" % ("+" if c.sign == 1 else "-", ",".join(map(str, c.weights)))


@dataclass(frozen=True)
class RewriteMove:
    op: int
    orientation: int  # +1 / -1, the sign chosen for the +- branch
    params: tuple[int, ...]  # (A, B, C) or (A, C) etc., op-specific
    removed: tuple[FixedPointDatum, ...]
    added: tuple[FixedPointDatum, ...]

    def to_dict(self) -> dict:
        return {
            "op": self.op,
            "orientation": self.orientation,
            "params": list(self.params),
            "removed": [_bracket(c) for c in self.removed],
            "added": [_bracket(c) for c in self.added],
        }

    def __str__(self) -> str:
        removed = ", ".join(map(_bracket, self.removed))
        added = ", ".join(map(_bracket, self.added)) or "(nothing)"
        return f"op({self.op}) params={self.params}: remove {removed}; add {added}"


def _pattern(op: int, s: int, params: tuple[int, ...]):
    """The removed and added (sign, weights) pairs of one operation
    instance, not yet canonical, or None if a side condition fails."""
    if op == 1:
        A, B, C = params
        return [(1, (A, B, C)), (-1, (A, B, C))], []
    if op == 2:
        A, B, C = params
        if not (0 < A < B < C):
            return None
        removed = [(s, (A, B, C)), (-s, (C - A, C - B, C))]
        return removed, [(s, (A, B - A, C - A)), (-s, (B, B - A, C - B))]
    if op == 3:
        A, B, C = params
        if not (0 < A < C and 0 < B < C and A != B):
            return None
        removed = [(s, (A, B, C)), (s, (A, C - B, C))]
        added = [
            (s, (C - B, C - A, A)),
            (s, (C - B, B, A)),
            (s, (C - B, A - B, A)),
            (-s, (C - A, A - B, A)),
        ]
        return removed, added
    if op == 4:
        A, C = params
        if not (0 < A < C) or C == 2 * A:
            return None
        removed = [(s, (A, A, C)), (s, (A, C - A, C))]
        added = [
            (s, (C - A, C - 2 * A, A)),
            (s, (C - A, A, A)),
            (s, (C - A, A, A)),
            (-s, (C - 2 * A, A, A)),
        ]
        return removed, added
    if op == 5:
        A, C = params
        if not (0 < A < C) or C == 2 * A:
            return None
        removed = [(s, (C, A, A)), (-s, (C, C - A, C - A))]
        added = [
            (s, (C - A, C - 2 * A, A)),
            (s, (C - A, A, A)),
            (s, (C - A, A, A)),
            (-s, (C - 2 * A, A, A)),
            (s, (A, C - 2 * A, C - A)),
            (-s, (A, C - A, C - A)),
            (-s, (A, C - A, C - A)),
            (-s, (C - 2 * A, C - A, C - A)),
        ]
        return removed, added
    raise ValueError(f"unknown operation {op}")


def _sorted_canonical(pairs) -> list:
    return sorted([canonical_form(*c) for c in pairs])


def _build(key: tuple, removed, added) -> RewriteMove:
    """The move of ``key = (op, orientation, params)`` from its sorted
    canonical (sign, weights) pairs."""
    removed = tuple(FixedPointDatum(*c) for c in removed)
    return RewriteMove(*key, removed, tuple(FixedPointDatum(*c) for c in added))


def _instantiate(op: int, s: int, params: tuple[int, ...]) -> RewriteMove:
    """The move of one operation instance whose side conditions hold."""
    removed, added = _pattern(op, s, params)
    return _build((op, s, params), _sorted_canonical(removed), _sorted_canonical(added))


def _present(coll: Collection, removed) -> bool:
    need = Counter(removed)
    return all(coll[c] >= k for c, k in need.items())


def _candidates(sign: int, w: tuple[int, int, int]):
    """(op, orientation, params) of every instance whose first removed
    pattern the class [sign, *w] can play."""
    # op 1: the class as the positive half
    if sign == 1:
        yield 1, 1, w
    # op 2: [s, A, B, C] with A < B < C
    if w[0] < w[1] < w[2]:
        yield 2, sign, w
    # op 3: every role assignment of the weights
    for perm in set(itertools.permutations(w)):
        yield 3, sign, perm
    # ops 4 and 5: [s, A, A, C] and [s, C, A, A]
    pairs = _repeated_pairs(w)
    for op in (4, 5):
        for A, C in pairs:
            yield op, sign, (A, C)


def _move_keys(count: dict) -> list:
    """``((op, orientation, params), removed, added)`` for every instance of
    operations (1)-(5) whose removed classes are present in ``count``, a map
    from canonical (sign, weights) pairs to multiplicities.  ``removed`` and
    ``added`` are sorted canonical pairs; the list is sorted by key."""
    out = []
    for sign, w in count:
        for key in _candidates(sign, w):
            pattern = _pattern(*key)
            if pattern is None:
                continue
            removed = _sorted_canonical(pattern[0])
            first, second = removed
            if first == second:
                if count.get(first, 0) < 2:
                    continue
            elif first not in count or second not in count:
                continue
            out.append((key, removed, _sorted_canonical(pattern[1])))
    out.sort(key=lambda m: m[0])
    return out


def applicable_moves(coll: Collection) -> list[RewriteMove]:
    """Every instantiation of operations (1)-(5) whose removed classes are
    present, matched at the level of canonical representatives, sorted by
    (op, orientation, params)."""
    for c in coll:
        if c.arity != 3:
            raise ValueError("rewriting is defined for arity-3 classes")
    count = {(c.sign, c.weights): k for c, k in coll.items() if k > 0}
    return [_build(*m) for m in _move_keys(count)]


def _repeated_pairs(w: tuple[int, int, int]):
    """(A, C) assignments where the multiset is {A, A, C}."""
    out = set()
    if w[0] == w[1]:
        out.add((w[0], w[2]))
    if w[1] == w[2]:
        out.add((w[1], w[0]))
    return out


def apply_move(coll: Collection, move: RewriteMove) -> Collection:
    if not _present(coll, move.removed):
        raise StaleMoveError(f"move not applicable: {move}")
    out = Counter(coll)
    for c in move.removed:
        out[c] -= 1
        if not out[c]:
            del out[c]
    for c in move.added:
        out[c] += 1
    return out


@dataclass(frozen=True)
class RewriteTrace:
    initial: tuple[FixedPointDatum, ...]
    moves: tuple[RewriteMove, ...]

    def replay(self) -> list[Collection]:
        """Intermediate collections, starting at initial; raises on any
        inconsistency, including a last state that is not empty."""
        states = [Counter(self.initial)]
        for move in self.moves:
            states.append(apply_move(states[-1], move))
        if states[-1]:
            raise AssertionError("trace replay does not reach the empty collection")
        return states

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(m.to_dict()) for m in self.moves) + (
            "\n" if self.moves else ""
        )


@dataclass(frozen=True)
class ReductionFailure:
    reason: str
    depth: int
    states_explored: int

    def to_dict(self) -> dict:
        return {
            "reason": self.reason,
            "depth": self.depth,
            "states_explored": self.states_explored,
        }


def _sorted_classes(coll: Collection) -> tuple[FixedPointDatum, ...]:
    return tuple(sorted(coll.elements(), key=lambda c: (c.sign, c.weights)))


def _case_script(coll: Collection) -> Optional[list[RewriteMove]]:
    """The closed-form reduction of the two known 4-point shapes: op 1 at
    each pair of a Case-1 datum; for the Case-2 template with parameters
    (a, b, c), op 2 at (a, a+b, a+b+c), which leaves the opposite-sign
    pairs (a, b, b+c) and (b, c, a+b), then op 1 at each of them.  Data of
    neither shape gets None without running the check suite."""
    if sum(coll.values()) != 4 or any(c.arity != 3 for c in coll):
        return None
    matches = case_matches(FixedPointData(tuple(coll.elements())))
    if not matches:
        return None
    first = matches[0]  # the first Case-1 match if there is one
    if isinstance(first, Case1Match):
        return [_instantiate(1, 1, w) for w in first.pairs]
    a, b, c = first.a, first.b, first.c
    pairs = sorted([tuple(sorted((a, b, b + c))), tuple(sorted((b, c, a + b)))])
    return [_instantiate(2, 1, (a, a + b, a + b + c))] + [
        _instantiate(1, 1, w) for w in pairs
    ]


def reduce_to_empty(coll: Collection, max_depth: int = 12):
    """Reduce the collection to empty, returning a verified RewriteTrace or
    a ReductionFailure.

    The closed-form 4-point scripts are tried first, then bounded
    iterative-deepening search.  A negative max_depth raises ValueError.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be at least 0, got {max_depth}")
    for c in coll:
        if c.arity != 3:
            raise ValueError("rewriting is defined for arity-3 classes")
    initial = _sorted_classes(coll)
    if not coll:
        return RewriteTrace(initial, ())
    script = _case_script(coll)
    if script is not None:
        trace = RewriteTrace(initial, tuple(script))
        trace.replay()
        return trace
    return _deepening_search(coll, max_depth)


def _deepening_search(coll: Collection, max_depth: int):
    """Iterative deepening from the non-empty canonical collection ``coll``
    up to ``max_depth`` moves: a verified RewriteTrace or a
    ReductionFailure."""
    initial = _sorted_classes(coll)
    explored = 0
    # per call: each state's ((op, orientation, params), child) list, built
    # the first time the state is expanded and reused at every depth
    successors: dict = {}

    def expand(state: tuple) -> list:
        count = Counter(state)
        out = []
        for key, removed, added in _move_keys(count):
            rest = list(state)
            for c in removed:
                rest.remove(c)
            out.append((key, tuple(sorted(rest + added))))
        return out

    def dfs(state: tuple, depth: int, seen: dict) -> Optional[list]:
        nonlocal explored
        explored += 1
        if not state:
            return []
        if depth == 0:
            return None
        # transposition set: skip states already searched with at least as
        # much remaining depth
        if seen.get(state, -1) >= depth:
            return None
        seen[state] = depth
        moves = successors.get(state)
        if moves is None:
            moves = successors[state] = expand(state)
        for key, child in moves:
            sub = dfs(child, depth - 1, seen)
            if sub is not None:
                return [key] + sub
        return None

    start = tuple((c.sign, c.weights) for c in initial)
    for depth in range(1, max_depth + 1):
        result = dfs(start, depth, {})
        if result is not None:
            moves = tuple(_instantiate(*key) for key in result)
            trace = RewriteTrace(initial, moves)
            trace.replay()
            return trace
    return ReductionFailure(
        reason=f"no reduction within depth {max_depth}",
        depth=max_depth,
        states_explored=explored,
    )
