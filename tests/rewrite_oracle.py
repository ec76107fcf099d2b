"""The former move generator, 4-point scripts and rewriting search, for
tests only.

``circleact.rewrite`` checks that a move's removed classes are present on
plain ``(sign, weights)`` tuples before it builds the added classes, writes
the 4-point scripts in closed form, and runs its search on sorted tuples,
computing each state's successors once per call.  This module keeps the
implementations they replaced: every candidate instance is built as a
``RewriteMove`` of canonical ``FixedPointDatum`` classes and then filtered
by presence, a Case-2 script finds its op-1 moves by searching the
applicable moves after its op-2 move, and the iterative-deepening search
regenerates the moves of a state each time it expands it.  Tests require
both routes to return the same moves, scripts, traces and failures, down to
``states_explored``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional

from circleact.classify import Case1Match, Case2Match, classify_6d4fp
from circleact.core import FixedPointData, FixedPointDatum, canonical_form
from circleact.rewrite import (
    Collection,
    ReductionFailure,
    RewriteMove,
    RewriteTrace,
    _present,
    _sorted_classes,
    apply_move,
)


def _cls(sign: int, weights) -> FixedPointDatum:
    return FixedPointDatum(*canonical_form(sign, weights))


def _move(op, s, params, removed, added) -> RewriteMove:
    return RewriteMove(
        op,
        s,
        tuple(params),
        tuple(sorted(removed, key=lambda c: (c.sign, c.weights))),
        tuple(sorted(added, key=lambda c: (c.sign, c.weights))),
    )


def instantiate_by_classes(op: int, s: int, params: tuple[int, ...]) -> Optional[RewriteMove]:
    """Build the move for one operation instance, or None if a side
    condition fails or a zero weight would be produced."""
    if op == 1:
        A, B, C = params
        removed = [_cls(1, (A, B, C)), _cls(-1, (A, B, C))]
        return _move(1, 1, params, removed, [])
    if op == 2:
        A, B, C = params
        if not (0 < A < B < C):
            return None
        removed = [_cls(s, (A, B, C)), _cls(-s, (C - A, C - B, C))]
        added = [_cls(s, (A, B - A, C - A)), _cls(-s, (B, B - A, C - B))]
        return _move(2, s, params, removed, added)
    if op == 3:
        A, B, C = params
        if not (0 < A < C and 0 < B < C and A != B):
            return None
        removed = [_cls(s, (A, B, C)), _cls(s, (A, C - B, C))]
        added = [
            _cls(s, (C - B, C - A, A)),
            _cls(s, (C - B, B, A)),
            _cls(s, (C - B, A - B, A)),
            _cls(-s, (C - A, A - B, A)),
        ]
        return _move(3, s, params, removed, added)
    if op == 4:
        A, C = params
        if not (0 < A < C) or C == 2 * A:
            return None
        removed = [_cls(s, (A, A, C)), _cls(s, (A, C - A, C))]
        added = [
            _cls(s, (C - A, C - 2 * A, A)),
            _cls(s, (C - A, A, A)),
            _cls(s, (C - A, A, A)),
            _cls(-s, (C - 2 * A, A, A)),
        ]
        return _move(4, s, params, removed, added)
    if op == 5:
        A, C = params
        if not (0 < A < C) or C == 2 * A:
            return None
        removed = [_cls(s, (C, A, A)), _cls(-s, (C, C - A, C - A))]
        added = [
            _cls(s, (C - A, C - 2 * A, A)),
            _cls(s, (C - A, A, A)),
            _cls(s, (C - A, A, A)),
            _cls(-s, (C - 2 * A, A, A)),
            _cls(s, (A, C - 2 * A, C - A)),
            _cls(-s, (A, C - A, C - A)),
            _cls(-s, (A, C - A, C - A)),
            _cls(-s, (C - 2 * A, C - A, C - A)),
        ]
        return _move(5, s, params, removed, added)
    raise ValueError(f"unknown operation {op}")


def _repeated_pairs(w: tuple[int, int, int]):
    """(A, C) assignments where the multiset is {A, A, C}."""
    out = set()
    if w[0] == w[1]:
        out.add((w[0], w[2]))
    if w[1] == w[2]:
        out.add((w[1], w[0]))
    return out


def applicable_moves_by_filtering(coll: Collection) -> list[RewriteMove]:
    """Every instantiation of operations (1)-(5) whose removed classes are
    present: each candidate is built in full, then kept if present."""
    for c in coll:
        if c.arity != 3:
            raise ValueError("rewriting is defined for arity-3 classes")
    moves = {}
    classes = sorted(coll, key=lambda c: (c.sign, c.weights))

    def consider(move: Optional[RewriteMove]):
        if move is None:
            return
        if not _present(coll, move.removed):
            return
        moves[(move.op, move.orientation, move.params)] = move

    for x in classes:
        w = x.weights
        if x.sign == 1:
            consider(instantiate_by_classes(1, 1, w))
        s = x.sign
        if w[0] < w[1] < w[2]:
            consider(instantiate_by_classes(2, s, w))
        for A, B, C in set(itertools.permutations(w)):
            consider(instantiate_by_classes(3, s, (A, B, C)))
        for A, C in _repeated_pairs(w):
            consider(instantiate_by_classes(4, s, (A, C)))
        for A, C in _repeated_pairs(w):
            consider(instantiate_by_classes(5, s, (A, C)))
    return sorted(moves.values(), key=lambda m: (m.op, m.orientation, m.params))


def case_script_by_search(coll: Collection) -> Optional[list[RewriteMove]]:
    """Deterministic reduction for the two known 4-point shapes: op 1 at
    each Case-1 pair; for Case 2, op 2 and then the first op-1 move among
    the applicable moves until nothing is left."""
    if sum(coll.values()) != 4 or any(c.arity != 3 for c in coll):
        return None
    d = FixedPointData(tuple(coll.elements()))
    verdict = classify_6d4fp(d)
    case2 = next((m for m in verdict.matches if isinstance(m, Case2Match)), None)
    case1 = next((m for m in verdict.matches if isinstance(m, Case1Match)), None)
    if case1 is not None:
        w1, w2 = case1.pairs
        return [instantiate_by_classes(1, 1, w1), instantiate_by_classes(1, 1, w2)]
    if case2 is not None:
        a, b, c = case2.a, case2.b, case2.c
        first = instantiate_by_classes(2, 1, (a, a + b, a + b + c))
        state = apply_move(coll, first)
        moves = [first]
        # the remainder is two opposite-sign pairs
        while state:
            for m in applicable_moves_by_filtering(state):
                if m.op == 1:
                    state = apply_move(state, m)
                    moves.append(m)
                    break
            else:
                return None
        return moves
    return None


def reduce_to_empty_by_regeneration(coll: Collection, max_depth: int = 12):
    """``case_script_by_search``, else ``search_by_regeneration``."""
    for c in coll:
        if c.arity != 3:
            raise ValueError("rewriting is defined for arity-3 classes")
    initial = _sorted_classes(coll)
    if not coll:
        return RewriteTrace(initial, ())
    script = case_script_by_search(coll)
    if script is not None:
        trace = RewriteTrace(initial, tuple(script))
        trace.replay()
        return trace
    return search_by_regeneration(coll, max_depth)


def search_by_regeneration(coll: Collection, max_depth: int = 12):
    """Iterative deepening over ``Counter`` states that calls
    ``applicable_moves_by_filtering`` at every expansion."""
    initial = _sorted_classes(coll)
    explored = 0

    def dfs(state: Collection, depth: int, seen: dict) -> Optional[list[RewriteMove]]:
        nonlocal explored
        explored += 1
        if not state:
            return []
        if depth == 0:
            return None
        key = _sorted_classes(state)
        if seen.get(key, -1) >= depth:
            return None
        seen[key] = depth
        for move in applicable_moves_by_filtering(state):
            sub = dfs(apply_move(state, move), depth - 1, seen)
            if sub is not None:
                return [move] + sub
        return None

    for depth in range(1, max_depth + 1):
        result = dfs(Counter(coll), depth, {})
        if result is not None:
            trace = RewriteTrace(initial, tuple(result))
            trace.replay()
            return trace
    return ReductionFailure(
        reason=f"no reduction within depth {max_depth}",
        depth=max_depth,
        states_explored=explored,
    )
