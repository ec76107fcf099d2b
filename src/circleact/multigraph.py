"""Signed labeled multigraphs describing fixed-point data.

Vertices are fixed points with their signs; each vertex's incident edge
labels reproduce its weight multiset.  Admissible graphs pair equal weight
values across points with no self-loops, and every edge labeled by one of
the two smallest positive-sign weights must join opposite-sign vertices.
For 4 vertices in dimension 6 the possible shapes reduce to five templates
(cases A-E), recognized up to swapping the two vertices of either sign.

Graphs are built directly.  For each weight value, the smallest vertex that
still carries the value splits its remaining count over the higher vertices
(only the opposite-sign ones for the two small labels) in every possible
way, and the rest recurses, so each distinct loop-free pair multiset is
listed once.  A graph is one choice per value, so no graph is built twice;
``cap`` bounds both the per-value lists and the graph count.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import FixedPointData, ParseError, is_decimal
from .constraints import check_weight_parity, signed_weight_lists


class NoMatchingError(ValueError):
    """The data cannot support any edge matching (weight parity fails)."""


class GraphCapError(ValueError):
    """The data have more admissible graphs than the enumeration's cap."""


Edge = tuple[int, int, int]  # (u, v, label) with u < v


@dataclass(frozen=True)
class LabeledMultigraph:
    """vertices: tuple of (id, sign); edges: sorted multiset of (u, v, label)."""

    vertices: tuple[tuple[int, int], ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        ids = set()
        for v, _ in self.vertices:
            if v in ids:
                raise ValueError(f"repeated vertex id {v}")
            ids.add(v)
        for u, v, label in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge endpoints must be ordered: ({u},{v})")
            if u not in ids or v not in ids:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            if label < 1:
                raise ValueError(f"edge label must be positive, got {label}")
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def sign_of(self, vertex: int) -> int:
        for v, s in self.vertices:
            if v == vertex:
                return s
        raise KeyError(vertex)

    def weights_at(self, vertex: int) -> Counter:
        out: Counter = Counter()
        for u, v, label in self.edges:
            if u == vertex:
                out[label] += 1
            if v == vertex:
                out[label] += 1
        return out


def _built_graph(
    vertices: tuple[tuple[int, int], ...], edges: tuple[Edge, ...]
) -> LabeledMultigraph:
    """A graph from parts already known to be valid and sorted, made without
    the constructor's edge-by-edge checks.  Only ``enumerate_admissible``
    calls it: there ``u < v`` comes from ``_loop_free_pairings``, the labels
    are the data's weights, which ``FixedPointDatum`` checks are positive,
    and the ids are the point indices 0..n-1."""
    g = object.__new__(LabeledMultigraph)
    object.__setattr__(g, "vertices", vertices)
    object.__setattr__(g, "edges", edges)
    return g


def describes(g: LabeledMultigraph, d: FixedPointData) -> bool:
    """True iff per-vertex edge labels and signs reproduce the data."""
    ids = sorted(v for v, _ in g.vertices)
    if ids != list(range(len(d.points))):
        raise ValueError(
            f"vertex ids {ids} do not match point identifiers 0..{len(d.points) - 1}"
        )
    for i, p in enumerate(d.points):
        if g.sign_of(i) != p.sign:
            return False
        if g.weights_at(i) != Counter(p.weights):
            return False
    return True


def _shares(need: int, caps: list[int]):
    """Every way to write need as x_0 + x_1 + ... with 0 <= x_k <= caps[k],
    largest x_0 first."""
    if not caps:
        if not need:
            yield ()
        return
    rest = sum(caps[1:])
    for x in range(min(need, caps[0]), max(0, need - rest) - 1, -1):
        for tail in _shares(need - x, caps[1:]):
            yield (x,) + tail


def _any_pair(u: int, v: int) -> bool:
    return True


def _loop_free_pairings(
    degrees: dict[int, int], allowed, limit: int
) -> list[tuple[tuple[int, int], ...]]:
    """Distinct multisets of pairs (u, v), u < v, in which each vertex u
    occurs degrees[u] times, using only pairs for which allowed(u, v) holds;
    each comes out once, as a sorted tuple.  Stops after limit + 1 of them.

    The smallest vertex with remaining degree splits that degree over the
    higher vertices in every possible way, and the rest recurses."""
    vertices = sorted(v for v, c in degrees.items() if c)
    left = [degrees[v] for v in vertices]
    n = len(vertices)
    out: list[tuple[tuple[int, int], ...]] = []
    pairs: list[tuple[int, int]] = []

    def close(i: int) -> None:
        while i < n and not left[i]:
            i += 1
        if i == n:
            out.append(tuple(pairs))
            return
        u = vertices[i]
        partners = [j for j in range(i + 1, n) if left[j] and allowed(u, vertices[j])]
        need, left[i] = left[i], 0
        mark = len(pairs)
        for shares in _shares(need, [left[j] for j in partners]):
            for j, x in zip(partners, shares):
                left[j] -= x
                pairs.extend([(u, vertices[j])] * x)
            close(i + 1)
            for j, x in zip(partners, shares):
                left[j] += x
            del pairs[mark:]
            if len(out) > limit:
                break
        left[i] = need

    close(0)
    return out


def small_label_values(d: FixedPointData) -> set[int]:
    """The values of the two smallest weights of the positive sign class
    (falling back to the negative class if needed); edges with these labels
    must join opposite-sign vertices."""
    plus, minus = signed_weight_lists(d)
    source = plus if len(plus) >= 2 else minus
    if len(source) < 2:
        return set()
    return {source[0], source[1]}


def enumerate_admissible(
    d: FixedPointData, cap: int = 10 ** 6
) -> list[LabeledMultigraph]:
    """All graphs obtained by pairing each weight value's occurrences across
    points, without self-loops, with the opposite-sign constraint on the two
    smallest positive-class values, in lexicographic edge order.

    Each value's distinct pair multisets are listed directly, so every
    combination of them is a distinct graph; more than ``cap`` graphs raise
    GraphCapError."""
    parity = check_weight_parity(d)
    if parity.failed:
        raise NoMatchingError(parity.witness)
    vertices = tuple((i, p.sign) for i, p in enumerate(d.points))
    opposite_only = small_label_values(d)
    signs = [p.sign for p in d.points]

    def opposite(u: int, v: int) -> bool:
        return signs[u] != signs[v]

    degrees_by_value: dict[int, dict[int, int]] = {}
    for i, p in enumerate(d.points):
        for w in p.weights:
            at = degrees_by_value.setdefault(w, {})
            at[i] = at.get(i, 0) + 1
    edge_options: list[list[tuple[Edge, ...]]] = []
    for value in sorted(degrees_by_value):
        allowed = opposite if value in opposite_only else _any_pair
        options = _loop_free_pairings(degrees_by_value[value], allowed, cap)
        if not options:
            return []
        edge_options.append(
            [tuple((u, v, value) for u, v in pairs) for pairs in options]
        )

    graphs = []
    for combo in itertools.product(*edge_options):
        graphs.append(_built_graph(vertices, tuple(sorted(sum(combo, ())))))
        if len(graphs) > cap:
            raise GraphCapError(f"admissible graph cap {cap} exceeded")
    graphs.sort(key=lambda g: g.edges)
    return graphs


# --- Figure recognition for 4 vertices in dimension 6 ----------------------
#
# Templates give, for each case tag, the slot letters between ordered
# vertex roles (p1, p2 positive, p3, p4 negative).
_TEMPLATES: dict[str, list[tuple[int, int, str]]] = {
    "A": [(1, 3, "a"), (1, 3, "b"), (1, 3, "c"), (2, 4, "d"), (2, 4, "e"), (2, 4, "f")],
    "B": [(1, 2, "a"), (1, 3, "b"), (1, 3, "c"), (2, 4, "d"), (2, 4, "e"), (3, 4, "f")],
    "C": [(1, 3, "a"), (1, 3, "b"), (1, 4, "c"), (2, 3, "d"), (2, 4, "e"), (2, 4, "f")],
    "D": [(1, 2, "a"), (1, 2, "b"), (1, 3, "c"), (2, 4, "d"), (3, 4, "e"), (3, 4, "f")],
    "E": [(1, 2, "a"), (1, 3, "b"), (1, 4, "c"), (2, 3, "d"), (2, 4, "e"), (3, 4, "f")],
}

# (m2, m3, m4) = edge counts from p1 to p2, p3, p4 after normalization.
_PATTERNS = {
    (0, 3, 0): "A",
    (1, 2, 0): "B",
    (0, 2, 1): "C",
    (2, 1, 0): "D",
    (1, 1, 1): "E",
}


@dataclass(frozen=True)
class Figure1Case:
    tag: str
    vertex_map: tuple[int, int, int, int]  # roles p1..p4 -> vertex ids
    labels: dict

    def template_edges(self) -> list[Edge]:
        """Edges produced by substituting the labels into the template."""
        out = []
        for r1, r2, slot in _TEMPLATES[self.tag]:
            u = self.vertex_map[r1 - 1]
            v = self.vertex_map[r2 - 1]
            out.append((min(u, v), max(u, v), self.labels[slot]))
        return sorted(out)


# For each tag, the template's slot letters between each pair of roles, in
# order, for the six pairs in itertools.combinations order: (p1, p2),
# (p1, p3), (p1, p4), (p2, p3), (p2, p4), (p3, p4).
_ROLE_SLOTS = {
    tag: tuple(
        "".join(sorted(s for r1, r2, s in template if (r1, r2) == (i + 1, j + 1)))
        for i, j in itertools.combinations(range(4), 2)
    )
    for tag, template in _TEMPLATES.items()
}


def match_figure1(g: LabeledMultigraph) -> Optional[Figure1Case]:
    """Recognize which of the five 4-vertex shapes the graph realizes.

    Requires exactly 4 vertices, two of each sign, 3-regular, no
    self-loops.  Tries the four allowed normalizations (swap the positive
    pair, swap the negative pair) and returns the first matching case, or
    None when no normalization hits a template pattern.

    One pass over the edges gives each vertex pair's labels and each
    vertex's degree.  A normalization matches when its edge counts from p1
    name a pattern and every role pair has as many edges as the pattern's
    template has slots there; the labels then fill the slots in increasing
    order, so the case's template edges are the graph's."""
    if len(g.vertices) != 4:
        raise ValueError("need exactly 4 vertices")
    plus = sorted(v for v, s in g.vertices if s == 1)
    minus = sorted(v for v, s in g.vertices if s == -1)
    if len(plus) != 2 or len(minus) != 2:
        raise ValueError("need two vertices of each sign")
    between: dict[tuple[int, int], list[int]] = {}
    degree = {v: 0 for v, _ in g.vertices}
    for u, v, label in g.edges:  # sorted, so each pair's labels increase
        between.setdefault((u, v), []).append(label)
        degree[u] += 1
        degree[v] += 1
    for v, _ in g.vertices:
        if degree[v] != 3:
            raise ValueError(f"vertex {v} is not 3-regular")

    for p1, p2 in (plus, plus[::-1]):
        for p3, p4 in (minus, minus[::-1]):
            roles = (p1, p2, p3, p4)
            found = [
                between.get((u, v) if u < v else (v, u), ())
                for u, v in itertools.combinations(roles, 2)
            ]
            # found[0:3] join p1 to p2, p3 and p4
            tag = _PATTERNS.get((len(found[0]), len(found[1]), len(found[2])))
            if tag is None:
                continue
            slots = _ROLE_SLOTS[tag]
            if all(len(labels) == len(s) for labels, s in zip(found, slots)):
                return Figure1Case(
                    tag,
                    roles,
                    {
                        slot: label
                        for labels, s in zip(found, slots)
                        for slot, label in zip(s, labels)
                    },
                )
    return None


# --- serialization ---------------------------------------------------------

def serialize_graph(g: LabeledMultigraph) -> str:
    lines = [f"vertex {v} {'+' if s == 1 else '-'}" for v, s in g.vertices]
    lines += [f"{u} {v} {label}" for u, v, label in g.edges]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> LabeledMultigraph:
    """Read the ``serialize_graph`` format; a malformed line raises a
    ParseError that names its 1-based line number."""
    vertices = []
    edges = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if (
                len(tokens) != 3
                or not is_decimal(tokens[1])
                or tokens[2] not in ("+", "-")
            ):
                raise ParseError(line_no, f"expected 'vertex <id> <+|->', got {line!r}")
            vertices.append((int(tokens[1]), 1 if tokens[2] == "+" else -1))
        else:
            if len(tokens) != 3 or not all(map(is_decimal, tokens)):
                raise ParseError(line_no, f"expected '<u> <v> <label>', got {line!r}")
            u, v, label = map(int, tokens)
            edges.append((min(u, v), max(u, v), label))
    return LabeledMultigraph(tuple(vertices), tuple(edges))
