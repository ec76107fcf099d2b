"""The former generate-and-filter routes, for tests only.

``circleact.sweep`` decides weight parity and the other cheap checks per
point kind during its walk, builds as data only the candidates that pass
them, writes the rows in text order and formats each CSV tail once;
``circleact.multigraph`` lists each weight value's distinct loop-free pair
multisets directly and matches the Figure-1 shapes in one pass over the
edges; and ``circleact.constraints`` pairs each congruence-pairing carrier
with its first witnessed partner, without backtracking.  This module keeps
the implementations they replaced, as the references the tests compare them
against:

* ``sweep_by_filtering`` builds every candidate as data, runs the whole
  suite through ``checks_in_full``, tags graphs with ``match_figure1_by_scan``
  and sorts the rows afterwards, the reference for the sweep's per-kind
  decisions, its rows and their order;
* ``csv_by_format`` formats every row's line on its own, the reference for
  ``to_csv``;
* ``enumerate_admissible_by_matchings`` enumerates all (m-1)!! occurrence
  matchings and deduplicates, the reference for ``enumerate_admissible``;
* ``match_figure1_by_scan`` scans the edge list for every degree, edge
  count and label list it needs, the reference for ``match_figure1``;
* ``congruence_pairing_by_enumeration`` walks every perfect pairing and
  recomputes each pair's witness with ``pair_witness_by_enumeration``, the
  reference for ``check_congruence_pairing``'s status, witness and detail;
* ``pair_witness_by_enumeration`` tries all m!·2^m (sigma, nu) in order,
  the reference for the directly built ``constraints._pair_witness``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional

from circleact import constraints
from circleact.classify import figure1_taggable
from circleact.constraints import FAIL, INAPPLICABLE, PASS, CheckReport
from circleact.core import FixedPointData
from circleact.multigraph import (
    _PATTERNS,
    _TEMPLATES,
    Figure1Case,
    GraphCapError,
    LabeledMultigraph,
    NoMatchingError,
    small_label_values,
)
from circleact.sweep import SweepRow, classify_label, enumerate_candidates


def checks_in_full(d: FixedPointData) -> tuple[bool, tuple[str, ...]]:
    """The whole suite in increasing cost order, weight parity first, with
    early exit on failure."""
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


def sweep_by_filtering(points: int, arity: int, max_weight: int) -> list[SweepRow]:
    """Every candidate built as data and run through the whole suite."""
    rows = []
    for d in enumerate_candidates(points, arity, max_weight):
        ok, failed = checks_in_full(d)
        tags: tuple[str, ...] = ()
        classification = ""
        if ok:
            if figure1_taggable(d):
                found = []
                for g in enumerate_admissible_by_matchings(d):
                    case = match_figure1_by_scan(g)
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


def csv_by_format(rows: list[SweepRow]) -> str:
    """Every row's line formatted on its own."""
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


def _degree(g: LabeledMultigraph, vertex: int) -> int:
    return sum(g.weights_at(vertex).values())


def _edge_count(g: LabeledMultigraph, u: int, v: int) -> int:
    a, b = min(u, v), max(u, v)
    return sum(1 for x, y, _ in g.edges if (x, y) == (a, b))


def _labels_between(g: LabeledMultigraph, u: int, v: int) -> list[int]:
    a, b = min(u, v), max(u, v)
    return sorted(label for x, y, label in g.edges if (x, y) == (a, b))


def match_figure1_by_scan(g: LabeledMultigraph) -> Optional[Figure1Case]:
    """Each normalization's edge counts and labels found by scanning the
    edge list, and a candidate case kept only when its template edges give
    back the graph's."""
    if len(g.vertices) != 4:
        raise ValueError("need exactly 4 vertices")
    plus = sorted(v for v, s in g.vertices if s == 1)
    minus = sorted(v for v, s in g.vertices if s == -1)
    if len(plus) != 2 or len(minus) != 2:
        raise ValueError("need two vertices of each sign")
    for v, _ in g.vertices:
        if _degree(g, v) != 3:
            raise ValueError(f"vertex {v} is not 3-regular")

    for p1, p2 in (plus, plus[::-1]):
        for p3, p4 in (minus, minus[::-1]):
            roles = (p1, p2, p3, p4)
            m2 = _edge_count(g, p1, p2)
            m3 = _edge_count(g, p1, p3)
            m4 = _edge_count(g, p1, p4)
            if m3 < 1 or m3 < m4:
                continue
            tag = _PATTERNS.get((m2, m3, m4))
            if tag is None:
                continue
            template = _TEMPLATES[tag]
            wanted = Counter((r1, r2) for r1, r2, _ in template)
            actual = Counter()
            for r1 in range(1, 5):
                for r2 in range(r1 + 1, 5):
                    c = _edge_count(g, roles[r1 - 1], roles[r2 - 1])
                    if c:
                        actual[(r1, r2)] = c
            if wanted != actual:
                continue
            labels = {}
            for (r1, r2), _count in sorted(wanted.items()):
                slots = sorted(s for a, b, s in template if (a, b) == (r1, r2))
                values = _labels_between(g, roles[r1 - 1], roles[r2 - 1])
                labels.update(dict(zip(slots, values)))
            case = Figure1Case(tag, roles, labels)
            if case.template_edges() == list(g.edges):
                return case
    return None


def _matchings(occurrences: list[int]):
    """Perfect matchings of a list of vertex ids (with repetition) into
    unordered pairs; no dedup here, caller canonicalizes."""
    if not occurrences:
        yield []
        return
    first, rest = occurrences[0], occurrences[1:]
    for i in range(len(rest)):
        pair = (min(first, rest[i]), max(first, rest[i]))
        for sub in _matchings(rest[:i] + rest[i + 1 :]):
            yield [pair] + sub


def enumerate_admissible_by_matchings(
    d: FixedPointData, cap: int = 10 ** 6
) -> list[LabeledMultigraph]:
    """Every occurrence matching of every weight value, filtered and
    deduplicated."""
    parity = constraints.check_weight_parity(d)
    if parity.failed:
        raise NoMatchingError(parity.witness)
    vertices = tuple((i, p.sign) for i, p in enumerate(d.points))
    opposite_only = small_label_values(d)
    signs = {i: p.sign for i, p in enumerate(d.points)}

    per_value: list[tuple[int, list[tuple[tuple[int, int], ...]]]] = []
    occurrences_by_value: dict[int, list[int]] = {}
    for i, p in enumerate(d.points):
        for w in p.weights:
            occurrences_by_value.setdefault(w, []).append(i)
    for value in sorted(occurrences_by_value):
        occ = occurrences_by_value[value]
        options = set()
        for matching in _matchings(occ):
            if any(u == v for u, v in matching):
                continue  # self-loop
            if value in opposite_only and any(
                signs[u] == signs[v] for u, v in matching
            ):
                continue
            options.add(tuple(sorted(matching)))
        if not options:
            return []
        per_value.append((value, sorted(options)))

    graphs = []
    for combo in itertools.product(*(options for _, options in per_value)):
        edges = []
        for (value, _), matching in zip(per_value, combo):
            edges.extend((u, v, value) for u, v in matching)
        graphs.append(LabeledMultigraph(vertices, tuple(edges)))
        if len(graphs) > cap:
            raise GraphCapError(f"admissible graph cap {cap} exceeded")
    return sorted(set(graphs), key=lambda g: g.edges)


def _perfect_pairings(indices: list[int]):
    """All partitions of indices into unordered pairs."""
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for i, partner in enumerate(rest):
        for sub in _perfect_pairings(rest[:i] + rest[i + 1 :]):
            yield [(first, partner)] + sub


def pair_witness_by_enumeration(p, q, w: int):
    """Search for (sigma, nu) making the residue and sign relations hold.

    Both points carry the weight w exactly once; the remaining weights are
    compared modulo w under a bijection sigma and sign map nu, with
    eps(p) = eps(q) * (-1)**(nu_minus + 1).
    """
    rest_p = list(p.weights)
    rest_p.remove(w)
    rest_q = list(q.weights)
    rest_q.remove(w)
    m = len(rest_p)
    for sigma in itertools.permutations(range(m)):
        for nu in itertools.product((1, -1), repeat=m):
            if any((rest_p[i] - nu[i] * rest_q[sigma[i]]) % w for i in range(m)):
                continue
            nu_minus = sum(1 for v in nu if v == -1)
            if p.sign != q.sign * (-1) ** (nu_minus + 1):
                continue
            return {"sigma": sigma, "nu": nu, "nu_minus": nu_minus}
    return None


def congruence_pairing_by_enumeration(d: FixedPointData, w: int) -> CheckReport:
    """The pairing check over every perfect pairing, in order, recomputing
    each pair's witness inside every pairing."""
    if w < 1:
        raise ValueError("w must be positive")
    name = f"congruence_pairing(w={w})"
    all_weights = [x for p in d.points for x in p.weights]
    multiples = sorted({x for x in all_weights if x != w and x % w == 0})
    if multiples:
        return CheckReport(
            name, INAPPLICABLE, f"proper multiples of {w} occur as weights: {multiples}"
        )
    heavy = [p for p in d.points if list(p.weights).count(w) > 1]
    if heavy:
        return CheckReport(
            name,
            INAPPLICABLE,
            f"a point carries weight {w} with multiplicity > 1: {heavy[0]}",
        )
    carriers = [i for i, p in enumerate(d.points) if w in p.weights]
    if not carriers:
        return CheckReport(name, PASS, f"no point carries weight {w}")
    if len(carriers) % 2:
        return CheckReport(
            name, FAIL, f"odd number of points carry weight {w}: {len(carriers)}"
        )
    for pairing in _perfect_pairings(carriers):
        assignments = []
        for i, j in pairing:
            witness = pair_witness_by_enumeration(d.points[i], d.points[j], w)
            if witness is None:
                break
            assignments.append({"pair": (i, j), **witness})
        else:
            return CheckReport(
                name,
                PASS,
                f"pairing found: {[a['pair'] for a in assignments]}",
                {"pairing": assignments},
            )
    return CheckReport(
        name,
        FAIL,
        f"no perfect pairing of points {carriers} satisfies the mod-{w} "
        "congruences and sign relation",
        {"carriers": carriers},
    )
