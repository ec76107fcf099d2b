import itertools
import math
from collections import Counter

import pytest

from circleact.classify import figure1_taggable
from circleact.core import FixedPointData, data, disjoint_union
from circleact.generators import gen_blowup, gen_cp3, gen_s6, gen_s6_pair
from circleact.multigraph import (
    GraphCapError,
    LabeledMultigraph,
    NoMatchingError,
    describes,
    enumerate_admissible,
    match_figure1,
    parse_graph,
    serialize_graph,
)
from conftest import even_data, random_data
from circleact.sweep import enumerate_candidates
from sweep_oracle import enumerate_admissible_by_matchings, match_figure1_by_scan

CP3_123 = gen_cp3(1, 2, 3)  # {+,1,3,6},{-,1,2,5},{+,2,3,3},{-,3,5,6}
CP3_123_GRAPH = LabeledMultigraph(
    vertices=((0, 1), (1, -1), (2, 1), (3, -1)),
    edges=((0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 3), (1, 3, 5), (0, 3, 6)),
)


def case_a_graph(a, b, c, d, e, f):
    return LabeledMultigraph(
        vertices=((0, 1), (1, -1), (2, 1), (3, -1)),
        edges=((0, 1, a), (0, 1, b), (0, 1, c), (2, 3, d), (2, 3, e), (2, 3, f)),
    )


class TestDescribes:
    def test_case_a_on_sphere_pair(self):
        d = gen_s6_pair(1, 2, 3, 4, 5, 6)
        assert describes(case_a_graph(1, 2, 3, 4, 5, 6), d)

    def test_wrong_edge(self):
        d = gen_s6_pair(1, 2, 3, 4, 5, 6)
        assert not describes(case_a_graph(1, 2, 3, 4, 5, 7), d)

    def test_empty(self):
        assert describes(
            LabeledMultigraph((), ()), FixedPointData(())
        )

    def test_vertex_mismatch(self):
        g = LabeledMultigraph(((0, 1), (5, -1)), ())
        with pytest.raises(ValueError):
            describes(g, data((1, 1), (-1, 1)))

    def test_sign_mismatch(self):
        g = LabeledMultigraph(
            ((0, 1), (1, 1)), ((0, 1, 1), (0, 1, 1))
        )
        assert not describes(g, data((1, 1, 1), (-1, 1, 1)))


class TestGraphInvariants:
    def test_no_self_loop(self):
        with pytest.raises(ValueError):
            LabeledMultigraph(((0, 1),), ((0, 0, 1),))

    def test_bad_label(self):
        with pytest.raises(ValueError):
            LabeledMultigraph(((0, 1), (1, -1)), ((0, 1, 0),))
        with pytest.raises(ValueError, match="positive"):
            LabeledMultigraph(((0, 1), (1, -1)), ((0, 1, -2),))

    def test_unordered_edge(self):
        with pytest.raises(ValueError, match="ordered"):
            LabeledMultigraph(((0, 1), (1, -1)), ((1, 0, 1),))

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            LabeledMultigraph(((0, 1), (1, -1)), ((0, 2, 1),))

    def test_round_trip(self):
        g = CP3_123_GRAPH
        assert parse_graph(serialize_graph(g)) == g

    @pytest.mark.parametrize(
        "bad",
        [
            "vertex 0 x",  # formerly read as a negative vertex
            "vertex 1",  # formerly a bare IndexError
            "0 1",  # formerly Python's unpacking message
            "0 1 x",
        ],
    )
    def test_malformed_line_named(self, bad):
        text = "# header\n\n" + bad + "\n"
        with pytest.raises(ValueError, match=r"^line 3: expected '"):
            parse_graph(text)


class TestEnumerateAdmissible:
    def test_cp3_includes_expected(self):
        graphs = enumerate_admissible(CP3_123)
        assert CP3_123_GRAPH in graphs

    def test_all_describe(self):
        for d in (CP3_123, gen_s6_pair(1, 2, 3, 1, 2, 3), gen_cp3(2, 1, 2)):
            for g in enumerate_admissible(d):
                assert describes(g, d)

    def test_shared_weights_give_cross_pairings(self):
        d = gen_s6_pair(1, 2, 3, 1, 2, 3)
        graphs = enumerate_admissible(d)
        # the two-component pairing
        assert case_a_graph(1, 2, 3, 1, 2, 3) in graphs
        # a cross pairing joining the two spheres
        cross = LabeledMultigraph(
            vertices=((0, 1), (1, -1), (2, 1), (3, -1)),
            edges=((0, 3, 1), (1, 2, 1), (0, 3, 2), (1, 2, 2), (0, 3, 3), (1, 2, 3)),
        )
        assert cross in graphs

    def test_two_point_unique_graph(self):
        d = data((1, 1, 1, 2), (-1, 1, 1, 2))
        graphs = enumerate_admissible(d)
        assert graphs == [
            LabeledMultigraph(
                ((0, 1), (1, -1)), ((0, 1, 1), (0, 1, 1), (0, 1, 2))
            )
        ]

    def test_parity_failure_raises(self):
        with pytest.raises(NoMatchingError):
            enumerate_admissible(data((1, 1, 2, 3), (-1, 1, 2, 4)))

    def test_permutation_invariant(self, rng):
        d = CP3_123
        base = {g.edges for g in enumerate_admissible(d)}
        # permuting points relabels vertices; map back through the inverse
        perm = [2, 0, 3, 1]
        shuffled = FixedPointData(tuple(d.points[i] for i in perm))
        inverse = {new: perm.index(new) for new in range(4)}
        relabeled = set()
        for g in enumerate_admissible(shuffled):
            edges = []
            for u, v, label in g.edges:
                a, b = sorted((perm[u], perm[v]))
                edges.append((a, b, label))
            relabeled.add(tuple(sorted(edges)))
        assert relabeled == base

    def test_same_sign_small_weight_blocked(self):
        # all weights equal the smallest value and all signs agree: every
        # matching would join equal signs, so nothing is admissible
        d = data((1, 1, 1), (1, 1, 1))
        assert enumerate_admissible(d) == []


def _occurrence_matchings(d):
    """The number of matchings the oracle walks: the product of (m-1)!!
    over the weight values' multiplicities m."""
    total = 1
    for m in Counter(w for p in d.points for w in p.weights).values():
        total *= math.prod(range(m - 1, 0, -2))
    return total


def _graphs_or_error(enumerate, d, cap):
    try:
        return enumerate(d, cap=cap)
    except (GraphCapError, NoMatchingError) as exc:
        return type(exc).__name__, str(exc)


def _assert_valid(graphs):
    """Each graph, built without the constructor's checks, equals the one
    the validating constructor builds from its parts."""
    for g in graphs:
        assert type(g) is LabeledMultigraph
        rebuilt = LabeledMultigraph(g.vertices, g.edges)
        assert g == rebuilt and g.edges == rebuilt.edges and hash(g) == hash(rebuilt)


class TestAgainstMatchingOracle:
    """The direct enumeration against every occurrence matching, filtered
    and deduplicated."""

    def test_random_even_data(self, rng):
        tested = 0
        while tested < 600:
            d = even_data(rng, max_points=8, max_weight=rng.choice((2, 3, 4, 6, 8)))
            if _occurrence_matchings(d) > 3000:
                continue
            tested += 1
            graphs = _graphs_or_error(enumerate_admissible, d, 5000)
            assert graphs == _graphs_or_error(enumerate_admissible_by_matchings, d, 5000), d
            if isinstance(graphs, list):
                _assert_valid(graphs)

    def test_random_data(self, rng):
        for _ in range(300):
            d = random_data(rng, max_points=8, max_weight=3)
            assert _graphs_or_error(enumerate_admissible, d, 5000) == (
                _graphs_or_error(enumerate_admissible_by_matchings, d, 5000)
            ), d

    def test_cap_agrees(self, rng):
        """Exceeding the cap raises the same error, and a value with no
        admissible pairing still gives no graphs however many the others
        have."""
        d = gen_s6_pair(1, 2, 3, 1, 2, 3)
        count = len(enumerate_admissible(d))
        for cap in (0, 1, count - 1, count, 10 ** 6):
            assert _graphs_or_error(enumerate_admissible, d, cap) == (
                _graphs_or_error(enumerate_admissible_by_matchings, d, cap)
            )
        blocked = disjoint_union(data((1, 5, 9), (-1, 5, 9)) , data((1, 1, 1), (1, 1, 1)))
        assert enumerate_admissible(blocked, cap=0) == []
        assert enumerate_admissible_by_matchings(blocked, cap=0) == []

    def test_distinct_graphs(self):
        graphs = enumerate_admissible(
            disjoint_union(gen_cp3(1, 1, 1), gen_cp3(1, 1, 1))
        )
        assert len({g.edges for g in graphs}) == len(graphs)
        _assert_valid(graphs)

    def test_generator_unions(self):
        """Unions of generator data, as the graphs command sees them."""
        for d in (
            disjoint_union(gen_cp3(1, 2, 3), gen_s6_pair(1, 1, 2, 2, 3, 3)),
            disjoint_union(gen_cp3(1, 1, 2), gen_cp3(2, 1, 1)),
            disjoint_union(gen_blowup(1, 2, 3), gen_s6(2, 3, 5)),
            disjoint_union(gen_cp3(1, 2, 3), gen_s6_pair(1, 2, 4, 3, 5, 6)),
        ):
            graphs = enumerate_admissible(d)
            assert graphs and graphs == enumerate_admissible_by_matchings(d)
            _assert_valid(graphs)


class TestMatchFigure1:
    def test_cp3_graph_is_case_e(self):
        case = match_figure1(CP3_123_GRAPH)
        assert case is not None and case.tag == "E"
        assert sorted(case.template_edges()) == sorted(CP3_123_GRAPH.edges)

    def test_sphere_pair_is_case_a(self):
        case = match_figure1(case_a_graph(1, 2, 3, 4, 5, 6))
        assert case is not None and case.tag == "A"

    def test_pattern_300_unmatched(self):
        g = LabeledMultigraph(
            vertices=((0, 1), (1, 1), (2, -1), (3, -1)),
            edges=((0, 1, 1), (0, 1, 2), (0, 1, 3), (2, 3, 1), (2, 3, 2), (2, 3, 3)),
        )
        assert match_figure1(g) is None

    def test_swap_invariance(self):
        base = match_figure1(CP3_123_GRAPH)
        # relabel by swapping the two negative vertices (1 <-> 3)
        mapping = {0: 0, 1: 3, 2: 2, 3: 1}
        edges = tuple(
            (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]), w)
            for u, v, w in CP3_123_GRAPH.edges
        )
        swapped = LabeledMultigraph(CP3_123_GRAPH.vertices, edges)
        case = match_figure1(swapped)
        assert case is not None and case.tag == base.tag

    def test_wrong_vertex_count(self):
        with pytest.raises(ValueError):
            match_figure1(LabeledMultigraph(((0, 1), (1, -1)), ((0, 1, 1),)))

    def test_not_regular(self):
        g = LabeledMultigraph(
            vertices=((0, 1), (1, 1), (2, -1), (3, -1)),
            edges=((0, 2, 1), (1, 3, 1)),
        )
        with pytest.raises(ValueError):
            match_figure1(g)

    def test_generator_coverage(self):
        for params in itertools.product(range(1, 3), repeat=6):
            d = gen_s6_pair(*params)
            tags = {
                case.tag
                for case in map(match_figure1, enumerate_admissible(d))
                if case is not None
            }
            assert tags and tags <= {"A", "B", "C", "D", "E"}


def _case_or_error(match, g):
    try:
        case = match(g)
    except ValueError as exc:
        return "ValueError", str(exc)
    if case is None:
        return None
    # the labels' order too: it is the order they print in
    return case.tag, case.vertex_map, list(case.labels.items())


def _relabeled(g, new_ids):
    return LabeledMultigraph(
        tuple((new_ids[v], s) for v, s in g.vertices),
        tuple(
            (min(new_ids[u], new_ids[v]), max(new_ids[u], new_ids[v]), label)
            for u, v, label in g.edges
        ),
    )


class TestMatchFigure1AgainstScan:
    """The one-pass shape matcher against the one that scans the edge list
    for each count and label list (tests/sweep_oracle.py)."""

    def test_admissible_graphs_at_w3(self):
        # every admissible graph of every taggable candidate with weights
        # <= 3 (437 graphs), as enumerated and under one relabeling each;
        # the relabelings cycle through all 24 orders of four spread-out ids
        orders = list(itertools.permutations((2, 5, 7, 11)))
        graphs = []
        for d in enumerate_candidates(4, 3, 3):
            if figure1_taggable(d):
                try:
                    graphs += enumerate_admissible(d)
                except NoMatchingError:
                    pass
        assert len(graphs) == 437
        for i, g in enumerate(graphs):
            for h in (g, _relabeled(g, orders[i % len(orders)])):
                got = _case_or_error(match_figure1, h)
                assert got is not None and got == _case_or_error(match_figure1_by_scan, h), h

    def test_every_cubic_graph_and_sign_pattern(self):
        # the 3-regular loop-free multigraphs on four vertices pair opposite
        # vertex pairs equally often: a + b + c = 3 edges at 01/23, 02/13 and
        # 03/12; with every choice of the two positive vertices this reaches
        # the patterns no template has, which match nothing
        results = set()
        for a in range(4):
            for b in range(4 - a):
                c = 3 - a - b
                pairs = [(0, 1), (2, 3)] * a + [(0, 2), (1, 3)] * b + [(0, 3), (1, 2)] * c
                edges = tuple((u, v, label) for label, (u, v) in enumerate(pairs, 1))
                for positive in itertools.combinations(range(4), 2):
                    vertices = tuple((v, 1 if v in positive else -1) for v in range(4))
                    g = LabeledMultigraph(vertices, edges)
                    got = _case_or_error(match_figure1, g)
                    assert got == _case_or_error(match_figure1_by_scan, g), g
                    results.add(None if got is None else got[0])
        assert results == {None, "A", "B", "C", "D", "E"}

    @pytest.mark.parametrize(
        "vertices",
        [
            ((0, 1), (0, 1), (1, -1), (1, -1)),
            ((0, 1), (1, 1), (0, -1), (1, -1)),
            # normalized as (0, 0, 1, 0), p1 has pattern A's counts
            ((0, 1), (0, 1), (0, -1), (1, -1)),
        ],
    )
    def test_repeated_vertex_ids(self, vertices):
        # the constructor allows a repeated id; its degree is counted once
        g = LabeledMultigraph(vertices, ((0, 1, 1), (0, 1, 2), (0, 1, 3)))
        assert _case_or_error(match_figure1, g) is None
        assert _case_or_error(match_figure1_by_scan, g) is None

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            (((0, 1), (1, -1), (2, 1)), ((0, 1, 1), (1, 2, 1)), "need exactly 4 vertices"),
            (
                ((0, 1), (1, 1), (2, 1), (3, -1)),
                ((0, 3, 1), (1, 3, 1), (2, 3, 1)),
                "need two vertices of each sign",
            ),
            (
                ((3, -1), (0, 1), (2, 1), (1, -1)),
                # vertices 1 and 3 both fail; the first listed is named
                ((0, 1, 1), (0, 1, 2), (0, 3, 3), (2, 3, 1), (1, 2, 2), (1, 2, 3)),
                "vertex 3 is not 3-regular",
            ),
        ],
    )
    def test_errors(self, vertices, edges, message):
        g = LabeledMultigraph(vertices, edges)
        for match in (match_figure1, match_figure1_by_scan):
            with pytest.raises(ValueError) as info:
                match(g)
            assert str(info.value) == message
