import hashlib
import itertools

import pytest

from circleact.constraints import check_congruence_pairing, check_weight_parity
from circleact.core import FixedPointData, data, parse
from circleact.multigraph import enumerate_admissible
from circleact.sweep import (
    classify_label,
    parity_mask,
    point_kinds,
    survivors,
    sweep,
    to_csv,
)
from circleact.rewrite import _case_script, collection_from_data
from rewrite_oracle import case_script_by_search
from sweep_oracle import (
    congruence_pairing_by_enumeration,
    csv_by_format,
    enumerate_admissible_by_matchings,
    enumerate_candidates,
    sweep_by_filtering,
)

# SHA-256 of the CSV of `circleact oracle --max-weight 4` (123,410 rows).
W4_DIGEST = "be9869c2bb4d3a188176f581211463a1b8bb11137aea3ceb5075252d708d752d"


@pytest.fixture(scope="module")
def w4_rows():
    return sweep(points=4, arity=3, max_weight=4)


class TestEnumerateCandidates:
    def test_count_small(self):
        # 2 signs x C(2+1,2)=3 weight tuples = 6 datums; pairs with
        # replacement: C(6+1,2) = 21
        got = list(enumerate_candidates(points=2, arity=2, max_weight=2))
        assert len(got) == 21

    def test_canonical_up_to_permutation(self):
        got = list(enumerate_candidates(points=2, arity=1, max_weight=2))
        keys = [tuple(sorted((p.sign, p.weights) for p in d.points)) for d in got]
        assert len(keys) == len(set(keys))


class TestSweep:
    def test_two_point_arity_two(self):
        rows = sweep(points=2, arity=2, max_weight=2)
        assert len(rows) == 21
        passed = [r for r in rows if r.checks_passed]
        # only the balanced rotation pairs survive the suite
        assert all("+" in r.serialized and "-" in r.serialized for r in passed)

    def test_survivors_classified(self):
        rows = sweep(points=4, arity=3, max_weight=2)
        surv = survivors(rows)
        assert surv
        assert all(
            "NotInClassification" not in r.classification for r in surv
        )

    def test_csv_shape(self):
        rows = sweep(points=2, arity=2, max_weight=2)
        out = to_csv(rows)
        lines = out.strip().splitlines()
        assert lines[0] == "data,checks_passed,failed_checks,figure1_tags,classification"
        assert len(lines) == len(rows) + 1


class TestAgainstFilteringOracle:
    """The sweep that decides the cheap checks per point kind against the
    one that builds and checks every candidate."""

    @pytest.mark.parametrize("points", range(6))
    def test_csv_grid(self, points):
        shapes = [*itertools.product((1, 2, 3), (1, 2, 3)), (4, 1), (4, 2)]
        if points == 5:
            shapes = [(arity, w) for arity, w in shapes if arity <= 2]
        for arity, max_weight in shapes:
            assert to_csv(sweep(points, arity, max_weight)) == csv_by_format(
                sweep_by_filtering(points, arity, max_weight)
            ), (points, arity, max_weight)

    @pytest.mark.parametrize(
        "points, arity, max_weight",
        [(2, 1, 11), (2, 1, 12), (2, 2, 11), (2, 2, 12), (3, 1, 12)],
    )
    def test_two_digit_weights_come_out_sorted(self, points, arity, max_weight):
        # with two-digit weights the text order of the kinds is not their
        # numeric order ({+,1,10} < {+,1,2}), and + sorts before -
        rows = sweep(points, arity, max_weight)
        assert rows == sorted(rows, key=lambda r: r.serialized)
        assert to_csv(rows) == csv_by_format(
            sweep_by_filtering(points, arity, max_weight)
        )

    def test_w4_digest(self, w4_rows):
        assert len(w4_rows) == 123410
        assert hashlib.sha256(to_csv(w4_rows).encode()).hexdigest() == W4_DIGEST

    def test_mask_is_weight_parity(self):
        kinds = point_kinds(3, 4)
        masks = [parity_mask(p) for p in kinds]
        failing = 0
        for combo in itertools.combinations_with_replacement(range(len(kinds)), 4):
            mask = masks[combo[0]] ^ masks[combo[1]] ^ masks[combo[2]] ^ masks[combo[3]]
            d = FixedPointData(tuple(kinds[i] for i in combo))
            assert bool(mask) == check_weight_parity(d).failed, d
            failing += bool(mask)
        assert failing == 123410 - 16786

    def test_w4_survivors_graphs_and_pairings(self, w4_rows):
        surv = survivors(w4_rows)
        assert len(surv) == 212
        for row in surv:
            d = _row_data(row)
            assert enumerate_admissible(d) == enumerate_admissible_by_matchings(d)
            for w in sorted({x for p in d.points for x in p.weights}):
                new, old = check_congruence_pairing(d, w), congruence_pairing_by_enumeration(d, w)
                assert (new.status, new.witness, new.detail) == (
                    old.status, old.witness, old.detail
                )


    def test_w4_survivor_scripts(self, w4_rows):
        # every survivor is Case 1 or Case 2, so each has a 4-point script;
        # the closed form against the script that searched for its op-1 moves
        for row in survivors(w4_rows):
            c = collection_from_data(_row_data(row))
            got, want = _case_script(c), case_script_by_search(c)
            assert want is not None
            assert [m.to_dict() for m in got] == [m.to_dict() for m in want], row


def _row_data(row) -> FixedPointData:
    return parse(
        "".join(
            point.strip("{}").replace(",", " ") + "\n"
            for point in row.serialized.split("; ")
        )
    )


class TestClassifyLabel:
    def test_labels(self):
        petrie = data((1, 7, 2, 3), (-1, 7, 2, 3), (1, 5, 2, 3), (-1, 5, 2, 3))
        assert classify_label(petrie) == "Case1"
        assert classify_label(data((1, 1, 2), (-1, 1, 2))) == "FourDimReachable"
        assert classify_label(data((1, 1, 1))) == "NotInClassification"

    def test_unsupported_shapes_have_no_label(self):
        assert classify_label(data((1, 1, 2, 3), (-1, 1, 2, 3), (1, 1, 2, 3))) == ""
        assert classify_label(FixedPointData(())) == ""
