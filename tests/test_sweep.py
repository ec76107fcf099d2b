from circleact.core import FixedPointData, data
from circleact.sweep import (
    classify_label,
    enumerate_candidates,
    survivors,
    sweep,
    to_csv,
)


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


class TestClassifyLabel:
    def test_labels(self):
        petrie = data((1, 7, 2, 3), (-1, 7, 2, 3), (1, 5, 2, 3), (-1, 5, 2, 3))
        assert classify_label(petrie) == "Case1"
        assert classify_label(data((1, 1, 2), (-1, 1, 2))) == "FourDimReachable"
        assert classify_label(data((1, 1, 1))) == "NotInClassification"

    def test_unsupported_shapes_have_no_label(self):
        assert classify_label(data((1, 1, 2, 3), (-1, 1, 2, 3), (1, 1, 2, 3))) == ""
        assert classify_label(FixedPointData(())) == ""
