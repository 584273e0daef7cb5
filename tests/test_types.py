"""Tests for the shared datatypes."""

import pytest

from repro.types import (
    ExperimentResult,
    Partition,
    PathPoint,
    Segment,
    TableRow,
)


def seg(index, a0, a1, b0, b1, o0, o1):
    return Segment(index, a0, a1, b0, b1, o0, o1)


class TestPathPoint:
    def test_diagonal(self):
        assert PathPoint(3, 4).diagonal == 7

    def test_add(self):
        assert PathPoint(1, 2) + PathPoint(3, 4) == PathPoint(4, 6)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PathPoint(0, 0).i = 1


class TestSegment:
    def test_lengths(self):
        s = seg(0, 2, 5, 1, 3, 3, 8)
        assert s.a_len == 3
        assert s.b_len == 2
        assert s.length == 5

    def test_endpoints(self):
        s = seg(0, 2, 5, 1, 3, 3, 8)
        assert s.start_point == PathPoint(2, 1)
        assert s.end_point == PathPoint(5, 3)

    def test_validate_ok(self):
        seg(0, 0, 2, 0, 1, 0, 3).validate()

    def test_validate_rejects_inconsistent_length(self):
        with pytest.raises(AssertionError):
            seg(0, 0, 2, 0, 1, 0, 4).validate()

    def test_validate_rejects_negative_range(self):
        with pytest.raises(AssertionError):
            seg(0, 3, 2, 0, 1, 0, 0).validate()


class TestPartition:
    def make(self):
        return Partition(
            a_len=3,
            b_len=2,
            segments=(
                seg(0, 0, 2, 0, 1, 0, 3),
                seg(1, 2, 3, 1, 2, 3, 5),
            ),
        )

    def test_container_protocol(self):
        part = self.make()
        assert len(part) == 2
        assert part[1].index == 1
        assert [s.index for s in part] == [0, 1]

    def test_totals(self):
        part = self.make()
        assert part.total_length == 5
        assert part.p == 2
        assert part.segment_lengths == (3, 2)
        assert part.max_imbalance == 1

    def test_validate_ok(self):
        self.make().validate()

    def test_validate_rejects_gap(self):
        broken = Partition(
            a_len=3,
            b_len=2,
            segments=(
                seg(0, 0, 1, 0, 1, 0, 2),   # ends at (1,1)
                seg(1, 2, 3, 1, 2, 3, 5),   # starts at (2,1): gap
            ),
        )
        with pytest.raises(AssertionError):
            broken.validate()

    def test_validate_rejects_incomplete_cover(self):
        broken = Partition(
            a_len=3, b_len=2, segments=(seg(0, 0, 2, 0, 1, 0, 3),)
        )
        with pytest.raises(AssertionError):
            broken.validate()


class TestExperimentResult:
    def test_add_row_and_column(self):
        r = ExperimentResult(exp_id="X", title="t", columns=["a", "b"])
        r.add_row(a=1, b=2)
        r.add_row(a=3, b=4)
        assert r.column("a") == [1, 3]
        assert r.rows[0]["b"] == 2

    def test_table_row_get(self):
        row = TableRow({"x": 1})
        assert row.get("x") == 1
        assert row.get("missing", "d") == "d"
