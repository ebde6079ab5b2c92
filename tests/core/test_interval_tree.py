"""Interval tree vs brute force."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .interval_oracle import Interval, IntervalTree


def _brute_stab(intervals, point):
    return sorted(
        (iv for iv in intervals if iv.contains(point)), key=lambda iv: (iv.lo, iv.hi)
    )


def _brute_overlap(intervals, lo, hi):
    return sorted(
        (iv for iv in intervals if iv.overlaps(lo, hi)), key=lambda iv: (iv.lo, iv.hi)
    )


intervals_strategy = st.lists(
    st.tuples(st.integers(0, 100), st.integers(0, 50)).map(
        lambda t: Interval(t[0], t[0] + t[1])
    ),
    max_size=40,
)


class TestInterval:
    def test_contains(self):
        iv = Interval(2, 5)
        assert iv.contains(2) and iv.contains(5) and not iv.contains(6)

    def test_overlaps(self):
        iv = Interval(2, 5)
        assert iv.overlaps(5, 9)
        assert iv.overlaps(0, 2)
        assert not iv.overlaps(6, 9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 2)

    def test_payload(self):
        assert Interval(0, 1, "x").data == "x"


class TestIntervalTree:
    def test_empty_tree(self):
        t = IntervalTree([])
        assert len(t) == 0
        assert t.stab(5) == []
        assert t.overlapping(0, 10) == []

    def test_single(self):
        t = IntervalTree([Interval(3, 7)])
        assert len(t.stab(5)) == 1
        assert t.stab(8) == []

    def test_nested_intervals(self):
        ivs = [Interval(0, 10), Interval(2, 8), Interval(4, 6)]
        t = IntervalTree(ivs)
        assert len(t.stab(5)) == 3
        assert len(t.stab(1)) == 1

    def test_overlapping_range_query(self):
        ivs = [Interval(0, 2), Interval(5, 7), Interval(10, 12)]
        t = IntervalTree(ivs)
        hits = t.overlapping(6, 11)
        assert [(iv.lo, iv.hi) for iv in hits] == [(5, 7), (10, 12)]

    def test_overlapping_rejects_empty_range(self):
        with pytest.raises(ValueError):
            IntervalTree([Interval(0, 1)]).overlapping(5, 3)

    @given(intervals_strategy, st.integers(0, 160))
    @settings(max_examples=60, deadline=None)
    def test_stab_matches_brute_force(self, intervals, point):
        t = IntervalTree(intervals)
        assert t.stab(point) == _brute_stab(intervals, point)

    @given(intervals_strategy, st.integers(0, 160), st.integers(0, 30))
    @settings(max_examples=60, deadline=None)
    def test_overlap_matches_brute_force(self, intervals, lo, span):
        t = IntervalTree(intervals)
        assert t.overlapping(lo, lo + span) == _brute_overlap(intervals, lo, lo + span)
