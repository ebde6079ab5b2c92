"""The paper's geometric unit lookup (§3.3), kept as a test oracle.

The paper computes inter-block dependencies "using this classification
and the interval tree structure".  :class:`IntervalTree` is a classic
centered interval tree over closed integer intervals, supporting
stabbing queries (all intervals containing a point) and overlap queries
(all intervals intersecting a range); :class:`UnitLocator` holds one per
column over the row extents of the units covering it.  Production code
reads unit ownership off ``Partition.unit_of_element``;
``test_dependencies.py`` checks those arrays against this mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Interval:
    """Closed integer interval [lo, hi] carrying an opaque payload."""

    lo: int
    hi: int
    data: object = None

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    def contains(self, point: int) -> bool:
        return self.lo <= point <= self.hi

    def overlaps(self, lo: int, hi: int) -> bool:
        return self.lo <= hi and lo <= self.hi


class _Node:
    __slots__ = ("center", "by_lo", "by_hi", "left", "right")

    def __init__(self, center: int, spanning: list[Interval]):
        self.center = center
        self.by_lo = sorted(spanning, key=lambda iv: iv.lo)
        self.by_hi = sorted(spanning, key=lambda iv: iv.hi, reverse=True)
        self.left: _Node | None = None
        self.right: _Node | None = None


class IntervalTree:
    """Immutable centered interval tree.

    Build is O(m log m); stabbing is O(log m + k) for k hits.
    """

    def __init__(self, intervals: list[Interval] | tuple[Interval, ...] = ()):
        self._intervals = list(intervals)
        self._root = self._build(self._intervals)

    def __len__(self) -> int:
        return len(self._intervals)

    @staticmethod
    def _build(intervals: list[Interval]) -> _Node | None:
        if not intervals:
            return None
        points = sorted({iv.lo for iv in intervals} | {iv.hi for iv in intervals})
        center = points[len(points) // 2]
        left = [iv for iv in intervals if iv.hi < center]
        right = [iv for iv in intervals if iv.lo > center]
        spanning = [iv for iv in intervals if iv.lo <= center <= iv.hi]
        node = _Node(center, spanning)
        node.left = IntervalTree._build(left)
        node.right = IntervalTree._build(right)
        return node

    def stab(self, point: int) -> list[Interval]:
        """All intervals containing ``point``, in insertion-independent
        deterministic order (sorted by (lo, hi))."""
        out: list[Interval] = []
        node = self._root
        while node is not None:
            if point < node.center:
                for iv in node.by_lo:
                    if iv.lo > point:
                        break
                    out.append(iv)
                node = node.left
            elif point > node.center:
                for iv in node.by_hi:
                    if iv.hi < point:
                        break
                    out.append(iv)
                node = node.right
            else:
                out.extend(node.by_lo)
                node = None
        out.sort(key=lambda iv: (iv.lo, iv.hi))
        return out

    def overlapping(self, lo: int, hi: int) -> list[Interval]:
        """All intervals intersecting the closed range [lo, hi]."""
        if lo > hi:
            raise ValueError(f"empty query range [{lo}, {hi}]")
        out: list[Interval] = []
        self._collect_overlaps(self._root, lo, hi, out)
        out.sort(key=lambda iv: (iv.lo, iv.hi))
        return out

    @staticmethod
    def _collect_overlaps(node: _Node | None, lo: int, hi: int, out: list[Interval]) -> None:
        if node is None:
            return
        if lo <= node.center <= hi:
            out.extend(node.by_lo)
            IntervalTree._collect_overlaps(node.left, lo, hi, out)
            IntervalTree._collect_overlaps(node.right, lo, hi, out)
        elif hi < node.center:
            for iv in node.by_lo:
                if iv.lo > hi:
                    break
                out.append(iv)
            IntervalTree._collect_overlaps(node.left, lo, hi, out)
        else:  # lo > node.center
            for iv in node.by_hi:
                if iv.hi < lo:
                    break
                out.append(iv)
            IntervalTree._collect_overlaps(node.right, lo, hi, out)


class UnitLocator:
    """Geometric (row, col) -> unit lookup via interval trees (§3.3).

    One interval tree per column holds the row extents of the units
    covering that column; locating an element is a stabbing query.  This
    is the paper-faithful mechanism; the vectorized ownership arrays are
    validated against it in the test suite.
    """

    def __init__(self, partition):
        self.partition = partition
        n = partition.pattern.n
        n_units = partition.num_units
        # Expand every unit's column extent with repeat/cumsum, then group
        # the (column, unit) incidences by column — no per-(unit, column)
        # Python append.
        col_lo = partition.col_lo
        widths = partition.col_hi - col_lo + 1
        unit_of_inc = np.repeat(np.arange(n_units, dtype=np.int64), widths)
        cum = np.cumsum(widths)
        cols = np.arange(int(cum[-1]) if n_units else 0, dtype=np.int64)
        cols += (col_lo - (cum - widths))[unit_of_inc]
        order = np.argsort(cols, kind="stable")  # keeps unit order per column
        sorted_units = unit_of_inc[order]
        bounds = np.searchsorted(cols[order], np.arange(n + 1, dtype=np.int64))
        intervals = [
            Interval(lo, hi, u)
            for u, (lo, hi) in enumerate(zip(partition.row_lo.tolist(), partition.row_hi.tolist()))
        ]
        self._trees = [
            IntervalTree([intervals[k] for k in sorted_units[bounds[c] : bounds[c + 1]]])
            for c in range(n)
        ]

    def locate(self, row: int, col: int) -> int:
        """Unit id owning position (row, col); -1 if no unit covers it.

        For triangle units, positions above the diagonal are rejected.
        """
        if row < col:
            raise ValueError("position above the diagonal")
        # Triangle units only own the lower-triangular part of their
        # bounding square, which (row >= col) guarantees.
        hits = self._trees[col].stab(row)
        return hits[0].data if hits else -1

    def units_overlapping_rows(self, col: int, row_lo: int, row_hi: int) -> list[int]:
        """Units covering ``col`` whose row extents intersect [row_lo, row_hi]."""
        return sorted({iv.data for iv in self._trees[col].overlapping(row_lo, row_hi)})
