"""Inter-block dependency identification (paper §3.3).

Every Cholesky pair update ``L[i,j] -= L[i,k] * L[j,k]`` reads two source
elements from column k and writes a target element; at the unit-block
level this induces a dependency of the target's unit on each source
element's unit.  The paper classifies these dependencies into ten
categories.  The categories are geometric statements about *unit*
blocks (this is what makes the paper's printed conditions — e.g.
category 5's ``c2 < c3`` for two column-chunks of one cluster — line
up):

1.  a column updates a column
2.  a column updates a triangle
3.  a column updates a rectangle
4.  a triangle updates a rectangle            (co-source is the target itself)
5.  a triangle and a rectangle update a rectangle
6.  a rectangle updates a column              (both sources in one rectangle)
7.  two rectangles update a column
8.  a rectangle updates a triangle            (both sources in one rectangle)
9.  two rectangles update a triangle
10. two rectangles update a rectangle         (the same-rectangle case is
                                               folded in here as the
                                               degenerate R1 == R2 form)

Category 0 is internal: all three elements in one unit (no dependency).
Scale updates (by the column's diagonal element) are tracked separately.

Two implementations are provided: a vectorized element-ownership path
(the default) and a geometric path using the interval tree of §3.3,
retained for cross-validation and for the paper-faithful query API.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..obs import trace as obs
from ..symbolic.updates import UpdateSet
from .interval_tree import Interval, IntervalTree
from .partitioner import Partition

__all__ = [
    "CATEGORY_NAMES",
    "DependencyInfo",
    "classify_pair_updates",
    "analyze_dependencies",
    "UnitLocator",
]

CATEGORY_NAMES = {
    0: "internal (within one unit)",
    1: "a column updates a column",
    2: "a column updates a triangle",
    3: "a column updates a rectangle",
    4: "a triangle updates a rectangle",
    5: "a triangle and a rectangle update a rectangle",
    6: "a rectangle updates a column",
    7: "two rectangles update a column",
    8: "a rectangle updates a triangle",
    9: "two rectangles update a triangle",
    10: "two rectangles update a rectangle",
}

def classify_pair_updates(partition: Partition, updates: UpdateSet) -> np.ndarray:
    """Category code (0..10) for every pair update, vectorized."""
    uoe = partition.unit_of_element
    uj = uoe[updates.source_j]
    ui = uoe[updates.source_i]
    ut = uoe[updates.target]
    # Kind codes (blocks.KIND_CODE): 0 column, 1 triangle, 2 rectangle.
    kj, kt = partition.kind[uj], partition.kind[ut]

    cat = np.zeros(len(ut), dtype=np.int64)
    internal = (uj == ut) & (ui == ut)

    is_col = kj == 0
    cat = np.where(~internal & is_col, 1 + kt, cat)

    is_tri = kj == 1
    cat = np.where(~internal & is_tri & (ui == ut), 4, cat)
    cat = np.where(~internal & is_tri & (ui != ut), 5, cat)

    is_rect = kj == 2
    same_rect = ui == uj
    cat = np.where(~internal & is_rect & (kt == 0) & same_rect, 6, cat)
    cat = np.where(~internal & is_rect & (kt == 0) & ~same_rect, 7, cat)
    cat = np.where(~internal & is_rect & (kt == 1) & same_rect, 8, cat)
    cat = np.where(~internal & is_rect & (kt == 1) & ~same_rect, 9, cat)
    cat = np.where(~internal & is_rect & (kt == 2), 10, cat)
    return cat


@dataclass
class DependencyInfo:
    """Unit-level dependency structure of a partition.

    ``edges`` is the set of (source unit, target unit) pairs, source !=
    target, where the target's updates read at least one element owned by
    the source.  ``predecessors[u]`` lists the units u depends on.
    """

    partition: Partition
    edges: np.ndarray  # (m, 2) int64, unique, lexicographically sorted
    category_counts: dict[int, int]
    include_scale: bool

    @cached_property
    def predecessor_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ptr, src, first)``: unit ``u`` depends on the units
        ``src[ptr[u]:ptr[u + 1]]``, ascending, the first of which is
        ``first[u]`` (-1 for an independent unit)."""
        # ``edges`` is unique and sorted by (source, target), so a stable
        # sort on target groups each unit's predecessors in ascending
        # source order.
        n_units = self.partition.num_units
        tgt = self.edges[:, 1]
        src = np.ascontiguousarray(self.edges[np.argsort(tgt, kind="stable"), 0])
        ptr = np.concatenate([[0], np.cumsum(np.bincount(tgt, minlength=n_units))])
        first = np.full(n_units, -1, dtype=np.int64)
        dependent = np.flatnonzero(ptr[:-1] < ptr[1:])
        first[dependent] = src[ptr[dependent]]
        return ptr, src, first

    @cached_property
    def predecessors(self) -> list[np.ndarray]:
        ptr, src, _ = self.predecessor_csr
        return [src[ptr[u] : ptr[u + 1]] for u in range(self.partition.num_units)]

    @cached_property
    def successors(self) -> list[np.ndarray]:
        # Lexicographic (source, target) order means ``edges`` is already
        # grouped by source with ascending targets.
        n_units = self.partition.num_units
        src = self.edges[:, 0]
        tgt = np.ascontiguousarray(self.edges[:, 1])
        bounds = np.searchsorted(src, np.arange(n_units + 1, dtype=np.int64))
        return [tgt[bounds[u] : bounds[u + 1]] for u in range(n_units)]

    @cached_property
    def independent_units(self) -> np.ndarray:
        """Boolean mask: units with no predecessors (never updated by
        another unit's data) — the paper's "independent columns"."""
        out = np.ones(self.partition.num_units, dtype=bool)
        out[self.edges[:, 1]] = False
        return out

    def num_edges(self) -> int:
        return len(self.edges)


def analyze_dependencies(
    partition: Partition, updates: UpdateSet, include_scale: bool = True
) -> DependencyInfo:
    """Build the unit dependency graph from the element-level updates.

    ``include_scale`` adds the dependencies induced by diagonal/scale
    updates (an element's unit depends on the unit owning its column's
    diagonal element).
    """
    uoe = partition.unit_of_element
    ut = uoe[updates.target]
    srcs = [uoe[updates.source_i], uoe[updates.source_j]]
    tgts = [ut, ut]
    if include_scale:
        all_eids = np.arange(partition.pattern.nnz, dtype=np.int64)
        srcs.append(uoe[updates.scale_source])
        tgts.append(uoe[all_eids])
    src = np.concatenate(srcs)
    tgt = np.concatenate(tgts)
    n_units = partition.num_units
    key = src * np.int64(n_units) + tgt
    # Updates are enumerated column by column, so consecutive reads very
    # often repeat an edge: dropping self-pairs and adjacent duplicates
    # first leaves the sort a fraction of the keys.
    keep = src != tgt
    keep[1:] &= key[1:] != key[:-1]
    key = np.unique(key[keep])
    edges = np.stack([key // n_units, key % n_units], axis=1)

    cats = classify_pair_updates(partition, updates)
    counts = np.bincount(cats, minlength=len(CATEGORY_NAMES)).tolist()
    category_counts = {cat: n for cat, n in enumerate(counts) if n}
    if obs.is_enabled():
        obs.counter("deps.edges", len(edges))
        for cat, count in category_counts.items():
            obs.counter(f"deps.category.{cat:02d}", count)
    return DependencyInfo(partition, edges, category_counts, include_scale)


class UnitLocator:
    """Geometric (row, col) -> unit lookup via interval trees (§3.3).

    One interval tree per column holds the row extents of the units
    covering that column; locating an element is a stabbing query.  This
    is the paper-faithful mechanism; the vectorized ownership arrays are
    validated against it in the test suite.
    """

    def __init__(self, partition: Partition):
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
