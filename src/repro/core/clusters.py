"""Cluster identification (paper §3.1).

A cluster is a single column or a strip of consecutive columns whose
diagonal block is a dense triangle (optionally admitting a bounded
fraction of padding zeros).  A multi-column cluster additionally owns a
set of dense off-diagonal rectangles: the maximal runs of consecutive
nonzero rows below the triangle, spanning the full cluster width.

A :class:`ClusterSet` stores the clusters as parallel columns (a
rectilinear partition is its cut vectors); :class:`Cluster` is the row
view of one of them.  Both scans report only the multi-column strips
they accept — every other column is a single-column cluster — and
:func:`_cluster_set` turns the strips into the columns.

:func:`find_clusters` dispatches to a vectorized scan for the default
``zero_tolerance == 0`` case: each column's leading run of consecutive
rows is measured once with ``np.diff`` over the whole pattern, and a
strip [s, e] has a dense triangle iff every column c in it reaches row e
consecutively — a running-minimum test over those run lengths.  Any
nonzero tolerance falls back to :func:`find_clusters_reference`, the
original per-entry probing scan, which is also kept as the identity
reference for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..sparse.pattern import LowerPattern
from .blocks import BlockKind, DenseBlock

__all__ = ["Cluster", "ClusterSet", "find_clusters", "find_clusters_reference"]


@dataclass(frozen=True)
class Cluster:
    """One cluster: its column strip and its dense blocks.

    Exactly one of two shapes: a single-column cluster has ``column``
    set and no triangle/rectangles; a multi-column cluster has a
    ``triangle`` and zero or more ``rectangles``.
    """

    index: int
    col_lo: int
    col_hi: int
    triangle: DenseBlock | None
    rectangles: tuple[DenseBlock, ...]
    column: DenseBlock | None = None
    triangle_padding: int = 0
    rectangle_padding: int = 0

    def __post_init__(self) -> None:
        if (self.triangle is None) == (self.column is None):
            raise ValueError("cluster must have either a triangle or a column block")

    @property
    def width(self) -> int:
        return self.col_hi - self.col_lo + 1

    @property
    def is_column(self) -> bool:
        return self.column is not None

    @property
    def padding_zeros(self) -> int:
        """Structural zeros included in this cluster's dense blocks:
        triangle padding (bounded by the zero tolerance) plus rectangle
        padding (rows present in only part of the strip)."""
        return self.triangle_padding + self.rectangle_padding

    @property
    def dense_blocks(self) -> tuple[DenseBlock, ...]:
        if self.column is not None:
            return (self.column,)
        return (self.triangle, *self.rectangles)


class ClusterSet:
    """All clusters of a factor pattern, left to right, as parallel
    int64 columns with one entry per cluster: ``col_lo``, ``col_hi``,
    ``triangle_padding``, ``rectangle_padding``, plus the derived
    ``is_column`` (a single-column cluster) and ``column_row_hi`` (last
    row of a single column, -1 for a strip).  The dense rectangles of
    cluster ``i`` are the ``[row_lo, row_hi]`` rows
    ``rect_rows[rect_indptr[i]:rect_indptr[i + 1]]``.

    ``len()``, indexing and iteration read rows back as :class:`Cluster`.
    """

    def __init__(
        self,
        pattern: LowerPattern,
        col_lo,
        col_hi,
        triangle_padding,
        rectangle_padding,
        rect_indptr,
        rect_rows,
        min_width: int,
        zero_tolerance: float,
    ):
        self.pattern = pattern
        self.min_width = min_width
        self.zero_tolerance = zero_tolerance
        (self.col_lo, self.col_hi, self.triangle_padding, self.rectangle_padding,
         self.rect_indptr) = (
            np.asarray(col, dtype=np.int64)
            for col in (col_lo, col_hi, triangle_padding, rectangle_padding, rect_indptr)
        )
        self.rect_rows = np.asarray(rect_rows, dtype=np.int64).reshape(-1, 2)
        self._check_columns()
        self.is_column = self.col_lo == self.col_hi
        last_row = pattern.rowidx[pattern.indptr[self.col_hi + 1] - 1]
        self.column_row_hi = np.where(self.is_column, last_row, -1).astype(np.int64)

    def _check_columns(self) -> None:
        n, k = self.pattern.n, len(self.col_lo)
        lo, hi, ptr, rows = self.col_lo, self.col_hi, self.rect_indptr, self.rect_rows
        if not (len(hi) == len(self.triangle_padding) == len(self.rectangle_padding) == k
                and len(ptr) == k + 1):
            raise ValueError("cluster columns differ in length")
        if n == 0 and k == 0:
            return
        tiles = (
            k > 0 and lo[0] == 0 and hi[-1] == n - 1
            and (lo <= hi).all() and (lo[1:] == hi[:-1] + 1).all()
        )
        if not tiles:
            raise ValueError("clusters do not tile the columns")
        counts = np.diff(ptr)
        if ptr[0] != 0 or ptr[-1] != len(rows) or (counts < 0).any() or counts[lo == hi].any():
            raise ValueError("malformed cluster rectangle index")
        below = np.repeat(hi, counts)
        if not ((below < rows[:, 0]) & (rows[:, 0] <= rows[:, 1]) & (rows[:, 1] < n)).all():
            raise ValueError("cluster rectangle outside the pattern")

    def __len__(self) -> int:
        return len(self.col_lo)

    def __getitem__(self, i: int) -> Cluster:
        i = range(len(self))[i]
        lo, hi = int(self.col_lo[i]), int(self.col_hi[i])
        pads = {
            "triangle_padding": int(self.triangle_padding[i]),
            "rectangle_padding": int(self.rectangle_padding[i]),
        }
        if self.is_column[i]:
            column = DenseBlock(BlockKind.COLUMN, i, lo, hi, lo, int(self.column_row_hi[i]))
            return Cluster(i, lo, hi, None, (), column=column, **pads)
        rects = tuple(
            DenseBlock(BlockKind.RECTANGLE, i, lo, hi, r0, r1)
            for r0, r1 in self.rect_rows[self.rect_indptr[i] : self.rect_indptr[i + 1]].tolist()
        )
        return Cluster(i, lo, hi, DenseBlock(BlockKind.TRIANGLE, i, lo, hi, lo, hi), rects, **pads)

    @cached_property
    def clusters(self) -> tuple[Cluster, ...]:
        return tuple(self[i] for i in range(len(self)))

    def __iter__(self):
        return iter(self.clusters)

    @cached_property
    def cluster_of_column(self) -> np.ndarray:
        return np.repeat(
            np.arange(len(self), dtype=np.int64), self.col_hi - self.col_lo + 1
        )

    def total_padding(self) -> int:
        return self.total_triangle_padding() + int(self.rectangle_padding.sum())

    def total_triangle_padding(self) -> int:
        return int(self.triangle_padding.sum())


def _cluster_set(
    pattern: LowerPattern, strips: list[tuple], min_width: int, zero_tolerance: float
) -> ClusterSet:
    """The cluster columns of a scan.  ``strips`` lists the accepted
    multi-column strips left to right as ``(s, e, triangle padding,
    rectangle [row_lo, row_hi] rows, rectangle padding)``; every column
    outside them is a single-column cluster."""
    n = pattern.n
    s, e, tri_pad, rects, rect_pad = zip(*strips) if strips else ((),) * 5
    s = np.asarray(s, dtype=np.int64)
    e = np.asarray(e, dtype=np.int64)
    # Columns s+1..e of a strip start no cluster; all others start one.
    inside = np.zeros(n + 1, dtype=np.int64)
    inside[s + 1] = 1
    inside[e + 1] -= 1
    col_lo = np.flatnonzero(np.cumsum(inside[:n]) == 0)
    col_hi = np.append(col_lo[1:], n)[: len(col_lo)] - 1  # n == 0: no clusters
    which = np.searchsorted(col_lo, s)  # cluster index of each strip
    # Per cluster: triangle padding, rectangle padding, rectangle count.
    columns = np.zeros((3, len(col_lo)), dtype=np.int64)
    columns[:, which] = tri_pad, rect_pad, [len(r) for r in rects]
    return ClusterSet(
        pattern, col_lo, col_hi, columns[0], columns[1],
        np.concatenate([[0], np.cumsum(columns[2])]),
        np.concatenate([np.reshape(r, (-1, 2)) for r in rects]) if rects else (),
        min_width, zero_tolerance,
    )


def _triangle_missing_when_extended(pattern: LowerPattern, s: int, e_new: int) -> int:
    """Padding zeros added to the triangle of strip [s, e_new] relative to
    [s, e_new - 1]: the required entries are row ``e_new`` in columns
    s..e_new (the diagonal is always present)."""
    missing = 0
    for c in range(s, e_new):
        if not pattern.has(e_new, c):
            missing += 1
    return missing


def _rectangles_for_strip(
    pattern: LowerPattern, s: int, e: int
) -> tuple[list[tuple[int, int]], int]:
    """Dense rectangles below the triangle of strip [s, e]: maximal runs of
    consecutive rows > e that are nonzero in any column of the strip.
    Returns ([row_lo, row_hi] per rectangle, padding-zero count inside
    them)."""
    pieces = []
    for c in range(s, e + 1):
        col = pattern.col(c)
        pieces.append(col[col > e])
    rows = np.unique(np.concatenate(pieces))
    if len(rows) == 0:
        return [], 0
    # Split into maximal consecutive runs.
    breaks = np.nonzero(np.diff(rows) > 1)[0]
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(rows) - 1]])
    rects = []
    padding = 0
    width = e - s + 1
    present_count: dict[int, int] = {int(r): 0 for r in rows}
    for piece in pieces:
        for r in piece.tolist():
            present_count[int(r)] += 1
    for a, b in zip(starts.tolist(), ends.tolist()):
        r_lo, r_hi = int(rows[a]), int(rows[b])
        rects.append((r_lo, r_hi))
        for r in range(r_lo, r_hi + 1):
            padding += width - present_count.get(r, 0)
    return rects, padding


def _check_cluster_params(min_width: int, zero_tolerance: float) -> None:
    if min_width < 1:
        raise ValueError("min_width must be at least 1")
    if not (0.0 <= zero_tolerance < 1.0):
        raise ValueError("zero_tolerance must be in [0, 1)")


def _rectangles_for_strip_fast(
    pattern: LowerPattern, s: int, e: int
) -> tuple[np.ndarray, int]:
    """Vectorized :func:`_rectangles_for_strip`: one slice over the whole
    strip, runs found via ``np.diff`` on the unique below-triangle rows,
    padding from cumulative per-row presence counts."""
    lo, hi = int(pattern.indptr[s]), int(pattern.indptr[e + 1])
    strip_rows = pattern.rowidx[lo:hi]
    rows, present = np.unique(strip_rows[strip_rows > e], return_counts=True)
    if rows.size == 0:
        return np.zeros((0, 2), dtype=np.int64), 0
    breaks = np.flatnonzero(np.diff(rows) > 1)
    starts = np.concatenate([[0], breaks + 1])
    ends = np.concatenate([breaks, [len(rows) - 1]])
    csum = np.concatenate([[0], np.cumsum(present)])
    r_lo, r_hi = rows[starts], rows[ends]
    padding = (e - s + 1) * (r_hi - r_lo + 1) - (csum[ends + 1] - csum[starts])
    return np.stack([r_lo, r_hi], axis=1), int(padding.sum())


def _find_clusters_dense(pattern: LowerPattern, min_width: int) -> ClusterSet:
    """Fast scan for ``zero_tolerance == 0``: a strip's triangle is dense
    iff every member column's leading run of consecutive rows reaches the
    strip's last column."""
    n = pattern.n
    indptr = pattern.indptr
    nnz = pattern.nnz
    # reach[c] = one past the last row r such that rows c..r are all
    # present in column c (the diagonal is always present).  Buffers are
    # pre-sized from the column counts; run breaks come from np.diff.
    if nnz:
        brk = np.empty(nnz, dtype=bool)
        brk[:-1] = np.diff(pattern.rowidx) != 1
        brk[-1] = True
        brk[indptr[1:] - 1] = True  # a column's last entry ends its run
        brkpos = np.flatnonzero(brk)
        first_brk = brkpos[np.searchsorted(brkpos, indptr[:-1])]
        runlen = first_brk - indptr[:-1] + 1
    else:
        runlen = np.zeros(0, dtype=np.int64)
    reach = (np.arange(n, dtype=np.int64) + runlen).tolist()
    strips = []
    scanned = 0  # columns below this sit in an accepted strip
    # A column whose run is its diagonal alone can neither start a strip
    # nor sit inside one before its last column, so the scan need only
    # start from the others.
    for s in np.flatnonzero(runlen > 1).tolist():
        if s < scanned:
            continue
        # Grow [s, e] while min(reach[s..e]) still covers row e + 1.
        e, m = s, reach[s]
        while m >= e + 2:
            e += 1
            if reach[e] < m:
                m = reach[e]
        if e - s + 1 >= min_width:
            strips.append((s, e, 0, *_rectangles_for_strip_fast(pattern, s, e)))
            scanned = e + 1
    return _cluster_set(pattern, strips, min_width, 0.0)


def find_clusters(
    pattern: LowerPattern,
    min_width: int = 4,
    zero_tolerance: float = 0.0,
) -> ClusterSet:
    """Identify clusters in a factor pattern, scanning left to right.

    A strip [s, e] is grown greedily while the fraction of padding zeros
    in its diagonal triangle stays within ``zero_tolerance``.  Strips
    narrower than ``min_width`` are broken into single-column clusters
    (the paper's "minimum cluster width" parameter); the scan then
    resumes at the *next* column, so a wide cluster starting one column
    later is still found (cf. the paper's column-34 example).

    The default ``zero_tolerance == 0`` runs the vectorized scan; any
    nonzero tolerance uses :func:`find_clusters_reference`.
    """
    _check_cluster_params(min_width, zero_tolerance)
    if zero_tolerance == 0.0:
        return _find_clusters_dense(pattern, min_width)
    return find_clusters_reference(pattern, min_width, zero_tolerance)


def find_clusters_reference(
    pattern: LowerPattern,
    min_width: int = 4,
    zero_tolerance: float = 0.0,
) -> ClusterSet:
    """Reference cluster scan: per-entry probing, kept bit-identical to
    the pre-vectorization implementation (see :func:`find_clusters`)."""
    _check_cluster_params(min_width, zero_tolerance)
    n = pattern.n
    strips = []
    s = 0
    while s < n:
        # Grow the strip [s, e] as far as the zero tolerance allows.
        e = s
        missing = 0
        while e + 1 < n:
            add = _triangle_missing_when_extended(pattern, s, e + 1)
            w = e + 1 - s + 1
            tri_area = w * (w + 1) // 2
            if missing + add > zero_tolerance * tri_area:
                break
            missing += add
            e += 1
        width = e - s + 1
        if width >= min_width and width > 1:
            strips.append((s, e, missing, *_rectangles_for_strip(pattern, s, e)))
            s = e + 1
        else:
            s += 1
    return _cluster_set(pattern, strips, min_width, zero_tolerance)
