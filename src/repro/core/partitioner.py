"""Partitioning of dense blocks into schedulable unit blocks (paper §3.2).

The grain size g is the minimum number of matrix elements (geometric,
padding included) per unit block; it dictates a maximum number of
partitions P_d = floor(area / g).  A block is split into *at most* P_d
roughly equal units:

* a **triangle** of width w is split into b column chunks, producing b
  diagonal unit triangles and b(b-1)/2 unit rectangles (Figure 3 shows
  b = 3: units t1..t6); b is the largest value with b(b+1)/2 <= P_d;
* a **rectangle** is split into an nr x nc grid with nr*nc <= P_d,
  chosen to maximize the unit count with near-square units;
* a **column** is a single unit and is never split.

A :class:`Partition` stores its units as one int64 table — a row per
:data:`~repro.core.blocks.UNIT_COLUMNS` name, a column per unit, units in
allocation order — and :class:`~repro.core.blocks.UnitBlock` is the row
view of one unit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..obs import trace as obs
from ..sparse.dtypes import as_processor_count
from ..sparse.pattern import LowerPattern
from .blocks import KIND_CODE, KINDS, UNIT_COLUMNS, UnitBlock
from .clusters import ClusterSet, find_clusters

__all__ = [
    "PARTITION_IMPL_VERSION",
    "Partition",
    "partition_factor",
    "partition_clusters",
    "chunk_bounds",
]

#: Version tag of the partition + dependency stage semantics.  Bump it
#: whenever :func:`partition_factor`, :func:`find_clusters` or
#: :func:`repro.core.dependencies.analyze_dependencies` change their
#: output, so disk-cached partition entries written by the old kernel
#: are invalidated (treated as misses) rather than silently reused.
PARTITION_IMPL_VERSION = 1


def chunk_bounds(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """Split the inclusive range [lo, hi] into ``parts`` near-equal
    contiguous chunks (larger chunks first)."""
    length = hi - lo + 1
    if not (1 <= parts <= length):
        raise ValueError(f"cannot split {length} indices into {parts} chunks")
    base, extra = divmod(length, parts)
    out = []
    start = lo
    for p in range(parts):
        size = base + (1 if p < extra else 0)
        out.append((start, start + size - 1))
        start += size
    return out


def triangle_split_count(area: int, grain: int, max_parts: int | None = None) -> int:
    """Number of column chunks b for a triangle: largest b with
    b(b+1)/2 unit blocks allowed by the grain (and ``max_parts``)."""
    pd = max(1, area // max(grain, 1))
    if max_parts is not None:
        pd = min(pd, max_parts)
    b = 1
    while (b + 1) * (b + 2) // 2 <= pd:
        b += 1
    return b


def rectangle_grid(
    height: int, width: int, area: int, grain: int, max_parts: int | None = None
) -> tuple[int, int]:
    """Grid shape (nr, nc) for a rectangle: maximize nr*nc <= P_d with
    near-square units (ties broken toward squarer aspect)."""
    pd = max(1, area // max(grain, 1))
    if max_parts is not None:
        pd = min(pd, max_parts)
    pd = min(pd, height * width)
    best = (1, 1)
    best_score = (-1, float("inf"))
    for nc in range(1, min(width, pd) + 1):
        nr = min(height, pd // nc)
        if nr < 1:
            continue
        count = nr * nc
        aspect = abs((height / nr) - (width / nc))
        score = (count, -aspect)
        if score > (best_score[0], -best_score[1]):
            best = (nr, nc)
            best_score = (count, aspect)
    return best


_COLUMN, _TRIANGLE, _RECTANGLE = (KIND_CODE[kind] for kind in KINDS)


class Partition:
    """A complete partition of a factor pattern into unit blocks.

    ``table`` is the storage: int64, one row per name in
    :data:`~repro.core.blocks.UNIT_COLUMNS`, one column per unit, units
    grouped by cluster left to right and, inside a cluster, already in
    the paper's allocation order (increasing ``order_key``; the
    constructor checks it, so the scheduler never sorts).  ``kind``,
    ``parent_kind``, ``cluster_of_unit``, ``col_lo``, ``col_hi``,
    ``row_lo``, ``row_hi`` and ``block`` are its first eight rows by
    name; ``unit_of_element`` maps every factor element to its unit.
    The per-unit element lists (a CSR over the units) and the
    :class:`~repro.core.blocks.UnitBlock` row views ``units`` are built
    on first use.
    """

    def __init__(
        self,
        pattern: LowerPattern,
        clusters: ClusterSet,
        table: np.ndarray,
        unit_of_element: np.ndarray,
        grain_triangle: int,
        grain_rectangle: int,
    ):
        self.pattern = pattern
        self.clusters = clusters
        self.table = np.ascontiguousarray(table, dtype=np.int64).reshape(len(UNIT_COLUMNS), -1)
        self.unit_of_element = unit_of_element
        self.grain_triangle = grain_triangle
        self.grain_rectangle = grain_rectangle
        (self.kind, self.parent_kind, self.cluster_of_unit, self.col_lo, self.col_hi,
         self.row_lo, self.row_hi, self.block) = self.table[:8]
        self._check_columns()

    def _check_columns(self) -> None:
        n, n_units = self.pattern.n, self.num_units
        owner = self.unit_of_element
        if len(owner) != self.pattern.nnz:
            raise ValueError("unit_of_element must have one entry per element")
        if owner.size and (owner.min() < 0 or owner.max() >= n_units):
            raise ValueError("unit_of_element names a unit outside the table")
        if n_units == 0:
            if len(self.clusters):
                raise ValueError("clusters without units")
            return
        codes = self.table[:2]
        if codes.min() < 0 or codes.max() >= len(KINDS):
            raise ValueError("unknown unit kind")
        inside = (
            (0 <= self.col_lo) & (self.col_lo <= self.col_hi) & (self.col_hi < n)
            & (0 <= self.row_lo) & (self.row_lo <= self.row_hi) & (self.row_hi < n)
        )
        if not inside.all():
            raise ValueError("unit extent outside the pattern")
        # Allocation order: (cluster, block, group, ri, ci) strictly
        # increases from unit to unit and no cluster is skipped.
        step = np.diff(self.table[[2, 7, 8, 9, 10]], axis=1)
        lead = step[(step != 0).argmax(axis=0), np.arange(n_units - 1)]
        cluster = self.cluster_of_unit
        if not (
            cluster[0] == 0 and cluster[-1] == len(self.clusters) - 1
            and (lead > 0).all() and (step[0] <= 1).all()
        ):
            raise ValueError("units are not in cluster and allocation order")

    @classmethod
    def from_rows(
        cls,
        pattern: LowerPattern,
        clusters: ClusterSet,
        units: list[UnitBlock],
        grain_triangle: int,
        grain_rectangle: int,
    ) -> "Partition":
        """The partition whose units are the given row views, in order;
        their element lists must cover every factor element once."""
        table = np.array([u.as_row() for u in units], dtype=np.int64)
        elements = np.concatenate([u.elements for u in units]) if units else np.zeros(0, np.int64)
        covered = np.bincount(elements, minlength=pattern.nnz)
        if len(covered) != pattern.nnz or (covered != 1).any():
            raise ValueError("unit rows do not cover every element exactly once")
        unit_of_element = np.empty(pattern.nnz, dtype=np.int64)
        unit_of_element[elements] = np.repeat(
            np.arange(len(units), dtype=np.int64), [u.nnz for u in units]
        )
        return cls(
            pattern, clusters, table.reshape(-1, len(UNIT_COLUMNS)).T,
            unit_of_element, grain_triangle, grain_rectangle,
        )

    @property
    def num_units(self) -> int:
        return self.table.shape[1]

    @cached_property
    def unit_ptr(self) -> np.ndarray:
        """Cluster ``c`` owns units ``unit_ptr[c]:unit_ptr[c + 1]``."""
        return np.searchsorted(
            self.cluster_of_unit, np.arange(len(self.clusters) + 1, dtype=np.int64)
        )

    @cached_property
    def unit_work(self) -> np.ndarray:
        """Element count per unit (upgraded to true work by the machine
        layer; kept here for quick size-based diagnostics)."""
        return np.bincount(self.unit_of_element, minlength=self.num_units)

    @cached_property
    def unit_area(self) -> np.ndarray:
        """Geometric element count per unit (padding zeros included)."""
        width = self.col_hi - self.col_lo + 1
        height = self.row_hi - self.row_lo + 1
        return np.where(self.kind == _TRIANGLE, width * (width + 1) // 2, width * height)

    @cached_property
    def element_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(ptr, ids)``: unit ``u`` owns elements ``ids[ptr[u]:ptr[u + 1]]``,
        ascending."""
        ids = np.argsort(self.unit_of_element, kind="stable")
        return np.concatenate([[0], np.cumsum(self.unit_work)]), ids

    def unit_elements(self, u: int) -> np.ndarray:
        """Factor element ids owned by unit ``u``, ascending."""
        ptr, ids = self.element_csr
        return ids[ptr[u] : ptr[u + 1]]

    @cached_property
    def units(self) -> list[UnitBlock]:
        return [
            UnitBlock.from_row(u, row, self.unit_elements(u))
            for u, row in enumerate(self.table.T.tolist())
        ]

    def units_of_cluster(self, cluster_index: int) -> list[UnitBlock]:
        lo, hi = self.unit_ptr[cluster_index : cluster_index + 2]
        return self.units[lo:hi]

    def check_exact_cover(self) -> None:
        """Raise unless every element lies inside the extents of the unit
        that owns it (ownership itself is a map, so no element can be
        owned twice or not at all)."""
        u = self.unit_of_element
        r, c = self.pattern.rowidx, self.pattern.element_cols()
        outside = (
            (r < self.row_lo[u]) | (r > self.row_hi[u])
            | (c < self.col_lo[u]) | (c > self.col_hi[u])
        )
        if outside.any():
            raise AssertionError(f"{int(outside.sum())} elements outside their unit's extent")


def _elements_in_region(
    pattern: LowerPattern,
    col_lo: int,
    col_hi: int,
    row_lo: int,
    row_hi: int,
    triangular: bool,
    ecol: np.ndarray,
) -> np.ndarray:
    """Element ids of pattern entries inside an inclusive region.

    Element ids of a column range are contiguous in CSC order, so the
    region is one slice plus one boolean row filter; ``ecol`` (column of
    every element id) gives the triangular lower bound ``row >= column``.
    """
    lo = int(pattern.indptr[col_lo])
    hi = int(pattern.indptr[col_hi + 1])
    rows = pattern.rowidx[lo:hi]
    floor = np.int64(row_lo)
    if triangular:
        floor = np.maximum(floor, ecol[lo:hi])
    return lo + np.flatnonzero((rows >= floor) & (rows <= row_hi))


def _triangle_rows(
    cluster: int, s: int, e: int, grain: int, max_parts: int | None
) -> list[tuple[int, ...]]:
    """Unit rows of the diagonal triangle of strip [s, e], in the paper's
    allocation order: diagonal unit triangles top to bottom (order group
    0), then unit rectangles row-major over the chunk grid (group 1)."""
    width = e - s + 1
    b = min(triangle_split_count(width * (width + 1) // 2, grain, max_parts), width)
    chunks = chunk_bounds(s, e, b)
    rows = [
        (_TRIANGLE, _TRIANGLE, cluster, lo, hi, lo, hi, 0, 0, ci, 0)
        for ci, (lo, hi) in enumerate(chunks)
    ]
    rows += [
        (_RECTANGLE, _TRIANGLE, cluster, *chunks[ci], *chunks[ri], 0, 1, ri, ci)
        for ri in range(1, b)
        for ci in range(ri)
    ]
    return rows


def _rectangle_rows(
    cluster: int, rect_index: int, s: int, e: int, r_lo: int, r_hi: int,
    grain: int, max_parts: int | None,
) -> list[tuple[int, ...]]:
    """Unit rows of the ``rect_index``-th dense rectangle (rows
    [r_lo, r_hi]) of strip [s, e]: a grid of unit rectangles, row-major
    (top to bottom, left to right)."""
    height, width = r_hi - r_lo + 1, e - s + 1
    nr, nc = rectangle_grid(height, width, height * width, grain, max_parts)
    col_chunks = chunk_bounds(s, e, nc)
    return [
        (_RECTANGLE, _RECTANGLE, cluster, c_lo, c_hi, u_lo, u_hi, 1 + rect_index, 0, ri, ci)
        for ri, (u_lo, u_hi) in enumerate(chunk_bounds(r_lo, r_hi, nr))
        for ci, (c_lo, c_hi) in enumerate(col_chunks)
    ]


def _row_elements(pattern: LowerPattern, row: tuple[int, ...], ecol: np.ndarray) -> np.ndarray:
    """Element ids inside the extents of one unit row."""
    return _elements_in_region(pattern, *row[3:7], row[0] == _TRIANGLE, ecol)


def partition_clusters(
    pattern: LowerPattern,
    clusters: ClusterSet,
    grain_triangle: int = 4,
    grain_rectangle: int | None = None,
    max_parts: int | None = None,
) -> Partition:
    """Partition every cluster's dense blocks into unit blocks.

    ``grain_rectangle`` defaults to ``grain_triangle`` (the paper's
    tables use a single grain size g).  ``max_parts`` optionally caps the
    number of units per dense block (the paper's adaptive parameter (a);
    see the scheduler's adaptive mode).
    """
    if grain_rectangle is None:
        grain_rectangle = grain_triangle
    grain_triangle = as_processor_count(grain_triangle, "grain")
    grain_rectangle = as_processor_count(grain_rectangle, "grain")
    ecol = pattern.element_cols()
    n_clusters = len(clusters)
    strips = np.flatnonzero(~clusters.is_column)
    rect_rows = clusters.rect_rows.tolist()
    rows: list[tuple[int, ...]] = []
    units_per_cluster = np.ones(n_clusters, dtype=np.int64)
    for c, s, e, a, b in zip(
        strips.tolist(),
        clusters.col_lo[strips].tolist(),
        clusters.col_hi[strips].tolist(),
        clusters.rect_indptr[strips].tolist(),
        clusters.rect_indptr[strips + 1].tolist(),
    ):
        before = len(rows)
        rows += _triangle_rows(c, s, e, grain_triangle, max_parts)
        for k, (r_lo, r_hi) in enumerate(rect_rows[a:b]):
            rows += _rectangle_rows(c, k, s, e, r_lo, r_hi, grain_rectangle, max_parts)
        units_per_cluster[c] = len(rows) - before
    unit_ptr = np.concatenate([[0], np.cumsum(units_per_cluster)])
    n_units = int(unit_ptr[-1])

    # Single-column clusters, all at once: one COLUMN unit each (kind
    # codes and order fields 0), owning its whole column.
    table = np.zeros((len(UNIT_COLUMNS), n_units), dtype=np.int64)
    single = np.flatnonzero(clusters.is_column)
    at = unit_ptr[single]
    table[2, at] = single  # cluster
    table[3:6, at] = clusters.col_lo[single]  # col_lo = col_hi = row_lo
    table[6, at] = clusters.column_row_hi[single]  # row_hi
    cluster_of_element = clusters.cluster_of_column[ecol]
    unit_of_element = np.where(
        clusters.is_column[cluster_of_element], unit_ptr[cluster_of_element], -1
    )
    # Strip units: the emitted rows, each claiming the elements inside
    # its extents (an element left at -1 fails the Partition's checks).
    in_strip = np.ones(n_units, dtype=bool)
    in_strip[at] = False
    table[:, in_strip] = np.array(rows, dtype=np.int64).reshape(-1, len(UNIT_COLUMNS)).T
    for uid, row in zip(np.flatnonzero(in_strip).tolist(), rows):
        unit_of_element[_row_elements(pattern, row, ecol)] = uid

    partition = Partition(
        pattern, clusters, table, unit_of_element, grain_triangle, grain_rectangle
    )
    if obs.is_enabled():
        obs.counter("partition.clusters", n_clusters)
        obs.counter("partition.units", n_units)
        for kind, count in zip(KINDS, np.bincount(partition.kind, minlength=len(KINDS)).tolist()):
            obs.counter(f"partition.units.{kind.value}", count)
        # Columns own exactly their nonzeros; only triangle/rectangle
        # units treat their geometric region as dense (paper §3.1).
        dense = partition.kind != _COLUMN
        obs.counter(
            "partition.padded_zeros",
            int((partition.unit_area - partition.unit_work)[dense].sum()),
        )
    return partition


def partition_factor(
    pattern: LowerPattern,
    grain: int = 4,
    min_width: int = 4,
    zero_tolerance: float = 0.0,
    grain_rectangle: int | None = None,
    max_parts: int | None = None,
) -> Partition:
    """Convenience wrapper: find clusters, then partition them."""
    clusters = find_clusters(pattern, min_width=min_width, zero_tolerance=zero_tolerance)
    return partition_clusters(
        pattern,
        clusters,
        grain_triangle=grain,
        grain_rectangle=grain_rectangle,
        max_parts=max_parts,
    )
