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
view of one unit.  Each kind of unit is emitted for every cluster at once
(split counts, grids and chunk bounds are array kernels), and every unit
claims its elements with two searches per column it spans: no Python
loop runs per cluster or per unit.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..obs import trace as obs
from ..sparse.dtypes import as_processor_count
from ..sparse.pattern import LowerPattern
from ..symbolic.updates import ragged_range
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


def chunk_bounds(lo, hi, parts) -> np.ndarray:
    """Split every inclusive range [lo, hi] into ``parts`` near-equal
    contiguous chunks (larger chunks first): an ``(sum(parts), 2)`` array
    of [start, end] rows, range after range (scalars give one range)."""
    lo, hi, parts = (np.ravel(a).astype(np.int64) for a in np.broadcast_arrays(lo, hi, parts))
    length = hi - lo + 1
    bad = (parts < 1) | (parts > length)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(f"cannot split {length[i]} indices into {parts[i]} chunks")
    base, extra = (np.repeat(a, parts) for a in np.divmod(length, parts))
    k = ragged_range(np.zeros_like(parts), parts, np.int64)  # chunk index in its range
    start = np.repeat(lo, parts) + k * base + np.minimum(k, extra)
    return np.stack([start, start + base - (k >= extra)], axis=1)


def triangle_split_count(area, grain: int, max_parts=None):
    """Number of column chunks b for a triangle: largest b with
    b(b+1)/2 unit blocks allowed by the grain (and ``max_parts``, where
    0 is no cap).  Elementwise over arrays."""
    pd = np.maximum(1, np.asarray(area, dtype=np.int64) // max(grain, 1))
    if max_parts is not None:
        pd = np.where(np.asarray(max_parts) > 0, np.minimum(pd, max_parts), pd)
    # b(b+1)/2 <= P_d is (2b + 1)**2 <= 8 P_d + 1.  A root that is not an
    # integer is at least 4 / (2b + 1) from one, so the rounded float root
    # floors right while P_d < 2**51.
    return ((np.sqrt(8.0 * pd + 1.0) - 1.0) // 2).astype(np.int64)


def rectangle_grid(height, width, area, grain: int) -> tuple[np.ndarray, np.ndarray]:
    """Grid shape (nr, nc) for a rectangle: maximize nr*nc <= P_d with
    near-square units (ties broken toward squarer aspect, then fewer
    columns).  Elementwise over arrays: every rectangle's candidate
    column counts 1..min(width, P_d) are scored at once."""
    shape = np.broadcast(height, width, area).shape
    height, width, area = (
        np.ravel(a).astype(np.int64) for a in np.broadcast_arrays(height, width, area)
    )
    pd = np.minimum(np.maximum(1, area // max(grain, 1)), height * width)
    tries = np.minimum(width, pd)
    if not len(tries):
        return tries, tries
    which = np.repeat(np.arange(len(tries)), tries)
    nc = ragged_range(np.ones_like(tries), tries, np.int64)
    nr = np.minimum(height[which], pd[which] // nc)
    count = nr * nc
    aspect = np.abs(height[which] / nr - width[which] / nc)
    starts = np.cumsum(tries) - tries
    aspect[count < np.maximum.reduceat(count, starts)[which]] = np.inf
    best = np.flatnonzero(aspect == np.minimum.reduceat(aspect, starts)[which])
    best = best[np.searchsorted(which[best], np.arange(len(tries)))]  # first per rectangle
    return nr[best].reshape(shape), nc[best].reshape(shape)


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


def _unit_table(
    clusters: ClusterSet, grain_triangle: int, grain_rectangle: int, caps: np.ndarray
) -> np.ndarray:
    """The unit table of every cluster, in the paper's allocation order:
    a column cluster is one COLUMN unit; a strip's triangle gives its
    diagonal unit triangles top to bottom (order group 0), then its unit
    rectangles row-major over the chunk grid (group 1); each of its dense
    rectangles (block 1, 2, ...) gives a grid of unit rectangles,
    row-major.  Each kind of unit is emitted for all clusters at once and
    scattered to its slot."""
    n_clusters = len(clusters)
    lo, hi = clusters.col_lo, clusters.col_hi
    width = hi - lo + 1
    strips = np.flatnonzero(~clusters.is_column)
    b = np.zeros(n_clusters, dtype=np.int64)  # column chunks of each triangle
    b[strips] = np.minimum(triangle_split_count(
        width[strips] * (width[strips] + 1) // 2, grain_triangle, caps[strips]
    ), width[strips])
    rect_of = np.repeat(np.arange(n_clusters), np.diff(clusters.rect_indptr))
    r_lo, r_hi = clusters.rect_rows.T
    height = r_hi - r_lo + 1
    nr, nc = rectangle_grid(height, width[rect_of], height * width[rect_of], grain_rectangle)
    rect_ptr = np.concatenate([[0], np.cumsum(nr * nc)])  # rectangle units before each rectangle
    tri_units = np.where(clusters.is_column, 1, b * (b + 1) // 2)
    unit_ptr = np.concatenate([[0], np.cumsum(tri_units + np.diff(rect_ptr[clusters.rect_indptr]))])
    table = np.zeros((len(UNIT_COLUMNS), unit_ptr[-1]), dtype=np.int64)

    def put(at, kind, parent_kind, cluster, cols, rows, block, group, ri, ci):
        values = (kind, parent_kind, cluster, *cols.T, *rows.T, block, group, ri, ci)
        for name, value in enumerate(values):
            table[name, at] = value

    single = np.flatnonzero(clusters.is_column)
    put(unit_ptr[single], _COLUMN, _COLUMN, single, lo[single, None].repeat(2, 1),
        np.stack([lo[single], clusters.column_row_hi[single]], axis=1), 0, 0, 0, 0)
    # Triangles: chunk k of a strip is its k-th diagonal unit triangle.
    chunks = chunk_bounds(lo[strips], hi[strips], b[strips])
    chunk_ptr = np.zeros(n_clusters, dtype=np.int64)
    chunk_ptr[strips] = np.cumsum(b[strips]) - b[strips]
    cluster = np.repeat(strips, b[strips])
    k = ragged_range(np.zeros_like(strips), b[strips], np.int64)
    put(unit_ptr[cluster] + k, _TRIANGLE, _TRIANGLE, cluster, chunks, chunks, 0, 0, k, 0)
    # The triangle's unit rectangles: chunk rows ri > chunk columns ci.
    ri = ragged_range(np.ones_like(strips), b[strips] - 1, np.int64)
    cluster = np.repeat(np.repeat(strips, b[strips] - 1), ri)
    ri, ci = np.repeat(ri, ri), ragged_range(np.zeros_like(ri), ri, np.int64)
    first = chunk_ptr[cluster]
    put(unit_ptr[cluster] + b[cluster] + ri * (ri - 1) // 2 + ci, _RECTANGLE, _TRIANGLE,
        cluster, chunks[first + ci], chunks[first + ri], 0, 1, ri, ci)
    # Dense rectangles: an nr x nc grid each.
    rect = np.repeat(np.arange(len(height)), nr * nc)
    t = ragged_range(np.zeros_like(rect_ptr[:-1]), nr * nc, np.int64)
    ri, ci = t // nc[rect], t % nc[rect]
    cluster = rect_of[rect]
    col_chunks = chunk_bounds(lo[rect_of], hi[rect_of], nc)
    row_chunks = chunk_bounds(r_lo, r_hi, nr)
    in_cluster = rect_ptr[rect] - rect_ptr[clusters.rect_indptr[cluster]]
    put(unit_ptr[cluster] + tri_units[cluster] + in_cluster + t, _RECTANGLE, _RECTANGLE,
        cluster, col_chunks[(np.cumsum(nc) - nc)[rect] + ci],
        row_chunks[(np.cumsum(nr) - nr)[rect] + ri],
        1 + rect - clusters.rect_indptr[cluster], 0, ri, ci)
    return table


def _claim_elements(pattern: LowerPattern, table: np.ndarray) -> np.ndarray:
    """``unit_of_element`` of a unit table: every unit claims the
    elements inside its extents (an element left at -1 fails the
    :class:`Partition`'s checks).  A unit's elements in one of its
    columns are one run in CSC order, found by two searches on the
    element key ``col * n + row``: rows ``row_lo`` to ``row_hi``.  A
    triangle needs no floor at its diagonal, since a column of a lower
    pattern holds no row above it."""
    col_lo, col_hi, row_lo, row_hi = table[3:7]
    width = col_hi - col_lo + 1
    unit = np.repeat(np.arange(len(width)), width)
    col = ragged_range(col_lo, width, np.int64)
    n = pattern.n
    key = pattern.element_cols().astype(np.int64) * n + pattern.rowidx
    lo = np.searchsorted(key, col * n + row_lo[unit])
    count = np.searchsorted(key, col * n + row_hi[unit], side="right") - lo
    owner = np.full(pattern.nnz, -1, dtype=np.int64)
    owner[ragged_range(lo, count, np.int64)] = np.repeat(unit, count)
    return owner


def partition_clusters(
    pattern: LowerPattern,
    clusters: ClusterSet,
    grain_triangle: int = 4,
    grain_rectangle: int | None = None,
    max_parts: np.ndarray | None = None,
) -> Partition:
    """Partition every cluster's dense blocks into unit blocks.

    ``grain_rectangle`` defaults to ``grain_triangle`` (the paper's
    tables use a single grain size g).  ``max_parts`` optionally caps,
    per cluster, the number of units of its triangle (0: no cap); it is
    the paper's parameter (a), see :mod:`repro.core.adaptive`.
    """
    if grain_rectangle is None:
        grain_rectangle = grain_triangle
    grain_triangle = as_processor_count(grain_triangle, "grain")
    grain_rectangle = as_processor_count(grain_rectangle, "grain")
    n_clusters = len(clusters)
    caps = np.zeros(n_clusters, np.int64) if max_parts is None else max_parts
    table = _unit_table(clusters, grain_triangle, grain_rectangle, caps)
    unit_of_element = _claim_elements(pattern, table)
    n_units = table.shape[1]

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
) -> Partition:
    """Convenience wrapper: find clusters, then partition them."""
    clusters = find_clusters(pattern, min_width=min_width, zero_tolerance=zero_tolerance)
    return partition_clusters(
        pattern, clusters, grain_triangle=grain, grain_rectangle=grain_rectangle
    )
