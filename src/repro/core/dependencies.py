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

The edges are read off one assignment-invariant structure, the **unit
read index** (:func:`unit_read_index`): the distinct cross-unit (reader
unit, source element) pairs of the factorization, built once per
partition from the run-length updates by the convexity lemma of
:mod:`repro.machine.traffic` — no element read list, no sort.  Grouping
it by (source unit, reader unit) gives the dependency edges *and* the
distinct-element volume of each edge (:func:`unit_dag`);
:mod:`repro.machine.traffic` runs its kernel over the same index for
every block-scheme traffic figure.  The category census streams the
pairs in chunks.  The paper's geometric mechanism (an interval tree per
column) lives in ``tests/core/interval_oracle.py`` as an oracle.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..obs import trace as obs
from ..sparse.dtypes import index_dtype
from ..symbolic.updates import ReadIndex, UpdateSet
from .partitioner import Partition

__all__ = [
    "CATEGORY_NAMES",
    "DependencyInfo",
    "unit_read_index",
    "unit_dag",
    "group_unit_edges",
    "topological_order",
    "unit_edge_volumes",
    "require_same_edges",
    "classify_pair_updates",
    "analyze_dependencies",
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


def _category_of_code() -> np.ndarray:
    """Category of every value of the per-update code
    ``kind[uj] + 3 kind[ut] + 9 [ui = ut] + 18 [ui = uj] + 36 [uj = ut]``
    (kind codes of :data:`~repro.core.blocks.KIND_CODE`: 0 column,
    1 triangle, 2 rectangle)."""
    j_is_t, i_is_j, i_is_t, kt, kj = np.unravel_index(np.arange(72), (2, 2, 2, 3, 3))
    from_rectangle = np.where(kt == 2, 10, 6 + 2 * kt + (1 - i_is_j))
    cat = np.select([kj == 0, kj == 1], [1 + kt, 5 - i_is_t], from_rectangle)
    return np.where(i_is_t & j_is_t, 0, cat)


_CATEGORY_OF_CODE = _category_of_code()


def _unit_words(partition: Partition) -> np.ndarray:
    """Unit id and kind of every element in one word: a single gather per
    role, and units are equal iff the words are."""
    unit = partition.unit_of_element
    return (unit * 4 + partition.kind[unit]).astype(index_dtype(4 * partition.num_units))


def _update_codes(wt: np.ndarray, wi: np.ndarray, wj: np.ndarray) -> np.ndarray:
    """The code of :func:`_category_of_code` for every pair update, given
    the words of its target and its two sources."""
    code = (wj & 3).astype(np.uint8)
    code += (wt & 3).astype(np.uint8) * np.uint8(3)
    for weight, same in ((9, wi == wt), (18, wi == wj), (36, wj == wt)):
        code += same.view(np.uint8) * np.uint8(weight)
    return code


def classify_pair_updates(partition: Partition, updates: UpdateSet) -> np.ndarray:
    """Category code (0..10) for every pair update."""
    word = _unit_words(partition)
    return _CATEGORY_OF_CODE[_update_codes(
        word[updates.target], word[updates.source_i], word[updates.source_j]
    )]


def unit_read_index(
    partition: Partition, updates: UpdateSet, include_scale: bool = True
) -> ReadIndex:
    """The distinct cross-unit reads of ``partition``: element e is read
    by the other units ``reader[first[e]:end[e]]``, each once, a suffix
    of one segment.  Built on first use and kept on the instance, one
    per ``include_scale``, straight from the runs of ``updates``: no
    read list, no sort, no expansion.  It stands in for the element read
    index wherever ownership is per unit: a processor fetches what its
    units do.

    Element e is read, in order, by its slice of
    :attr:`~repro.symbolic.updates.UpdateSet.reader_sequences`.  By the
    convexity lemma proved in :mod:`repro.machine.traffic` the units
    reading it are those of the slice with repeats of the predecessor
    dropped, minus its own unit — which can only come first.  So one
    comparison per sequence entry marks where the unit changes; the
    changes are the index's ``reader``, cut where the sequences' lines
    and columns begin, and each element's slice is a suffix of the
    changes of its line.
    """
    memo = vars(partition).setdefault("_unit_read_indexes", {})
    if include_scale in memo:
        return memo[include_scale]
    targets, starts, first, end = updates.reader_sequences
    uoe = partition.unit_of_element.astype(index_dtype(partition.num_units))
    unit = uoe[targets]
    new = np.empty(len(unit), dtype=bool)
    np.not_equal(unit[1:], unit[:-1], out=new[1:])
    new |= starts
    readers = unit[np.flatnonzero(new)]
    count = np.cumsum(new, dtype=index_dtype(len(new)))
    # An element's slice of the changes starts at the reader its own
    # slice begins in, dropped if that is the element's own unit.
    lo = count[first] - 1
    lo += readers[lo] == uoe
    end = count[end - 1]
    if not include_scale:
        diagonal = updates.pattern.indptr[:-1]
        end[diagonal] = lo[diagonal]
    bounds = np.append(count[np.flatnonzero(starts)] - 1, len(readers)).astype(count.dtype)
    memo[include_scale] = ReadIndex(include_scale, readers, bounds, lo, end)
    return memo[include_scale]


def unit_dag(
    partition: Partition, updates: UpdateSet, include_scale: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """``(edges, volumes)`` of the unit DAG of ``partition``, as
    :func:`group_unit_edges` lays them out: its unit read index expanded
    to (source, reader unit) reads and grouped by (source unit, reader
    unit), memoised beside it."""
    memo = vars(partition).setdefault("_unit_dags", {})
    if include_scale not in memo:
        src, reader = unit_read_index(partition, updates, include_scale).reads()
        uoe = partition.unit_of_element.astype(index_dtype(partition.num_units))
        memo[include_scale] = group_unit_edges(uoe[src], reader, partition.num_units)
    return memo[include_scale]


def group_unit_edges(
    src_unit: np.ndarray, reader_unit: np.ndarray, n_units: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (reader unit, source element) pairs, given as the
    source's unit and the reader, counted per unit pair: ``(m, 2)``
    [source, target] rows in lexicographic order and the aligned
    distinct-element volumes."""
    kdt = index_dtype(n_units * n_units)  # a narrow key sorts twice as fast
    key = src_unit.astype(kdt) * kdt.type(n_units) + reader_unit.astype(kdt)
    key, volumes = np.unique(key, return_counts=True)
    key = key.astype(np.int64)
    return np.stack([key // n_units, key % n_units], axis=1), volumes


def topological_order(n_units: int, edges: np.ndarray) -> np.ndarray:
    """Kahn topological sort of the unit DAG, ties broken by uid.

    Unit ids are *not* a topological order: inside a cluster triangle,
    unit rectangles (emitted after the diagonal unit triangles) update
    later diagonal triangles.  Raises if a cycle is found.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    indeg = np.bincount(edges[:, 1], minlength=n_units)
    # CSR-style adjacency: sort edges by source, slice per unit.
    order = np.argsort(edges[:, 0], kind="stable")
    dst_sorted = np.ascontiguousarray(edges[order, 1])
    bounds = np.searchsorted(edges[order, 0], np.arange(n_units + 1, dtype=np.int64))
    heap = np.flatnonzero(indeg == 0).tolist()
    heapq.heapify(heap)
    out = np.empty(n_units, dtype=np.int64)
    k = 0
    while heap:
        u = heapq.heappop(heap)
        out[k] = u
        k += 1
        for v in dst_sorted[bounds[u] : bounds[u + 1]].tolist():
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, v)
    if k != n_units:
        raise ValueError("unit dependency graph has a cycle")
    return out


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
    #: Distinct elements read along each edge; ``None`` when rebuilt from
    #: edges alone (partition cache) — :func:`unit_edge_volumes` serves both.
    volumes: np.ndarray | None = None

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
    """Build the unit dependency graph from the run-length updates.

    ``include_scale`` adds the dependencies induced by diagonal/scale
    updates (an element's unit depends on the unit owning its column's
    diagonal element).
    """
    edges, volumes = unit_dag(partition, updates, include_scale)
    per_code = np.zeros(72, dtype=np.int64)
    for words in updates.pair_chunks(_unit_words(partition)):
        per_code += np.bincount(_update_codes(*words), minlength=72)
    counts = np.bincount(
        _CATEGORY_OF_CODE, weights=per_code, minlength=len(CATEGORY_NAMES)
    ).astype(np.int64).tolist()
    category_counts = {cat: n for cat, n in enumerate(counts) if n}
    if obs.is_enabled():
        obs.counter("deps.edges", len(edges))
        for cat, count in category_counts.items():
            obs.counter(f"deps.category.{cat:02d}", count)
    return DependencyInfo(partition, edges, category_counts, include_scale, volumes)


def require_same_edges(edges: np.ndarray, deps: DependencyInfo) -> None:
    """Refuse a ``deps`` analyzed for something else: simulating along an
    edge the unit graph lacks would charge it a zero-volume message."""
    if not np.array_equal(edges, deps.edges):
        stray = set(map(tuple, edges.tolist())) ^ set(map(tuple, deps.edges.tolist()))
        raise ValueError(
            "the supplied DependencyInfo was not analyzed for this partition "
            f"and include_scale setting: unit edges {sorted(stray)[:3]} are in "
            "only one of it and the unit DAG"
        )


def unit_edge_volumes(
    partition: Partition, deps: DependencyInfo, updates: UpdateSet
) -> dict[tuple[int, int], int]:
    """Distinct elements transferred along each unit-dependency edge:
    volume of edge (s, t) = number of distinct elements owned by unit s
    that updates targeting unit t read.
    """
    edges, volumes = unit_dag(partition, updates, deps.include_scale)
    require_same_edges(edges, deps)
    return dict(zip(map(tuple, edges.tolist()), volumes.tolist()))
