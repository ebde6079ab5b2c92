"""Adaptive (interleaved) partitioning and scheduling — paper §3.2 (a).

The paper states that the number of partitions of a cluster triangle is
determined by "(a) the number of processors that are assigned to the
blocks on which the triangle depends" and "(b) a certain minimum work
requirement" (the grain size).  Parameter (a) requires the predecessors
to be allocated already, so partitioning and allocation must be
interleaved cluster by cluster — this module implements that mode.  The
default pipeline (:func:`repro.core.block_mapping`) applies (b) only, as
in the paper's reported runs.
"""

from __future__ import annotations

import numpy as np

from ..sparse.dtypes import as_processor_count
from ..sparse.pattern import LowerPattern
from ..symbolic.updates import UpdateSet
from .assignment import Assignment
from .blocks import UnitBlock
from .clusters import find_clusters
from .partitioner import (
    _COLUMN,
    Partition,
    _elements_in_region,
    _rectangle_rows,
    _row_elements,
    _triangle_rows,
)
from .scheduler import SchedulerOptions

__all__ = ["adaptive_schedule"]


class _UpdateIndex:
    """Per-element access to the updates targeting it."""

    def __init__(self, updates: UpdateSet):
        self.updates = updates
        self.order = np.argsort(updates.target, kind="stable")
        self.sorted_targets = updates.target[self.order]

    def updates_targeting(self, elements: np.ndarray) -> np.ndarray:
        """Indices (into the update arrays) of updates whose target is in
        ``elements``."""
        elements = np.sort(elements)
        lo = np.searchsorted(self.sorted_targets, elements, side="left")
        hi = np.searchsorted(self.sorted_targets, elements, side="right")
        parts = [self.order[a:b] for a, b in zip(lo, hi) if b > a]
        return (
            np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)
        )


def adaptive_schedule(
    pattern: LowerPattern,
    updates: UpdateSet,
    nprocs: int,
    grain: int = 4,
    min_width: int = 4,
    zero_tolerance: float = 0.0,
    options: SchedulerOptions | None = None,
) -> tuple[Partition, Assignment]:
    """Partition and allocate cluster by cluster, limiting each triangle's
    partition count by its predecessor-processor count (parameter (a)).

    Returns the resulting partition and assignment; metrics can then be
    computed exactly as for the static pipeline.
    """
    nprocs, grain = as_processor_count(nprocs), as_processor_count(grain, "grain")
    options = options or SchedulerOptions()
    clusters = find_clusters(pattern, min_width=min_width, zero_tolerance=zero_tolerance)
    index = _UpdateIndex(updates)

    ew = updates.element_work()
    # Ownership so far (-1 = not yet allocated) and the unit rows, which
    # become the partition through ``Partition.from_rows``.
    unit_of_element = np.full(pattern.nnz, -1, dtype=np.int64)
    units: list[UnitBlock] = []
    proc_of_unit: list[int] = []
    proc_work = np.zeros(nprocs, dtype=np.float64)
    marker = 0
    wrap_counter = 0

    # Row-structure counts for independence: column j receives updates
    # iff some k < j has L[j, k] != 0.
    cols = pattern.element_cols()
    incoming = np.zeros(pattern.n, dtype=np.int64)
    off = pattern.rowidx != cols
    np.add.at(incoming, pattern.rowidx[off], 1)

    def take_marker() -> int:
        nonlocal marker
        p = marker
        marker = (marker + 1) % nprocs
        return p

    def assign(u: UnitBlock, proc: int) -> None:
        proc_of_unit.append(proc)
        proc_work[proc] += float(ew[u.elements].sum())
        unit_of_element[u.elements] = u.uid

    def predecessor_procs(elements: np.ndarray, ordered: bool = True) -> list[int]:
        """Processors owning source elements of updates targeting the
        given elements (only already-allocated sources), in update order,
        deduplicated."""
        idx = index.updates_targeting(elements)
        if len(idx) == 0:
            return []
        srcs = np.concatenate(
            [updates.source_j[idx], updates.source_i[idx]]
        )
        seen: list[int] = []
        seen_set: set[int] = set()
        for s in srcs.tolist():
            u = int(unit_of_element[s])
            if u < 0:
                continue
            p = int(proc_of_unit[u])
            if p not in seen_set:
                seen_set.add(p)
                seen.append(p)
        return seen

    def add_units(rows: list[tuple[int, ...]]) -> list[UnitBlock]:
        new = [
            UnitBlock.from_row(len(units) + k, row, _row_elements(pattern, row, cols))
            for k, row in enumerate(rows)
        ]
        units.extend(new)
        return new

    for cluster in clusters:
        c, s, e = cluster.index, cluster.col_lo, cluster.col_hi
        if cluster.is_column:
            (u,) = add_units(
                [(_COLUMN, _COLUMN, c, s, s, s, cluster.column.row_hi, 0, 0, 0, 0)]
            )
            if incoming[s] == 0:
                assign(u, wrap_counter % nprocs)
                wrap_counter += 1
            else:
                preds = predecessor_procs(u.elements)
                if not preds:
                    assign(u, take_marker())
                elif options.dependent_column_policy == "first":
                    assign(u, preds[0])
                elif options.dependent_column_policy == "least_loaded":
                    assign(u, min(set(preds), key=lambda p: (proc_work[p], p)))
                else:
                    assign(u, take_marker())
            continue

        # --- parameter (a): predecessors of the whole triangle ---------
        tri_elems = _elements_in_region(pattern, s, e, s, e, True, cols)
        tri_pred_procs = predecessor_procs(tri_elems)
        max_parts = max(1, len(tri_pred_procs)) if tri_pred_procs else None

        tri_units = add_units(_triangle_rows(c, s, e, grain, max_parts))
        rect_units_all = add_units(
            [
                row
                for k, rect in enumerate(cluster.rectangles)
                for row in _rectangle_rows(c, k, s, e, rect.row_lo, rect.row_hi, grain, None)
            ]
        )

        # --- §3.4 allocation for this cluster --------------------------
        p_a: set[int] = set()
        for u in tri_units:
            chosen = -1
            for p in predecessor_procs(u.elements):
                if p not in p_a:
                    chosen = p
                    break
            if chosen < 0:
                chosen = take_marker()
            p_a.add(chosen)
            assign(u, chosen)

        p_t = sorted({int(proc_of_unit[u.uid]) for u in tri_units})
        by_rect: dict[int, list[UnitBlock]] = {}
        for u in rect_units_all:
            by_rect.setdefault(u.order_key[1], []).append(u)
        for rect_index in sorted(by_rect):
            ordered = sorted(p_t, key=lambda p: (proc_work[p], p))
            for slot, u in enumerate(
                sorted(by_rect[rect_index], key=lambda x: x.order_key)
            ):
                assign(u, ordered[slot % len(ordered)])

    partition = Partition.from_rows(pattern, clusters, units, grain, grain)
    assignment = Assignment(
        scheme="block-adaptive",
        nprocs=nprocs,
        pattern=pattern,
        owner_of_element=np.asarray(proc_of_unit, dtype=np.int64)[partition.unit_of_element],
        proc_of_unit=np.asarray(proc_of_unit, dtype=np.int64),
        partition=partition,
    )
    return partition, assignment
