"""Block allocation strategy (paper §3.4).

The allocation pass, faithful to the paper:

1. *Independent columns* (column units never updated by another unit)
   are allocated wrap-around.
2. The remaining clusters are scanned left to right.
   A dependent column goes to a processor that worked on one of its
   predecessors ("arbitrarily picked" — the choice is a policy knob).
3. In a multi-column cluster, the triangle's units are allocated first
   (diagonal unit triangles top to bottom, then unit rectangles
   row-major).  Each unit goes to the first predecessor processor not
   yet in the per-triangle set P_a; when every predecessor processor is
   already in P_a, the globally "available" processor (a round-robin
   marker over P_g) takes it.
4. The units of each rectangle below the triangle are restricted to
   P_t — the processors that worked on the triangle — cycled in order
   of increasing accumulated work, re-sorted before each rectangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import trace as obs
from ..sparse.dtypes import as_processor_count
from .assignment import Assignment
from .blocks import KIND_CODE, BlockKind
from .dependencies import DependencyInfo
from .partitioner import Partition

__all__ = ["SchedulerOptions", "schedule_blocks"]

_POLICIES = ("first", "least_loaded", "round_robin")


@dataclass(frozen=True)
class SchedulerOptions:
    """Tunable policies of the allocator.

    ``dependent_column_policy`` resolves the paper's "arbitrarily
    picked" processor for dependent columns: ``first`` takes the
    processor of the first predecessor, ``least_loaded`` the
    least-loaded predecessor processor, ``round_robin`` ignores
    predecessors and uses the global marker.
    """

    dependent_column_policy: str = "first"

    def __post_init__(self) -> None:
        if self.dependent_column_policy not in _POLICIES:
            raise ValueError(
                f"unknown policy {self.dependent_column_policy!r}; "
                f"expected one of {_POLICIES}"
            )


def schedule_blocks(
    partition: Partition,
    deps: DependencyInfo,
    nprocs: int,
    unit_work: np.ndarray | None = None,
    options: SchedulerOptions | None = None,
) -> Assignment:
    """Allocate every unit block to a processor.

    ``unit_work`` (work units per unit block) drives the increasing-work
    ordering of P_t; it defaults to the units' element counts.

    The pass runs over the partition's unit table as flat lists.  Units
    are stored in allocation order, so a cluster is a ``unit_ptr`` slice,
    its triangle the leading run of ``block == 0`` and each dense
    rectangle below a run of one ``block`` index — nothing is sorted.
    """
    nprocs = as_processor_count(nprocs)
    policy = (options or SchedulerOptions()).dependent_column_policy
    n_units = partition.num_units
    if unit_work is None:
        unit_work = partition.unit_work
    unit_work = np.asarray(unit_work, dtype=np.float64)
    if len(unit_work) != n_units:
        raise ValueError("unit_work must have one entry per unit")
    bad = np.flatnonzero(~np.isfinite(unit_work) | (unit_work < 0))
    if len(bad):
        raise ValueError(
            f"unit_work must be finite and >= 0; unit {bad[0]} has {unit_work[bad[0]]}"
        )

    # --- step 1: independent columns, wrap-around ---------------------
    is_column = partition.kind == KIND_CODE[BlockKind.COLUMN]
    wrapped = np.flatnonzero(is_column & deps.independent_units)
    proc_of_unit = np.full(n_units, -1, dtype=np.int64)
    proc_of_unit[wrapped] = np.arange(len(wrapped), dtype=np.int64) % nprocs
    # bincount accumulates in unit order, as a scan over the units would.
    work = np.bincount(
        proc_of_unit[wrapped], weights=unit_work[wrapped], minlength=nprocs
    ).tolist()
    proc = proc_of_unit.tolist()
    weight = unit_work.tolist()
    pred_ptr, pred_src, first_pred = deps.predecessor_csr
    ptr = pred_ptr.tolist()
    marker = 0  # the "currently available" processor in P_g
    column_marker = triangle_marker = triangle_units = rectangle_units = 0

    # --- step 2: dependent columns ------------------------------------
    strips = np.flatnonzero(~partition.clusters.is_column)
    strip_lo = partition.unit_ptr[strips]
    dependent = np.flatnonzero(is_column & ~deps.independent_units)
    left_of_strip = np.searchsorted(dependent, strip_lo).tolist()
    first_of = first_pred[dependent].tolist()
    dependent = dependent.tolist()

    take_first = policy == "first"

    def place_columns(lo: int, hi: int) -> None:
        """Each of ``dependent[lo:hi]`` goes to a processor that worked
        on one of its predecessors, picked by ``policy``."""
        nonlocal marker, column_marker
        for u, first in zip(dependent[lo:hi], first_of[lo:hi]):
            # Columns to the left are all placed, so the first placed
            # predecessor is normally simply the first one.
            chosen = proc[first] if take_first else -1
            if chosen < 0:
                on = [proc[p] for p in pred_src[ptr[u] : ptr[u + 1]].tolist() if proc[p] >= 0]
                if not on or policy == "round_robin":
                    chosen = marker
                    marker = (marker + 1) % nprocs
                    column_marker += 1
                elif policy == "first":
                    chosen = on[0]
                else:  # least_loaded
                    chosen = min(set(on), key=lambda p: (work[p], p))
            proc[u] = chosen
            work[chosen] += weight[u]

    # --- steps 2-4: scan the multi-column clusters left to right ------
    block = partition.block.tolist()
    placed = 0  # dependent columns placed so far
    for lo, hi, left_of in zip(
        strip_lo.tolist(), partition.unit_ptr[strips + 1].tolist(), left_of_strip
    ):
        place_columns(placed, left_of)
        placed = left_of
        # Step 3, the triangle's units: the first predecessor processor
        # not yet in P_a, else the available processor.
        p_a: set[int] = set()
        u = lo
        while u < hi and block[u] == 0:
            # Once P_a holds every processor no predecessor can qualify.
            for p in pred_src[ptr[u] : ptr[u + 1]].tolist() if len(p_a) < nprocs else ():
                chosen = proc[p]
                if chosen >= 0 and chosen not in p_a:
                    break
            else:
                chosen = marker
                marker = (marker + 1) % nprocs
                triangle_marker += 1
            p_a.add(chosen)
            proc[u] = chosen
            work[chosen] += weight[u]
            u += 1
        triangle_units += u - lo
        rectangle_units += hi - u
        # Step 4, the rectangles below: restricted to P_t (= P_a once
        # the triangle is done), in increasing-work order (ties to the
        # lower processor), re-sorted before each dense rectangle.
        p_t = sorted(p_a)
        while u < hi:
            ordered = sorted(p_t, key=work.__getitem__)
            rect, slot = block[u], 0
            while u < hi and block[u] == rect:
                chosen = ordered[slot % len(ordered)]
                proc[u] = chosen
                work[chosen] += weight[u]
                slot += 1
                u += 1
    place_columns(placed, len(dependent))

    proc_of_unit = np.asarray(proc, dtype=np.int64)
    if (proc_of_unit < 0).any():  # pragma: no cover - internal invariant
        raise AssertionError("scheduler left a unit unassigned")

    if obs.is_enabled():
        obs.counter("scheduler.independent_columns", len(wrapped))
        for name, count in (
            ("dependent_column.predecessor", len(dependent) - column_marker),
            ("dependent_column.round_robin", column_marker),
            ("triangle.pa_hit", triangle_units - triangle_marker),
            ("triangle.round_robin_fallback", triangle_marker),
            ("rectangle.pt_assigned", rectangle_units),
        ):
            if count:
                obs.counter(f"scheduler.{name}", count)
        obs.counter("scheduler.units_assigned", n_units)
        obs.gauge("scheduler.proc_work", work)

    owner = proc_of_unit[partition.unit_of_element]
    return Assignment(
        scheme="block",
        nprocs=nprocs,
        pattern=partition.pattern,
        owner_of_element=owner,
        proc_of_unit=proc_of_unit,
        partition=partition,
    )
