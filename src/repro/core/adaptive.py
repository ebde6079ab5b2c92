"""Adaptive partitioning and scheduling — paper §3.2 parameter (a).

The paper caps a cluster triangle's partition count by "(a) the number
of processors that are assigned to the blocks on which the triangle
depends" as well as by "(b) a certain minimum work requirement" (the
grain size), so partitioning and the §3.4 allocation interleave.  The
default pipeline (:func:`repro.core.block_mapping`) applies (b) only.

Here the interleaving is the static pipeline run to a fixed point.
Starting with no caps, each round partitions under the per-strip
triangle caps, analyzes the dependencies and runs
:func:`~repro.core.scheduler.schedule_blocks`; then a strip's cap
becomes the number of distinct processors among the units left of the
strip that its triangle units depend on.  The loop stops when the caps,
compared by the triangle units they allow, come back unchanged.

The fixed point is exact.  A strip's cap depends only on the clusters
to its left; the scheduler allocates left to right, and its step 1,
which wraps the independent columns, does not depend on the partition.
So each round settles at least one more strip: the loop ends within
strips + 1 rounds (one or two on the paper's cells), and its fixed
point is unique — the interleaved answer.
"""

from __future__ import annotations

import numpy as np

from ..sparse.dtypes import as_processor_count
from ..sparse.pattern import LowerPattern
from ..symbolic.updates import UpdateSet
from .assignment import Assignment
from .clusters import find_clusters
from .dependencies import DependencyInfo, analyze_dependencies
from .partitioner import Partition, partition_clusters
from .scheduler import SchedulerOptions, schedule_blocks

__all__ = ["adaptive_schedule"]


def adaptive_schedule(
    pattern: LowerPattern,
    updates: UpdateSet,
    nprocs: int,
    grain: int = 4,
    min_width: int = 4,
    zero_tolerance: float = 0.0,
    options: SchedulerOptions | None = None,
) -> tuple[Partition, Assignment]:
    """The adaptive partition and its assignment, measured as the static
    pipeline's are."""
    partition, _, assignment = _fixed_point(
        pattern, updates, nprocs, grain, min_width, zero_tolerance, options
    )
    return partition, assignment


def _fixed_point(
    pattern, updates, nprocs, grain, min_width, zero_tolerance, options
) -> tuple[Partition, DependencyInfo, Assignment]:
    nprocs, grain = as_processor_count(nprocs), as_processor_count(grain, "grain")
    clusters = find_clusters(pattern, min_width=min_width, zero_tolerance=zero_tolerance)
    element_work = updates.element_work()
    triangular = np.cumsum(np.arange(nprocs + 2))  # b(b + 1) / 2 units of b chunks
    caps = np.zeros(len(clusters), dtype=np.int64)
    for rounds in range(1, len(clusters) + 2):
        partition = partition_clusters(pattern, clusters, grain, max_parts=caps)
        deps = analyze_dependencies(partition, updates)
        work = np.bincount(partition.unit_of_element, element_work, partition.num_units)
        assignment = schedule_blocks(partition, deps, nprocs, work, options)
        if rounds == 1:  # uncapped triangle units per cluster (1 for a column)
            free = np.bincount(partition.cluster_of_unit[partition.block == 0])
        # Edges into a triangle from units left of its strip.
        src, tgt = deps.edges.T
        cluster = partition.cluster_of_unit[tgt]
        left = (partition.block[tgt] == 0) & (src < partition.unit_ptr[cluster])
        pairs = np.unique(cluster[left] * nprocs + assignment.proc_of_unit[src[left]])
        # A cap is kept as the triangle units it allows; 0 if it does not bind.
        counts = np.bincount(pairs // nprocs, minlength=len(clusters))
        allowed = triangular[np.searchsorted(triangular, counts, "right") - 1]
        new_caps = np.where(allowed < free, allowed, 0)
        if np.array_equal(new_caps, caps):
            break
        caps = new_caps
    else:  # pragma: no cover - each round settles one more strip
        raise AssertionError("the triangle caps did not settle")
    assignment.scheme = "block-adaptive"
    return partition, deps, assignment
