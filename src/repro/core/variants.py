"""Alternative allocation strategies framing the paper's scheduler.

The paper's conclusion: "more sophisticated scheduling strategies could
be used to improve performance".  This module provides the two extremes
of the design space so the §3.4 scheduler can be located between them:

* :func:`schedule_lpt` — pure load balancing: longest-processing-time
  greedy onto the least-loaded processor, ignoring locality entirely
  (the best λ achievable at this unit granularity, and an upper bound on
  how much traffic locality-blindness costs);
* :func:`schedule_affinity` — pure locality: each unit goes to the
  processor already holding the largest volume of its input data
  (minimal traffic, no regard for balance).
"""

from __future__ import annotations

import numpy as np

from ..symbolic.updates import UpdateSet
from .assignment import Assignment
from .dependencies import DependencyInfo, unit_edge_volumes
from .partitioner import Partition

__all__ = ["schedule_lpt", "schedule_affinity"]


def _finish(partition: Partition, proc_of_unit: np.ndarray, nprocs: int,
            scheme: str) -> Assignment:
    return Assignment(
        scheme=scheme,
        nprocs=nprocs,
        pattern=partition.pattern,
        owner_of_element=proc_of_unit[partition.unit_of_element],
        proc_of_unit=proc_of_unit,
        partition=partition,
    )


def schedule_lpt(
    partition: Partition,
    nprocs: int,
    unit_work: np.ndarray,
) -> Assignment:
    """Longest-processing-time greedy: sort units by work descending and
    place each on the currently least-loaded processor."""
    if nprocs < 1:
        raise ValueError("nprocs must be positive")
    unit_work = np.asarray(unit_work, dtype=np.float64)
    if len(unit_work) != partition.num_units:
        raise ValueError("unit_work must have one entry per unit")
    order = np.argsort(-unit_work, kind="stable")
    proc_of_unit = np.empty(partition.num_units, dtype=np.int64)
    load = np.zeros(nprocs, dtype=np.float64)
    for u in order.tolist():
        p = int(np.argmin(load))
        proc_of_unit[u] = p
        load[p] += unit_work[u]
    return _finish(partition, proc_of_unit, nprocs, "block-lpt")


def schedule_affinity(
    partition: Partition,
    deps: DependencyInfo,
    nprocs: int,
    updates: UpdateSet,
    unit_work: np.ndarray | None = None,
) -> Assignment:
    """Data-affinity greedy: in uid order, place each unit on the
    processor already owning the largest input volume for it (ties to
    the least-loaded processor, then the lowest id).

    With no placed predecessors the unit takes the least-loaded
    processor, which keeps the leading independent columns spread out.
    """
    if nprocs < 1:
        raise ValueError("nprocs must be positive")
    if unit_work is None:
        unit_work = partition.unit_work
    unit_work = np.asarray(unit_work, dtype=np.float64)
    volumes = unit_edge_volumes(partition, deps, updates)
    preds = deps.predecessors
    n_units = partition.num_units
    proc_of_unit = np.full(n_units, -1, dtype=np.int64)
    load = np.zeros(nprocs, dtype=np.float64)
    for u in range(n_units):
        affinity = np.zeros(nprocs, dtype=np.float64)
        for q in preds[u].tolist():
            p = int(proc_of_unit[q])
            if p >= 0:
                affinity[p] += volumes.get((q, u), 0)
        if affinity.max() > 0:
            best = affinity.max()
            candidates = np.nonzero(affinity == best)[0]
            p = int(candidates[np.argmin(load[candidates])])
        else:
            p = int(np.argmin(load))
        proc_of_unit[u] = p
        load[p] += unit_work[u]
    return _finish(partition, proc_of_unit, nprocs, "block-affinity")
