"""Per-processor execution ordering.

The paper splits scheduling into two parts — allocating unit blocks to
processors and "ordering the computational work within each processor" —
and addresses only the first.  This module supplies the second: a
dependency-consistent execution sequence for each processor, plus a
priority variant (critical-path-length order) for the event simulator
and the distributed executors.
"""

from __future__ import annotations

import numpy as np

from .assignment import Assignment
from .dependencies import DependencyInfo, topological_order

__all__ = ["execution_order", "critical_path_priority"]


def execution_order(
    assignment: Assignment, deps: DependencyInfo, priority: np.ndarray | None = None
) -> list[np.ndarray]:
    """A valid execution sequence of each processor's units.

    Units are sequenced by a global topological order of the dependency
    DAG (ties broken by ``priority`` — lower runs earlier — then by uid)
    and then split per processor, so executing each processor's list in
    order can never deadlock.
    """
    partition = assignment.partition
    if partition is None or assignment.proc_of_unit is None:
        raise ValueError("execution order requires a block assignment")
    n_units = partition.num_units
    topo = topological_order(n_units, deps.edges)
    if priority is not None:
        if len(priority) != n_units:
            raise ValueError("priority must have one entry per unit")
        # Stable re-sort inside the topological constraint: process in
        # topo order but prefer lower priority among simultaneously-free
        # units.  Implemented as a Kahn pass keyed by (priority, uid).
        topo = _kahn_with_priority(n_units, deps, priority)
    per_proc: list[list[int]] = [[] for _ in range(assignment.nprocs)]
    for u in topo.tolist():
        per_proc[int(assignment.proc_of_unit[u])].append(u)
    return [np.asarray(lst, dtype=np.int64) for lst in per_proc]


def _kahn_with_priority(
    n_units: int, deps: DependencyInfo, priority: np.ndarray
) -> np.ndarray:
    import heapq

    indeg = np.zeros(n_units, dtype=np.int64)
    for _s, t in deps.edges.tolist():
        indeg[t] += 1
    succ = deps.successors
    heap = [(float(priority[u]), u) for u in range(n_units) if indeg[u] == 0]
    heapq.heapify(heap)
    out = np.empty(n_units, dtype=np.int64)
    k = 0
    while heap:
        _, u = heapq.heappop(heap)
        out[k] = u
        k += 1
        for v in succ[u].tolist():
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(heap, (float(priority[v]), v))
    if k != n_units:
        raise ValueError("unit dependency graph has a cycle")
    return out


def critical_path_priority(
    deps: DependencyInfo, unit_work: np.ndarray
) -> np.ndarray:
    """Negated critical-path length of each unit (so that units heading
    the longest dependent chains sort first as a priority)."""
    n_units = deps.partition.num_units
    unit_work = np.asarray(unit_work, dtype=np.float64)
    if len(unit_work) != n_units:
        raise ValueError("unit_work must have one entry per unit")
    cp = unit_work.copy()
    topo = topological_order(n_units, deps.edges)
    for u in reversed(topo.tolist()):
        succs = deps.successors[u]
        if len(succs):
            cp[u] = unit_work[u] + cp[succs].max()
    return -cp
