"""Event-driven schedule simulation with dependency delays.

The paper measures partition quality while explicitly ignoring
dependency-delay idle time ("we are concerned with the quality of the
partitioner/scheduler ... and hence do not take into account data
dependency delays"), and argues that with many more units than
processors the idle time stays small.  This module adds the missing
model so that claim can be checked: units execute for ``work`` time on
their processor, and a unit may start only after every predecessor's
data has arrived — with an α + β·volume message delay when the
predecessor lives on another processor.

Every simulation also emits into the sim-clock telemetry layer
(:mod:`repro.obs.simtime`): :func:`simulate_assignment` returns a
:class:`~repro.obs.simtime.SimRun` carrying per-unit records, start
reasons (for critical-path extraction) and the message ledger, whose
total bytes bit-match :func:`repro.machine.traffic.data_traffic` for
the same assignment (both aggregate the distinct non-local (processor,
source element) fetches of :func:`repro.machine.traffic.fetch_pairs`).
Block assignments simulate at unit-block granularity; wrap/column
assignments (no partition, but a per-column processor map) simulate at
column granularity over the column dependency DAG.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.assignment import Assignment
from ..core.dependencies import DependencyInfo
from ..obs import simtime
from ..obs import trace as obs
from ..symbolic.updates import UpdateSet
from .traffic import fetch_pairs

__all__ = [
    "MachineModel",
    "ScheduleTimeline",
    "simulate_schedule",
    "simulate_assignment",
    "simulation_messages",
    "edge_volumes",
    "unit_graph",
    "topological_order",
]


@dataclass(frozen=True)
class MachineModel:
    """Timing parameters: per-work-unit compute time, message latency α
    and per-element cost β (all in the same abstract time unit)."""

    compute: float = 1.0
    alpha: float = 10.0
    beta: float = 1.0


def topological_order(n_units: int, edges: np.ndarray) -> np.ndarray:
    """Kahn topological sort of the unit DAG, ties broken by uid.

    Unit ids are *not* a topological order: inside a cluster triangle,
    unit rectangles (emitted after the diagonal unit triangles) update
    later diagonal triangles.  Raises if a cycle is found.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if len(edges):
        indeg = np.bincount(edges[:, 1], minlength=n_units)
        # CSR-style adjacency: sort edges by source, slice per unit.
        order = np.argsort(edges[:, 0], kind="stable")
        src_sorted = edges[order, 0]
        dst_sorted = np.ascontiguousarray(edges[order, 1])
        bounds = np.searchsorted(src_sorted, np.arange(n_units + 1, dtype=np.int64))
    else:
        indeg = np.zeros(n_units, dtype=np.int64)
        dst_sorted = np.zeros(0, dtype=np.int64)
        bounds = np.zeros(n_units + 1, dtype=np.int64)
    import heapq

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


@dataclass(frozen=True)
class ScheduleTimeline:
    """Result of a schedule simulation."""

    start: np.ndarray
    finish: np.ndarray
    proc_busy: np.ndarray
    makespan: float

    @property
    def idle_fraction(self) -> float:
        """Fraction of processor-time spent idle before the makespan."""
        n = len(self.proc_busy)
        if self.makespan == 0:
            return 0.0
        return 1.0 - float(self.proc_busy.sum()) / (n * self.makespan)


def unit_graph(
    unit_of_element: np.ndarray,
    updates: UpdateSet,
    n_units: int,
    nnz: int,
    include_scale: bool = True,
) -> tuple[np.ndarray, dict[tuple[int, int], int]]:
    """Unit DAG edges and per-edge distinct-element volumes, for any
    element→unit map (block partitions and column granularity alike).

    Volume of edge (s, t) = number of distinct elements owned by unit s
    that updates targeting unit t read.
    """
    uoe = np.asarray(unit_of_element, dtype=np.int64)
    tgt_unit = uoe[updates.target]
    pairs_src = np.concatenate([updates.source_i, updates.source_j])
    pairs_tgt = np.concatenate([tgt_unit, tgt_unit])
    if include_scale:
        pairs_src = np.concatenate([pairs_src, updates.scale_source])
        pairs_tgt = np.concatenate([pairs_tgt, uoe])
    src_unit = uoe[pairs_src]
    keep = src_unit != pairs_tgt
    # Distinct (target unit, source element) pairs, then count per edge.
    key = np.unique(pairs_tgt[keep] * np.int64(nnz) + pairs_src[keep])
    t = key // nnz
    s_elem = key % nnz
    s_unit = uoe[s_elem]
    # Grouped count per (source unit, target unit) edge via np.unique.
    edge_key, counts = np.unique(s_unit * np.int64(n_units) + t, return_counts=True)
    edges = np.stack([edge_key // n_units, edge_key % n_units], axis=1)
    volumes = {
        (int(k // n_units), int(k % n_units)): int(c)
        for k, c in zip(edge_key.tolist(), counts.tolist())
    }
    return edges, volumes


def edge_volumes(
    assignment: Assignment, deps: DependencyInfo, updates: UpdateSet
) -> dict[tuple[int, int], int]:
    """Distinct elements transferred along each unit-dependency edge.

    Volume of edge (s, t) = number of distinct elements owned by unit s
    that updates targeting unit t read.
    """
    partition = assignment.partition
    if partition is None:
        raise ValueError("edge volumes require a block assignment")
    return unit_graph(
        partition.unit_of_element,
        updates,
        partition.num_units,
        partition.pattern.nnz,
        deps.include_scale,
    )[1]


def _adjacency(n_units: int, edges: np.ndarray) -> tuple[list, list]:
    """CSR-style predecessor/successor lists from sorted unique edges."""
    order = np.argsort(edges[:, 1], kind="stable")
    src = np.ascontiguousarray(edges[order, 0])
    tgt = edges[order, 1]
    bounds = np.searchsorted(tgt, np.arange(n_units + 1, dtype=np.int64))
    preds = [src[bounds[u] : bounds[u + 1]] for u in range(n_units)]
    src2 = edges[:, 0]
    tgt2 = np.ascontiguousarray(edges[:, 1])
    bounds2 = np.searchsorted(src2, np.arange(n_units + 1, dtype=np.int64))
    succs = [tgt2[bounds2[u] : bounds2[u + 1]] for u in range(n_units)]
    return preds, succs


def _simulate_units(
    n_units: int,
    nprocs: int,
    proc_of_unit: np.ndarray,
    work: np.ndarray,
    preds: list,
    succs: list,
    volumes: dict[tuple[int, int], int],
    model: MachineModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The event loop: greedy list scheduling with message delays.

    Besides start/finish/busy it records *why* each unit started when it
    did (``reason``: the releasing unit, ``reason_kind``: a
    :mod:`repro.obs.simtime` REASON_* code) — every link is tight, so a
    backwards walk over the reasons is the critical path.
    """
    proc_free = np.zeros(nprocs, dtype=np.float64)
    proc_busy = np.zeros(nprocs, dtype=np.float64)
    start = np.zeros(n_units, dtype=np.float64)
    finish = np.zeros(n_units, dtype=np.float64)
    reason = np.full(n_units, -1, dtype=np.int64)
    reason_kind = np.zeros(n_units, dtype=np.int64)

    indeg = np.asarray([len(p) for p in preds], dtype=np.int64)
    # Incremental data-arrival times: arrival[u] is the max, over the
    # predecessors of u that have finished so far, of the time their data
    # reaches u's (fixed) processor.  It is updated once per dependency
    # edge when the predecessor finishes, and is final by the time
    # indeg[u] hits zero — so dispatch never rescans predecessors.
    # arrival_from/arrival_msg track the argmax predecessor and whether
    # it released u via a message (cross-processor) or locally.
    arrival = np.zeros(n_units, dtype=np.float64)
    arrival_from = np.full(n_units, -1, dtype=np.int64)
    arrival_msg = np.zeros(n_units, dtype=bool)
    last_on_proc = np.full(nprocs, -1, dtype=np.int64)
    ready: list[set[int]] = [set() for _ in range(nprocs)]
    for u in range(n_units):
        if indeg[u] == 0:
            ready[int(proc_of_unit[u])].add(u)
    running: list[bool] = [False] * nprocs
    done = 0

    import heapq

    events: list[tuple[float, int, int]] = []  # (finish time, unit, proc)

    def try_start(p: int) -> None:
        if running[p] or not ready[p]:
            return
        best = None
        best_key = None
        free = proc_free[p]
        for u in ready[p]:
            key = (max(arrival[u], free), u)
            if best_key is None or key < best_key:
                best, best_key = u, key
        assert best is not None and best_key is not None
        ready[p].remove(best)
        t0 = best_key[0]
        if arrival[best] > free:
            # Data-bound: the unit started the instant its slowest
            # predecessor's data arrived.
            reason[best] = arrival_from[best]
            reason_kind[best] = (
                simtime.REASON_MSG if arrival_msg[best] else simtime.REASON_DEP
            )
        elif free > 0:
            # Processor-bound: it started the instant the previous unit
            # on this processor finished.
            reason[best] = last_on_proc[p]
            reason_kind[best] = simtime.REASON_PROC
        start[best] = t0
        dur = model.compute * work[best]
        finish[best] = t0 + dur
        proc_busy[p] += dur
        running[p] = True
        heapq.heappush(events, (finish[best], best, p))

    for p in range(nprocs):
        try_start(p)
    while events:
        t, u, p = heapq.heappop(events)
        proc_free[p] = t
        running[p] = False
        last_on_proc[p] = u
        done += 1
        for v in succs[u].tolist():
            a = t
            is_msg = p != int(proc_of_unit[v])
            if is_msg:
                a += model.alpha + model.beta * volumes.get((u, v), 0)
            if a > arrival[v]:
                arrival[v] = a
                arrival_from[v] = u
                arrival_msg[v] = is_msg
            indeg[v] -= 1
            if indeg[v] == 0:
                q = int(proc_of_unit[v])
                ready[q].add(v)
                try_start(q)
        try_start(p)

    if done != n_units:
        raise ValueError("unit dependency graph has a cycle")
    return start, finish, proc_busy, reason, reason_kind


def simulation_messages(
    assignment: Assignment,
    updates: UpdateSet,
    unit_of_element: np.ndarray,
    finish: np.ndarray,
    model: MachineModel,
    include_scale: bool = True,
) -> list[simtime.SimMessage]:
    """The message ledger of a simulated schedule.

    One ledger entry per (cause unit, destination processor): its bytes
    are the *distinct* non-local source elements of that unit the
    destination reads — the very pairs
    :func:`repro.machine.traffic.data_traffic` counts, so total ledger
    bytes bit-match the paper's traffic figure, per-destination sums
    match ``per_processor`` and the P×P aggregation matches
    ``communication_matrix``.  The send time is the cause unit's finish;
    the receive time adds the α + β·bytes message delay.
    """
    nprocs = assignment.nprocs
    proc, src = fetch_pairs(assignment, updates, include_scale)
    uoe = np.asarray(unit_of_element, dtype=np.int64)
    # Group the (already distinct) fetches into one message per (cause
    # unit, destination), ordered by that key.
    gkey, counts = np.unique(uoe[src] * np.int64(nprocs) + proc, return_counts=True)
    cause_unit = gkey // nprocs
    dst_proc = gkey % nprocs
    src_proc = np.asarray(assignment.proc_of_unit, dtype=np.int64)[cause_unit]
    send = finish[cause_unit]
    recv = send + model.alpha + model.beta * counts
    return [
        simtime.SimMessage(src=int(s), dst=int(d), nbytes=int(n), cause=int(c),
                           send=float(t0), recv=float(t1))
        for s, d, n, c, t0, t1 in zip(
            src_proc.tolist(), dst_proc.tolist(), counts.tolist(),
            cause_unit.tolist(), send.tolist(), recv.tolist(),
        )
    ]


def simulate_assignment(
    assignment: Assignment,
    updates: UpdateSet,
    model: MachineModel | None = None,
    deps: DependencyInfo | None = None,
    name: str = "",
    include_scale: bool = True,
    with_messages: bool = True,
) -> tuple[ScheduleTimeline, simtime.SimRun]:
    """Simulate any assignment with a unit-level view; returns the
    timeline plus the full sim-clock record.

    Block assignments run at unit-block granularity over the analyzed
    dependency DAG (``deps`` is computed when not supplied); wrap and
    block-cyclic column assignments run at column granularity over the
    column dependency DAG, with elimination stages defined as up-to-32
    equal column strips.  ``with_messages=False`` skips the ledger
    (timeline values are unaffected).
    """
    model = model or MachineModel()
    partition = assignment.partition
    if partition is not None:
        if deps is None:
            from ..core.dependencies import analyze_dependencies

            deps = analyze_dependencies(partition, updates, include_scale)
        include_scale = deps.include_scale
        n_units = partition.num_units
        uoe = partition.unit_of_element
        volumes = edge_volumes(assignment, deps, updates)
        preds, succs = deps.predecessors, deps.successors
        stage = partition.cluster_of_unit
        kinds = tuple(u.kind.value for u in partition.units)
    elif assignment.proc_of_unit is not None:
        n_units = assignment.pattern.n
        uoe = np.asarray(updates.element_cols, dtype=np.int64)
        _edges, volumes = unit_graph(
            uoe, updates, n_units, assignment.pattern.nnz, include_scale
        )
        preds, succs = _adjacency(n_units, _edges)
        n_stages = min(32, n_units) if n_units else 1
        stage = (np.arange(n_units, dtype=np.int64) * n_stages) // max(n_units, 1)
        kinds = ("column",) * n_units
    else:
        raise ValueError(
            f"{assignment.scheme}: simulation needs a unit-level view "
            "(a block partition or a per-column processor map)"
        )
    work = np.zeros(n_units, dtype=np.float64)
    np.add.at(work, uoe, updates.element_work().astype(np.float64))
    start, finish, proc_busy, reason, reason_kind = _simulate_units(
        n_units, assignment.nprocs, assignment.proc_of_unit, work,
        preds, succs, volumes, model,
    )
    makespan = float(finish.max()) if n_units else 0.0
    timeline = ScheduleTimeline(start, finish, proc_busy, makespan)
    messages = (
        simulation_messages(assignment, updates, uoe, finish, model, include_scale)
        if with_messages else []
    )
    run = simtime.SimRun(
        name=name or assignment.scheme,
        scheme=assignment.scheme,
        nprocs=assignment.nprocs,
        makespan=makespan,
        clock="machine",
        proc=np.asarray(assignment.proc_of_unit, dtype=np.int64),
        stage=np.asarray(stage, dtype=np.int64),
        start=start,
        finish=finish,
        work=work,
        kind=kinds,
        reason=reason,
        reason_kind=reason_kind,
        messages=messages,
        meta={
            "model": {"compute": model.compute, "alpha": model.alpha,
                      "beta": model.beta},
            "include_scale": include_scale,
        },
    )
    if obs.is_enabled():
        for u in range(n_units):
            obs.timeline_event(
                f"unit {u} ({kinds[u]})",
                ts=float(start[u]),
                dur=float(finish[u] - start[u]),
                lane=int(assignment.proc_of_unit[u]),
                track="simulate_schedule",
                uid=u,
                cluster=int(stage[u]),
                work=float(work[u]),
            )
        obs.counter("sim.units", n_units)
        obs.counter("sim.events", n_units)
        obs.gauge("sim.makespan", makespan)
        obs.gauge("sim.idle_fraction", timeline.idle_fraction)
        obs.gauge("sim.proc_busy", proc_busy.tolist())
        if messages:
            obs.counter("sim.messages", len(messages))
            obs.counter("sim.message_bytes", run.total_message_bytes())
        simtime.record_sim_run(run)
    return timeline, run


def simulate_schedule(
    assignment: Assignment,
    deps: DependencyInfo,
    updates: UpdateSet,
    model: MachineModel | None = None,
) -> ScheduleTimeline:
    """Simulate the block schedule with dependency and message delays.

    Event-driven greedy list scheduling: whenever a processor is free it
    starts, among its own units whose predecessors have all completed,
    the one that can begin earliest (data-arrival time, ties by uid).
    """
    if assignment.partition is None:
        raise ValueError("simulation requires a block assignment")
    timeline, _run = simulate_assignment(
        assignment, updates, model=model, deps=deps,
        with_messages=obs.is_enabled(),
    )
    return timeline
