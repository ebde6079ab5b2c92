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
total bytes bit-match :func:`repro.core.traffic.data_traffic` for
the same assignment.

The unit DAG — edges in lexicographic order with an aligned volume
array, from which the event loop's per-edge delays are one pass — and
the ledger come from the structure the traffic is counted at.  Block
assignments simulate at unit-block granularity over the DAG memoised on
the partition beside its unit read index
(:func:`~repro.core.dependencies.unit_dag`).  Wrap
and block-cyclic column assignments simulate at column granularity by
the column-prefix lemma of :mod:`repro.core.traffic`: column r_s of
column k's rows r_1 < ... < r_m reads (r_t, k) for t >= s, so the edges
are L's off-diagonal elements (k, r_s) in CSC order with volume
m - s + 1, and the ledger is the (column, processor, reach) triples
:func:`~repro.core.traffic.column_fetch_counts` sums — O(nnz(L)), no
read list, and the same for either ``include_scale`` (scale reads stay
inside a column).  :func:`unit_graph` serves any other element→unit map.

The event loop is greedy list scheduling: a free processor starts,
among its own units whose predecessors have all finished, the one that
can begin earliest, ties broken by uid.  Two heaps per processor make a
run O((units + edges) log units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from heapq import heappop, heappush

import numpy as np

from ..core.assignment import Assignment
from ..core.blocks import KINDS
from ..core.dependencies import (
    DependencyInfo, group_unit_edges, require_same_edges, unit_dag, unit_edge_volumes,
)
from ..core.traffic import _column_fetches, _column_reads, fetch_pairs, kernel_inputs
from ..obs import simtime
from ..obs import trace as obs
from ..sparse.dtypes import linear_index
from ..sparse.pattern import LowerPattern
from ..symbolic.updates import UpdateSet, build_read_index

__all__ = [
    "MachineModel",
    "ScheduleTimeline",
    "simulate_schedule",
    "simulate_assignment",
    "simulation_messages",
    "edge_volumes",
    "unit_edge_volumes",
    "unit_graph",
]

#: Kind name of each unit-table kind code.
_KIND_NAMES = np.array([kind.value for kind in KINDS])


@dataclass(frozen=True)
class MachineModel:
    """Timing parameters: per-work-unit compute time, message latency α
    and per-element cost β (all in the same abstract time unit)."""

    compute: float = 1.0
    alpha: float = 10.0
    beta: float = 1.0

    def __post_init__(self) -> None:
        # A negative, infinite or NaN time breaks the loop silently: NaN
        # never compares greater, so its delays would vanish.
        for field in fields(self):
            value = getattr(self, field.name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"MachineModel.{field.name} must be finite and >= 0, got {value!r}"
                )


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
    include_scale: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Unit DAG edges — (m, 2) [source, target] rows in lexicographic
    order, the layout of ``DependencyInfo.edges`` — and the aligned
    per-edge distinct-element volumes, for any element→unit map.

    With the unit map as the owner array, the traffic kernel's distinct
    non-local fetches are the distinct (target unit, source element)
    pairs across unit boundaries; they are counted per unit pair.  Any
    labelling of the elements will do: the map need not be unit-convex.
    """
    if n_units == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    uoe = np.asarray(unit_of_element, dtype=np.int64)
    target, src = fetch_pairs(uoe, n_units, build_read_index(updates, include_scale))
    return group_unit_edges(uoe[src], target, n_units)


def _column_graph(pattern: LowerPattern) -> tuple[np.ndarray, np.ndarray]:
    """:func:`unit_graph` of the column map (unit = column), for either
    ``include_scale``, by the column-prefix lemma: one edge per
    off-diagonal element, already in lexicographic order."""
    col, reader, volume = _column_reads(pattern)
    return np.stack([col, reader], axis=1).astype(np.int64), volume.astype(np.int64)


def edge_volumes(
    assignment: Assignment, deps: DependencyInfo, updates: UpdateSet
) -> dict[tuple[int, int], int]:
    """:func:`unit_edge_volumes` of a block assignment's partition."""
    if assignment.partition is None:
        raise ValueError("edge volumes require a block assignment")
    return unit_edge_volumes(assignment.partition, deps, updates)


def _simulate_units(
    nprocs: int,
    proc_of_unit: np.ndarray,
    work: np.ndarray,
    edges: np.ndarray,
    volume: np.ndarray,
    model: MachineModel,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The event loop: greedy list scheduling with message delays over
    a unit DAG laid out as :func:`unit_graph` lays it out.

    Besides start/finish/busy it records *why* each unit started when it
    did (``reason``: the releasing unit, ``reason_kind``: a
    :mod:`repro.obs.simtime` REASON_* code) — every link is tight, so a
    backwards walk over the reasons is the critical path.
    """
    n_units = len(work)
    source, target = edges[:, 0], edges[:, 1]
    proc_arr = np.asarray(proc_of_unit, dtype=np.int64)
    # Everything an edge contributes is known before the first event:
    # whether it crosses processors and, if so, its α + β·volume delay.
    crosses = proc_arr[source] != proc_arr[target]
    delay = np.where(crosses, model.alpha + model.beta * volume, 0.0).tolist()
    # The loop touches one scalar at a time, so it runs on plain lists.
    is_msg, succ, proc = crosses.tolist(), target.tolist(), proc_arr.tolist()
    indptr = np.searchsorted(source, np.arange(n_units + 1)).tolist()
    indeg = np.bincount(target, minlength=n_units).tolist()
    duration = (model.compute * work).tolist()

    proc_free = [0.0] * nprocs
    proc_busy = [0.0] * nprocs
    start = [0.0] * n_units
    finish = [0.0] * n_units
    reason = [-1] * n_units
    reason_kind = [simtime.REASON_NONE] * n_units
    # Incremental data-arrival times: arrival[u] is the max, over the
    # predecessors of u that have finished so far, of the time their data
    # reaches u's (fixed) processor.  It is updated once per dependency
    # edge when the predecessor finishes, and is final by the time
    # indeg[u] hits zero — so dispatch never rescans predecessors.
    # arrival_from/arrival_msg track the argmax predecessor and whether
    # it released u via a message (cross-processor) or locally.
    arrival = [0.0] * n_units
    arrival_from = [-1] * n_units
    arrival_msg = [False] * n_units
    last_on_proc = [-1] * nprocs
    # A processor's ready units sit in two heaps: ``avail`` by uid, those
    # whose data arrived by a time the processor was free, and ``waiting``
    # by (arrival, uid).  Free times only grow and a ready unit's arrival
    # is final, so the earliest start (ties by uid) is the top of
    # ``avail`` at the free time, else the top of ``waiting`` at its
    # arrival.  The units ready at time 0, in uid order, are a heap.
    avail: list[list[int]] = [[] for _ in range(nprocs)]
    waiting: list[list[tuple[float, int]]] = [[] for _ in range(nprocs)]
    for u in range(n_units):
        if indeg[u] == 0:
            avail[proc[u]].append(u)
    running = [False] * nprocs
    done = 0
    events: list[tuple[float, int, int]] = []  # (finish time, unit, proc)

    def try_start(p: int) -> None:
        if running[p]:
            return
        free = proc_free[p]
        ready, wait = avail[p], waiting[p]
        while wait and wait[0][0] <= free:
            heappush(ready, heappop(wait)[1])
        if ready:
            t0 = free
            best = heappop(ready)
            if free > 0:
                # Processor-bound: it started the instant the previous
                # unit on this processor finished.
                reason[best] = last_on_proc[p]
                reason_kind[best] = simtime.REASON_PROC
        elif wait:
            # Data-bound: the unit started the instant its slowest
            # predecessor's data arrived.
            t0, best = heappop(wait)
            reason[best] = arrival_from[best]
            reason_kind[best] = (
                simtime.REASON_MSG if arrival_msg[best] else simtime.REASON_DEP
            )
        else:
            return
        start[best] = t0
        finish[best] = t0 + duration[best]
        proc_busy[p] += duration[best]
        running[p] = True
        heappush(events, (finish[best], best, p))

    for p in range(nprocs):
        try_start(p)
    while events:
        t, u, p = heappop(events)
        proc_free[p] = t
        running[p] = False
        last_on_proc[p] = u
        done += 1
        for e in range(indptr[u], indptr[u + 1]):
            v = succ[e]
            a = t + delay[e]
            if a > arrival[v]:
                arrival[v] = a
                arrival_from[v] = u
                arrival_msg[v] = is_msg[e]
            indeg[v] -= 1
            if indeg[v] == 0:
                q = proc[v]
                if arrival[v] <= proc_free[q]:
                    heappush(avail[q], v)
                else:
                    heappush(waiting[q], (arrival[v], v))
                try_start(q)
        try_start(p)

    if done != n_units:
        raise ValueError("unit dependency graph has a cycle")
    times = [np.asarray(x, dtype=np.float64) for x in (start, finish, proc_busy)]
    return *times, *(np.asarray(x, dtype=np.int64) for x in (reason, reason_kind))


def simulation_messages(
    assignment: Assignment,
    updates: UpdateSet,
    unit_of_element: np.ndarray,
    finish: np.ndarray,
    model: MachineModel,
    include_scale: bool = True,
) -> simtime.MessageTable:
    """The message ledger of a simulated schedule.

    One ledger entry per (cause unit, destination processor): its bytes
    are the *distinct* non-local source elements of that unit the
    destination reads — the very pairs
    :func:`repro.core.traffic.data_traffic` counts, so total ledger
    bytes bit-match the paper's traffic figure, per-destination sums
    match ``per_processor`` and the P×P aggregation matches
    ``communication_matrix``.  The send time is the cause unit's finish;
    the receive time adds the α + β·bytes message delay.  On a column
    map the units are the columns and the entries are the column-prefix
    fetches, which are already one per (column, destination).
    """
    nprocs = assignment.nprocs
    if assignment.partition is None and assignment.proc_of_unit is not None:
        cause_unit, dst, counts = _column_fetches(
            assignment.pattern, assignment.proc_of_unit, nprocs
        )
    else:
        proc, src = fetch_pairs(*kernel_inputs(assignment, updates, include_scale))
        uoe = np.asarray(unit_of_element, dtype=np.int64)
        # Group the (already distinct) fetches into one message per (cause
        # unit, destination), ordered by that key.
        gkey, counts = np.unique(linear_index(uoe[src], proc, nprocs), return_counts=True)
        cause_unit, dst = gkey // nprocs, gkey % nprocs
    send = finish[cause_unit]
    return simtime.MessageTable(
        src=np.asarray(assignment.proc_of_unit, dtype=np.int64)[cause_unit],
        dst=dst,
        nbytes=counts,
        cause=cause_unit,
        send=send,
        recv=send + model.alpha + model.beta * counts,
    )


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

    Block assignments run at unit-block granularity (a supplied ``deps``
    sets ``include_scale`` and must describe the same unit DAG); wrap
    and block-cyclic column assignments run at column granularity over
    the column dependency DAG (the same for either ``include_scale``:
    scale reads stay inside a column), with elimination stages defined as
    up-to-32 equal column strips.  ``with_messages=False`` skips the
    ledger (timeline values are unaffected).
    """
    model = model or MachineModel()
    partition = assignment.partition
    if partition is not None:
        if deps is not None:
            include_scale = deps.include_scale
        n_units = partition.num_units
        uoe = partition.unit_of_element
        edges, volume = unit_dag(partition, updates, include_scale)
        if deps is not None:
            require_same_edges(edges, deps)
        stage = partition.cluster_of_unit
        kinds = tuple(_KIND_NAMES[partition.kind].tolist())
    elif assignment.proc_of_unit is not None:
        n_units = assignment.pattern.n
        uoe = np.asarray(updates.element_cols, dtype=np.int64)
        edges, volume = _column_graph(assignment.pattern)
        n_stages = min(32, n_units) if n_units else 1
        stage = (np.arange(n_units, dtype=np.int64) * n_stages) // max(n_units, 1)
        kinds = ("column",) * n_units
    else:
        raise ValueError(
            f"{assignment.scheme}: simulation needs a unit-level view "
            "(a block partition or a per-column processor map)"
        )
    work = np.bincount(uoe, weights=updates.element_work(), minlength=n_units)
    start, finish, proc_busy, reason, reason_kind = _simulate_units(
        assignment.nprocs, assignment.proc_of_unit, work, edges, volume, model
    )
    makespan = float(finish.max()) if n_units else 0.0
    timeline = ScheduleTimeline(start, finish, proc_busy, makespan)
    messages = (
        simulation_messages(assignment, updates, uoe, finish, model, include_scale)
        if with_messages else simtime.MessageTable()
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
        if len(messages):
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
