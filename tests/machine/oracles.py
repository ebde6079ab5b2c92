"""Simulated-machine oracle: the event loop as it was before the ready
queue, kept for the tests to compare against.

* :func:`simulate_units_oracle` — greedy list scheduling with message
  delays that, whenever a processor is free, scans *every* ready unit
  of that processor for the earliest start, ties broken by uid.  It is
  quadratic in the ready set, which is the point: it states the pick
  rule directly, where ``repro.machine.simulate`` keeps two heaps that
  have to agree with it.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.obs import simtime


def simulate_units_oracle(nprocs, proc_of_unit, work, edges, volume, model):
    """``(start, finish, proc_busy, reason, reason_kind)`` of the unit
    DAG ``edges`` (lexicographic [source, target] rows, aligned
    ``volume``) with unit ``u`` on processor ``proc_of_unit[u]``."""
    n_units = len(work)
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    source, target = edges[:, 0], edges[:, 1]
    proc_arr = np.asarray(proc_of_unit, dtype=np.int64)
    crosses = proc_arr[source] != proc_arr[target]
    delay = np.where(crosses, model.alpha + model.beta * volume, 0.0).tolist()
    is_msg, succ, proc = crosses.tolist(), target.tolist(), proc_arr.tolist()
    indptr = np.searchsorted(source, np.arange(n_units + 1)).tolist()
    indeg = np.bincount(target, minlength=n_units).tolist()
    duration = (model.compute * np.asarray(work, dtype=np.float64)).tolist()

    proc_free = [0.0] * nprocs
    proc_busy = [0.0] * nprocs
    start = [0.0] * n_units
    finish = [0.0] * n_units
    reason = [-1] * n_units
    reason_kind = [simtime.REASON_NONE] * n_units
    arrival = [0.0] * n_units
    arrival_from = [-1] * n_units
    arrival_msg = [False] * n_units
    last_on_proc = [-1] * nprocs
    ready: list[set[int]] = [set() for _ in range(nprocs)]
    for u in range(n_units):
        if indeg[u] == 0:
            ready[proc[u]].add(u)
    running = [False] * nprocs
    done = 0
    events: list[tuple[float, int, int]] = []

    def try_start(p: int) -> None:
        if running[p] or not ready[p]:
            return
        free = proc_free[p]
        t0, best = min((max(arrival[u], free), u) for u in ready[p])
        ready[p].remove(best)
        if arrival[best] > free:
            reason[best] = arrival_from[best]
            reason_kind[best] = (
                simtime.REASON_MSG if arrival_msg[best] else simtime.REASON_DEP
            )
        elif free > 0:
            reason[best] = last_on_proc[p]
            reason_kind[best] = simtime.REASON_PROC
        start[best] = t0
        finish[best] = t0 + duration[best]
        proc_busy[p] += duration[best]
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
        for e in range(indptr[u], indptr[u + 1]):
            v = succ[e]
            a = t + delay[e]
            if a > arrival[v]:
                arrival[v] = a
                arrival_from[v] = u
                arrival_msg[v] = is_msg[e]
            indeg[v] -= 1
            if indeg[v] == 0:
                ready[proc[v]].add(v)
                try_start(proc[v])
        try_start(p)

    if done != n_units:
        raise ValueError("unit dependency graph has a cycle")
    times = [np.asarray(x, dtype=np.float64) for x in (start, finish, proc_busy)]
    return *times, *(np.asarray(x, dtype=np.int64) for x in (reason, reason_kind))
