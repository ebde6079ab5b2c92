"""Simulated-machine and traffic oracles, kept for the tests to compare
against.

* :func:`simulate_units_oracle` — greedy list scheduling with message
  delays that, whenever a processor is free, scans *every* ready unit
  of that processor for the earliest start, ties broken by uid.  It is
  quadratic in the ready set, which is the point: it states the pick
  rule directly, where ``repro.machine.simulate`` keeps two heaps that
  have to agree with it.
* :func:`stamp_fetches_oracle` — the distinct non-local fetches by the
  per-read stamp loop: every read of the index expanded and
  deduplicated through a stamp table, where ``repro.core.traffic``
  counts each segment once by its last reads.
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


def stamp_fetches_oracle(owner, nprocs, read_index, reader_owner=None, chunk_reads=1_000_000):
    """The distinct non-local (processor, source element) fetches as
    parallel int64 arrays ``(proc, src)``, sources ascending, by the
    per-read stamp loop the traffic kernel ran before the suffix lemma.

    Every read of the index is expanded; then, chunk by chunk of
    consecutive sources (at most ``chunk_reads`` reads and table slots,
    or one source with more), ``proc = reader_owner[reader]`` is
    gathered; reads of
    elements the reader owns, and repeats of the predecessor's (source,
    processor), go in two comparisons, and the rest are deduplicated
    through a stamp table: read r writes r into slot ``(source - lo) *
    nprocs + proc`` of an uninitialised array and represents its pair
    iff it reads its own stamp back.
    """
    owner = np.asarray(owner, dtype=np.int64)
    reader_owner = owner if reader_owner is None else np.asarray(reader_owner, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(read_index.end - read_index.first)])
    reads = read_index.reads()
    span = max(1, chunk_reads // nprocs)
    table = np.empty(min(span, len(owner)) * nprocs, dtype=np.int64)
    procs, srcs, lo = [], [], 0
    while lo < len(owner):
        fit = int(np.searchsorted(offsets, offsets[lo] + chunk_reads, side="right")) - 1
        hi = max(lo + 1, min(lo + span, fit))
        s, r = (x[offsets[lo]:offsets[hi]] for x in reads)
        s = s.astype(np.int64)
        p = reader_owner[r]
        keep = p != owner[s]
        keep[1:] &= (p[1:] != p[:-1]) | (s[1:] != s[:-1])
        p, s = p[keep], s[keep]
        key = (s - lo) * nprocs + p
        stamp = np.arange(len(key))
        table[key] = stamp
        first = table[key] == stamp
        procs.append(p[first])
        srcs.append(s[first])
        lo = hi
    if not procs:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    return np.concatenate(procs), np.concatenate(srcs)
