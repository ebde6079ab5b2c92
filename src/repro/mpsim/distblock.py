"""Distributed execution of the block schedule itself.

This is the strongest validation of the paper's contribution: the unit
blocks produced by the partitioner, placed by the scheduler, are
executed as a real owner-computes dataflow program on the simulated
message-passing runtime.  Each processor owns the elements of its units;
when a unit's elements all reach their final values, the unit is shipped
(one message per consumer processor, exactly the unit-level dependency
edges of §3.3), and receivers apply every pair/scale update that the
arriving values complete.

The resulting factor must equal the sequential one to machine precision
for *any* valid partition/assignment — this is asserted in the tests.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.assignment import Assignment
from ..core.dependencies import DependencyInfo
from ..core.partitioner import Partition
from ..sparse.csc import LowerCSC, SymmetricCSC
from ..symbolic.updates import UpdateSet
from .comm import ANY_SOURCE, Comm
from .launcher import run_parallel

__all__ = ["distributed_block_cholesky"]

_TAG_UNIT = 5


def _seed_accumulators(a: SymmetricCSC, pattern, owned_elements: np.ndarray) -> np.ndarray:
    """acc over the full element space, seeded with A's values for the
    owned elements (zero elsewhere; only owned entries are ever used)."""
    acc = np.zeros(pattern.nnz, dtype=np.float64)
    apat = a.pattern
    owned = set(owned_elements.tolist())
    for j in range(a.n):
        alo, ahi = apat.indptr[j], apat.indptr[j + 1]
        struct = pattern.col(j)
        base = pattern.indptr[j]
        idx = base + np.searchsorted(struct, apat.rowidx[alo:ahi])
        for e, v in zip(idx.tolist(), a.values[alo:ahi].tolist()):
            if e in owned:
                acc[e] = v
    return acc


def _block_rank(
    comm: Comm,
    a: SymmetricCSC,
    partition: Partition,
    assignment: Assignment,
    updates: UpdateSet,
    deps: DependencyInfo,
) -> dict[int, float]:
    me = comm.rank
    pattern = partition.pattern
    uoe = partition.unit_of_element
    proc_of_unit = assignment.proc_of_unit
    proc_of_element = assignment.owner_of_element

    my_units = np.nonzero(proc_of_unit == me)[0]
    my_elements = np.nonzero(proc_of_element == me)[0]
    acc = _seed_accumulators(a, pattern, my_elements)

    # --- my updates: those targeting my elements ----------------------
    tgt_mine = proc_of_element[updates.target] == me
    u_tgt = updates.target[tgt_mine]
    u_si = updates.source_i[tgt_mine]
    u_sj = updates.source_j[tgt_mine]
    n_up = len(u_tgt)
    missing = np.full(n_up, 2, dtype=np.int64)
    rem = np.zeros(pattern.nnz, dtype=np.int64)
    np.add.at(rem, u_tgt, 1)

    by_source: dict[int, list[int]] = {}
    for idx in range(n_up):
        by_source.setdefault(int(u_si[idx]), []).append(idx)
        by_source.setdefault(int(u_sj[idx]), []).append(idx)
    # Identical sources (i == j) appear twice in by_source[eid]; the
    # duplicate decrements are exactly the two required arrivals.

    # Scale sources: each owned element waits for its column's diagonal.
    scale_src = updates.scale_source
    waiting_on_diag: dict[int, list[int]] = {}
    for e in my_elements.tolist():
        d = int(scale_src[e])
        if d != e:
            waiting_on_diag.setdefault(d, []).append(e)

    vals = np.full(pattern.nnz, np.nan, dtype=np.float64)
    available = np.zeros(pattern.nnz, dtype=bool)
    finalized = np.zeros(pattern.nnz, dtype=bool)

    unit_remaining = {int(u): int(partition.unit_work[u]) for u in my_units}
    # Consumers of my units: processors owning a successor unit.
    consumers: dict[int, set[int]] = {
        int(u): {
            int(proc_of_unit[t]) for t in deps.successors[int(u)].tolist()
        } - {me}
        for u in my_units
    }
    expected = sum(
        1
        for s in range(partition.num_units)
        if proc_of_unit[s] != me
        and me in {int(proc_of_unit[t]) for t in deps.successors[s].tolist()}
    )

    worklist: list[int] = []

    def try_finalize(e: int) -> None:
        """Finalize element e if its updates are done and (for
        off-diagonals) its column diagonal value is available."""
        if finalized[e] or rem[e] != 0:
            return
        d = int(scale_src[e])
        if d == e:
            pivot = acc[e]
            if pivot <= 0.0:
                raise ValueError(f"non-positive pivot {pivot:g}")
            value = math.sqrt(pivot)
        else:
            if not available[d]:
                return
            value = acc[e] / vals[d]
        finalized[e] = True
        vals[e] = value
        worklist.append(e)

    def on_available(e: int) -> None:
        """Element value became available (local finalization or message):
        apply the updates and scales it unblocks."""
        available[e] = True
        for idx in by_source.get(e, ()):  # pair updates
            missing[idx] -= 1
            if missing[idx] == 0:
                t = int(u_tgt[idx])
                acc[t] -= vals[int(u_si[idx])] * vals[int(u_sj[idx])]
                rem[t] -= 1
                if rem[t] == 0:
                    try_finalize(t)
        for t in waiting_on_diag.get(e, ()):  # scale updates
            try_finalize(t)

    def drain_worklist() -> None:
        while worklist:
            e = worklist.pop()
            u = int(uoe[e])
            unit_remaining[u] -= 1
            if unit_remaining[u] == 0:
                elems = partition.unit_elements(u)
                for dest in sorted(consumers[u]):
                    comm.send((u, elems, vals[elems]), dest, _TAG_UNIT)
            on_available(e)

    # Kick off: elements with no pair updates whose diagonal is local (or
    # are diagonals themselves).
    for e in my_elements.tolist():
        try_finalize(e)
    drain_worklist()

    received = 0
    n_mine = len(my_elements)
    while int(finalized[my_elements].sum()) < n_mine or received < expected:
        _u, elems, values = comm.recv(ANY_SOURCE, _TAG_UNIT)
        received += 1
        vals[elems] = values
        for e in elems.tolist():
            on_available(int(e))
        drain_worklist()

    return {int(e): float(vals[e]) for e in my_elements.tolist()}


def distributed_block_cholesky(
    a: SymmetricCSC,
    partition: Partition,
    assignment: Assignment,
    updates: UpdateSet,
    deps: DependencyInfo,
    timeout: float | None = 120.0,
) -> tuple[LowerCSC, list]:
    """Execute a block schedule numerically on the message-passing
    runtime.  ``a`` must already be permuted to match the partitioned
    pattern.  Returns (factor gathered on rank 0, per-rank CommStats).
    """
    if assignment.partition is not partition:
        raise ValueError("assignment does not belong to this partition")
    if not deps.include_scale:
        raise ValueError(
            "dependencies must include scale edges (include_scale=True): "
            "diagonal values travel along them"
        )
    pattern = partition.pattern
    if a.n != pattern.n:
        raise ValueError("matrix order does not match the factor pattern")
    nprocs = assignment.nprocs

    def rank_fn(comm: Comm):
        mine = _block_rank(comm, a, partition, assignment, updates, deps)
        # Snapshot the counters before the result gather so the reported
        # stats cover exactly the factorization's dataflow messages.
        from .comm import CommStats

        snap = CommStats(
            messages_sent=comm.stats.messages_sent,
            messages_received=comm.stats.messages_received,
            bytes_sent=comm.stats.bytes_sent,
        )
        gathered = comm.gather(mine, root=0)
        if comm.rank == 0:
            merged: dict[int, float] = {}
            for part in gathered:
                merged.update(part)
            return merged, snap
        return None, snap

    results = run_parallel(rank_fn, nprocs, timeout=timeout)
    merged = results[0][0]
    values = np.zeros(pattern.nnz, dtype=np.float64)
    for e, v in merged.items():
        values[e] = v
    return LowerCSC(pattern, values), [r[1] for r in results]
