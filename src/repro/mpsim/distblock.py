"""Distributed execution of the block schedule itself.

This is the strongest validation of the paper's contribution: the unit
blocks produced by the partitioner, placed by the scheduler, are
executed as a real owner-computes dataflow program on the simulated
message-passing runtime.  The tasks are the partition's units and the
task graph is the unit dependency graph of §3.3 (``deps.edges``, scale
edges included): a unit is ready when every predecessor unit has been
computed here or has arrived, and a finished unit is shipped whole, one
message per consumer processor.

Nothing is tracked per element.  The supernode runs are sorted once by
target (unit by unit, and inside a unit column by column) and expanded to
pairs, so a ready unit is computed one column segment at a time with a
handful of array operations: subtract the segment's updates from ``acc``,
then take the square root of the diagonal or divide by it.  The sources
are final by then — they lie in predecessor units or in earlier columns of
the same unit.  A unit computed from a value that never arrived
(dependencies that do not cover the updates) comes out NaN and raises.

The resulting factor must equal the sequential one to rounding for
*any* valid partition/assignment — this is asserted in the tests.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial

import numpy as np

from ..core.assignment import Assignment
from ..core.dependencies import DependencyInfo
from ..core.partitioner import Partition
from ..sparse.csc import LowerCSC, SymmetricCSC
from ..sparse.dtypes import index_dtype
from ..symbolic.updates import UpdateSet, ragged_range
from .engine import Countdown, Endpoint, gather_on_ranks, remote_peers, run_tasks, seed_accumulators

__all__ = ["distributed_block_cholesky"]

_TAG_UNIT = 5


class _Segments:
    """The pair updates regrouped for unit-at-a-time execution.

    In unit order (``partition.element_csr``) a *segment* is a run of
    elements of one unit and one column; unit ``u`` owns segments
    ``of_unit[u]:of_unit[u + 1]``, segment ``s`` the positions
    ``bounds[s]:bounds[s + 1]`` of ``ids`` and the updates
    ``upd[s]:upd[s + 1]`` of ``rel`` (target, relative to the segment's
    first position), ``si`` and ``sj`` (source element ids).
    """

    def __init__(self, partition: Partition, updates: UpdateSet):
        pattern = partition.pattern
        nnz = pattern.nnz
        ptr, self.ids = partition.element_csr
        col = updates.element_cols[self.ids]
        cut = np.ones(nnz, dtype=bool)
        cut[1:] = col[1:] != col[:-1]
        cut[ptr[ptr < nnz]] = True
        start = np.flatnonzero(cut)
        edt = index_dtype(nnz)
        position = np.empty(nnz, dtype=edt)
        position[self.ids] = np.arange(nnz, dtype=edt)
        # Run (a, b) is the pairs of min(b + 1, w) columns (UpdateSet.column_runs).
        # A target has at most one run per supernode, so a stable sort of
        # the runs by target keeps its source columns ascending.
        run, sn, a, b, _, _, base = updates.column_runs
        first, width = updates.supernodes[:-1], np.diff(updates.supernodes)
        target = position[updates.run_target[run]]
        order = np.argsort(target, kind="stable")
        target, sn, a, b = target[order], sn[order], a[order], b[order]
        length = np.minimum(b + 1, width[sn]).astype(edt)
        upd = np.searchsorted(target, np.append(start, nnz))
        self.upd = np.concatenate([[0], np.cumsum(length)])[upd].tolist()
        self.rel = np.repeat((target - np.repeat(start, np.diff(upd))).astype(edt), length)
        self.si = base.astype(edt)[ragged_range(first[sn], length, edt)]
        self.sj = self.si + np.repeat(b, length)
        self.si += np.repeat(a, length)
        self.ptr = ptr.tolist()
        self.of_unit = np.searchsorted(start, ptr).tolist()
        self.bounds = start.tolist() + [nnz]
        #: element id of the diagonal of each segment's column, and
        #: whether the segment starts with it
        diag = pattern.indptr[col[start]]
        self.diag = diag.tolist()
        self.has_diag = (self.ids[start] == diag).tolist()


def _block_rank(seed: np.ndarray, seg: _Segments, assignment: Assignment, edges: np.ndarray,
                consumers, comm: Endpoint):
    me = comm.rank
    proc_of_unit = assignment.proc_of_unit
    acc = seed.copy()
    vals = np.full(len(seed), np.nan)
    ids, rel, si, sj = seg.ids, seg.rel, seg.si, seg.sj
    bounds, upd, diag, has_diag = seg.bounds, seg.upd, seg.diag, seg.has_diag
    # indeg.count[t] = predecessor units of my unit t still outstanding.
    local = proc_of_unit[edges[:, 1]] == me
    indeg = Countdown(edges[local, 0], edges[local, 1], len(proc_of_unit))
    cons_ptr, cons_proc = consumers
    mine = np.flatnonzero(proc_of_unit == me).tolist()

    def finish(u: int) -> list[int]:
        for s in range(seg.of_unit[u], seg.of_unit[u + 1]):
            elems = ids[bounds[s] : bounds[s + 1]]
            x = acc[elems]
            lo, hi = upd[s], upd[s + 1]
            if hi > lo:
                x -= np.bincount(
                    rel[lo:hi], weights=vals[si[lo:hi]] * vals[sj[lo:hi]], minlength=len(x)
                )
            if has_diag[s]:
                if x[0] <= 0.0:
                    raise ValueError(f"non-positive pivot {x[0]:g} in unit {u}")
                x[0] = math.sqrt(x[0])
                x[1:] /= x[0]
            else:
                x /= vals[diag[s]]
            vals[elems] = x
        elems = ids[seg.ptr[u] : seg.ptr[u + 1]]
        values = vals[elems]
        if np.isnan(values).any():
            raise ValueError(f"unit {u} was computed from a value that never arrived")
        for dest in cons_proc[cons_ptr[u] : cons_ptr[u + 1]].tolist():
            comm.send((u, elems, values), dest, _TAG_UNIT)
        return indeg.fire(u)

    def receive(u: int, elems: np.ndarray, values: np.ndarray) -> list[int]:
        vals[elems] = values
        return indeg.fire(u)

    yield from run_tasks(
        [u for u in mine if not indeg.count[u]], len(mine),
        int(np.count_nonzero(cons_proc == me)), finish, receive,
    )
    owned = np.flatnonzero(assignment.owner_of_element == me)
    # The counters as of before the result gather: the reported stats
    # cover exactly the factorization's dataflow messages.
    return dict(zip(owned.tolist(), vals[owned].tolist())), replace(comm.stats)


def distributed_block_cholesky(
    a: SymmetricCSC,
    partition: Partition,
    assignment: Assignment,
    updates: UpdateSet,
    deps: DependencyInfo,
) -> tuple[LowerCSC, list]:
    """Execute a block schedule numerically on the message-passing
    runtime.  ``a`` must already be permuted to match the partitioned
    pattern.  Returns (factor gathered on rank 0, per-rank CommStats).
    Inputs that do not belong together raise ``ValueError`` before any
    rank starts.
    """
    if assignment.partition is not partition:
        raise ValueError("assignment does not belong to this partition")
    if updates.pattern != partition.pattern:
        raise ValueError("updates were enumerated for another factor structure")
    if deps.partition is not partition:
        raise ValueError("dependencies were analysed for another partition")
    if not deps.include_scale:
        raise ValueError(
            "dependencies must include scale edges (include_scale=True): "
            "diagonal values travel along them"
        )
    seed = seed_accumulators(a, partition.pattern)
    seg = _Segments(partition, updates)
    proc_of_unit = assignment.proc_of_unit
    edges = deps.edges
    # consumers of unit u: the other processors owning a successor unit.
    consumers = remote_peers(edges[:, 0], proc_of_unit[edges[:, 1]], proc_of_unit, assignment.nprocs)
    values, stats = gather_on_ranks(
        partial(_block_rank, seed, seg, assignment, edges, consumers),
        len(seed), assignment.nprocs, "block",
    )
    return LowerCSC(partition.pattern, values), stats
