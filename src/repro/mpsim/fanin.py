"""Distributed fan-in Cholesky factorization.

The classic counterpart of the fan-out scheme in
:mod:`repro.mpsim.distchol`: instead of broadcasting every completed
column to all of its consumers, each processor *aggregates* all of the
updates it can compute locally for a target column j into one vector,
and sends a single aggregate per (processor, column) pair to the
column's owner.  With data reuse on the sending side this typically
sends fewer, larger messages than fan-out — the same
locality-versus-volume trade the paper studies at the mapping level.

The update for target column j from source column k (both restricted to
rows >= j) is  u_j += L[j,k] * L[j:,k];  the owner of k computes it as
soon as k is complete — one array operation over column k's slice of
the run table (:func:`.engine.column_pairs`) — and the aggregate for j
is shipped, reduced to its nonzero rows, once every local contribution
to it has been folded in.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..sparse.csc import LowerCSC, SymmetricCSC
from ..sparse.pattern import LowerPattern
from ..symbolic.updates import UpdateSet
from .engine import (
    Countdown,
    Endpoint,
    cdiv,
    column_pairs,
    column_setup,
    gather_on_ranks,
    place_columns,
    remote_peers,
    run_tasks,
)

__all__ = ["distributed_cholesky_fanin"]

_TAG_AGG = 4


def _fanin_rank(seed: np.ndarray, updates: UpdateSet, apply, owner: np.ndarray,
                off_col: np.ndarray, off_row: np.ndarray, n_remote: np.ndarray, comm: Endpoint):
    me = comm.rank
    pattern = updates.pattern
    indptr = pattern.indptr.tolist()
    rowidx = pattern.rowidx
    owner_of = owner.tolist()
    # acc holds A minus the updates so far on my columns and, on every
    # other column, minus the aggregate I owe its owner (it starts at
    # zero there), so one subtraction serves both kinds of target.
    acc = np.where(owner[updates.element_cols] == me, seed, 0.0)
    vals = np.full(pattern.nnz, np.nan)
    # waiting.count[j] = my columns still to be folded into column j,
    # plus, for a column of mine, the aggregates still to arrive.
    local = owner[off_col] == me
    waiting = Countdown(off_col[local], off_row[local], pattern.n, np.where(owner == me, n_remote, 0))
    mine = np.flatnonzero(owner == me).tolist()

    def finish(k: int) -> list[int]:
        cdiv(acc, vals, indptr[k], indptr[k + 1], k)
        apply(acc, vals, k)  # all of my column's updates
        ready = []
        for j in waiting.fire(k):
            if owner_of[j] == me:
                ready.append(j)
                continue
            lo, hi = indptr[j], indptr[j + 1]
            aggregate = -acc[lo:hi]
            nz = np.nonzero(aggregate)[0]
            comm.send((j, rowidx[lo:hi][nz], aggregate[nz]), owner_of[j], _TAG_AGG)
        return ready

    def receive(j: int, rows: np.ndarray, aggregate: np.ndarray) -> list[int]:
        lo, hi = indptr[j], indptr[j + 1]
        acc[lo + np.searchsorted(rowidx[lo:hi], rows)] -= aggregate
        waiting.count[j] -= 1
        return [] if waiting.count[j] else [j]

    yield from run_tasks(
        [j for j in mine if not waiting.count[j]], len(mine),
        int(n_remote[owner == me].sum()), finish, receive,
    )
    return {j: vals[indptr[j] : indptr[j + 1]] for j in mine}, comm.stats


def distributed_cholesky_fanin(
    a: SymmetricCSC,
    pattern: LowerPattern,
    proc_of_col: np.ndarray,
    nprocs: int,
) -> tuple[LowerCSC, list]:
    """Fan-in factorization of an already-permuted SPD matrix.

    Same contract as :func:`repro.mpsim.distributed_cholesky`: returns
    the assembled factor (gathered on rank 0) and per-rank CommStats.
    """
    owner, seed, updates, off_col, off_row = column_setup(a, pattern, proc_of_col, nprocs)
    # n_remote[j] = other processors owning a column that updates column j.
    n_remote = np.diff(remote_peers(off_row, owner[off_col], owner, nprocs)[0])
    apply = column_pairs(updates)  # one table: a rank applies all its columns' updates
    values, stats = gather_on_ranks(
        partial(_fanin_rank, seed, updates, apply, owner, off_col, off_row, n_remote),
        pattern.nnz, nprocs, "fanin", partial(place_columns, pattern.indptr),
    )
    return LowerCSC(pattern, values), stats
