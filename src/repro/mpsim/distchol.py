"""Distributed fan-out Cholesky factorization on the simulated
message-passing runtime.

The structure of L is replicated (as after a symbolic-factorization
broadcast); values are distributed by column according to an arbitrary
column -> processor map, so both the wrap mapping and a block-derived
column mapping can be executed for real.  The algorithm is the classic
fan-out scheme (Geist & Ng 1989; paper reference [6]): a processor
completes a column (cdiv), then sends it to every processor owning a
column that the completed column modifies (cmod).
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
from .solve import distributed_backward_solve, distributed_forward_solve

__all__ = ["distributed_cholesky", "distributed_solve_spd"]

_TAG_COLUMN = 1


def _factor_rank(seed: np.ndarray, updates: UpdateSet, owner: np.ndarray, off_col: np.ndarray,
                 off_row: np.ndarray, consumers, comm: Endpoint):
    """One rank of the fan-out factorization; returns its column values
    and its counters."""
    me = comm.rank
    pattern = updates.pattern
    indptr = pattern.indptr.tolist()
    acc = seed.copy()
    vals = np.full(pattern.nnz, np.nan)
    # My slice of the updates: those into my columns, applied source
    # column by source column as each is finished or received.
    apply = column_pairs(updates, owner == me)
    # pending.count[j] = columns still to be applied to my column j.
    local = owner[off_row] == me
    pending = Countdown(off_col[local], off_row[local], pattern.n)
    cons_ptr, cons_proc = consumers
    mine = np.flatnonzero(owner == me).tolist()

    def cmod(k: int) -> list[int]:
        apply(acc, vals, k)
        return pending.fire(k)

    def finish(j: int) -> list[int]:
        lo, hi = indptr[j], indptr[j + 1]
        cdiv(acc, vals, lo, hi, j)
        for dest in cons_proc[cons_ptr[j] : cons_ptr[j + 1]].tolist():
            comm.send((j, vals[lo:hi]), dest, _TAG_COLUMN)
        return cmod(j)

    def receive(k: int, column: np.ndarray) -> list[int]:
        vals[indptr[k] : indptr[k + 1]] = column
        return cmod(k)

    yield from run_tasks(
        [j for j in mine if not pending.count[j]], len(mine),
        int(np.count_nonzero(cons_proc == me)), finish, receive,
    )
    return {j: vals[indptr[j] : indptr[j + 1]] for j in mine}, comm.stats


def distributed_cholesky(
    a: SymmetricCSC,
    pattern: LowerPattern,
    proc_of_col: np.ndarray,
    nprocs: int,
) -> tuple[LowerCSC, list]:
    """Factor ``a`` (already permuted; ``pattern`` is its symbolic factor)
    with ``nprocs`` simulated ranks.  Returns (L, per-rank CommStats)."""
    owner, seed, updates, off_col, off_row = column_setup(a, pattern, proc_of_col, nprocs)
    # consumers of column k: the other owners of a column k modifies.
    consumers = remote_peers(off_col, owner[off_row], owner, nprocs)
    values, stats = gather_on_ranks(
        partial(_factor_rank, seed, updates, owner, off_col, off_row, consumers),
        pattern.nnz, nprocs, "fanout", partial(place_columns, pattern.indptr),
    )
    return LowerCSC(pattern, values), stats


def distributed_solve_spd(
    a: SymmetricCSC,
    b: np.ndarray,
    pattern: LowerPattern,
    proc_of_col: np.ndarray,
    nprocs: int,
) -> np.ndarray:
    """Full distributed pipeline on an already-permuted system:
    factorization, forward solve, backward solve."""
    L, _ = distributed_cholesky(a, pattern, proc_of_col, nprocs)
    u = distributed_forward_solve(L, b, proc_of_col, nprocs)
    return distributed_backward_solve(L, u, proc_of_col, nprocs)
