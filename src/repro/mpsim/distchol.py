"""Distributed fan-out Cholesky factorization and triangular solves on
the simulated message-passing runtime.

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
from .comm import ANY_SOURCE, Comm
from .engine import (
    Countdown,
    cdiv,
    column_setup,
    gather_on_ranks,
    place_columns,
    remote_peers,
    run_tasks,
    updates_by_source_column,
)

__all__ = [
    "distributed_cholesky",
    "distributed_forward_solve",
    "distributed_backward_solve",
    "distributed_solve_spd",
]

_TAG_COLUMN = 1
_TAG_FSOLVE = 2
_TAG_BSOLVE = 3


def _nmod(pattern: LowerPattern) -> np.ndarray:
    """nmod[j] = number of columns k < j with L[j, k] != 0."""
    off = pattern.rowidx != pattern.element_cols()
    return np.bincount(pattern.rowidx[off], minlength=pattern.n)


def _factor_rank(comm: Comm, seed: np.ndarray, updates: UpdateSet, owner: np.ndarray,
                 off_col: np.ndarray, off_row: np.ndarray, consumers) -> dict[int, np.ndarray]:
    """One rank of the fan-out factorization; returns its column values."""
    me = comm.rank
    pattern = updates.pattern
    indptr = pattern.indptr.tolist()
    acc = seed.copy()
    vals = np.full(pattern.nnz, np.nan)
    # My slice of the UpdateSet: the updates into my columns, applied
    # source column by source column as each is finished or received.
    tgt, si, sj, uptr = updates_by_source_column(
        updates, owner[updates.element_cols[updates.target]] == me
    )
    # pending.count[j] = columns still to be applied to my column j.
    local = owner[off_row] == me
    pending = Countdown(off_col[local], off_row[local], pattern.n)
    cons_ptr, cons_proc = consumers
    mine = np.flatnonzero(owner == me)

    def cmod(k: int) -> list[int]:
        lo, hi = uptr[k], uptr[k + 1]
        acc[tgt[lo:hi]] -= vals[si[lo:hi]] * vals[sj[lo:hi]]
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

    run_tasks(
        comm, _TAG_COLUMN, mine[pending.count[mine] == 0].tolist(), len(mine),
        int(np.count_nonzero(cons_proc == me)), finish, receive,
    )
    return {j: vals[indptr[j] : indptr[j + 1]] for j in mine.tolist()}


def distributed_cholesky(
    a: SymmetricCSC,
    pattern: LowerPattern,
    proc_of_col: np.ndarray,
    nprocs: int,
    timeout: float | None = 60.0,
) -> tuple[LowerCSC, list]:
    """Factor ``a`` (already permuted; ``pattern`` is its symbolic factor)
    with ``nprocs`` simulated ranks.  Returns (L, per-rank CommStats)."""
    owner, seed, updates, off_col, off_row = column_setup(a, pattern, proc_of_col, nprocs)
    # consumers of column k: the other owners of a column k modifies.
    consumers = remote_peers(off_col, owner[off_row], owner, nprocs)
    values, stats = gather_on_ranks(
        lambda comm: (
            _factor_rank(comm, seed, updates, owner, off_col, off_row, consumers),
            comm.stats,
        ),
        pattern.nnz, nprocs, timeout, partial(place_columns, pattern.indptr),
    )
    return LowerCSC(pattern, values), stats


def distributed_forward_solve(
    L: LowerCSC, b: np.ndarray, proc_of_col: np.ndarray, nprocs: int,
    timeout: float | None = 60.0,
) -> np.ndarray:
    """Solve L x = b with column fan-out: the owner of column j finalizes
    x_j, then ships its update contributions grouped by destination."""
    proc_of_col = np.asarray(proc_of_col, dtype=np.int64)
    pattern = L.pattern
    n = pattern.n
    nmod = _nmod(pattern)

    def rank_fn(comm: Comm):
        me = comm.rank
        mine = [j for j in range(n) if proc_of_col[j] == me]
        mine_set = set(mine)
        acc = {j: float(b[j]) for j in mine}
        pending = {j: int(nmod[j]) for j in mine}
        x: dict[int, float] = {}
        expected = 0
        for k in range(n):
            if proc_of_col[k] == me:
                continue
            dests = {int(proc_of_col[i]) for i in pattern.col(k)[1:]}
            if me in dests:
                expected += 1

        def finalize(j: int) -> list[int]:
            lo, hi = pattern.indptr[j], pattern.indptr[j + 1]
            xj = acc[j] / L.values[lo]
            x[j] = xj
            rows = pattern.rowidx[lo + 1 : hi]
            deltas = L.values[lo + 1 : hi] * xj
            by_dest: dict[int, list[tuple[int, float]]] = {}
            newly = []
            for i, d in zip(rows.tolist(), deltas.tolist()):
                p = int(proc_of_col[i])
                if p == me:
                    acc[i] -= d
                    pending[i] -= 1
                    if pending[i] == 0:
                        newly.append(i)
                else:
                    by_dest.setdefault(p, []).append((i, d))
            for p, items in by_dest.items():
                comm.send((j, items), p, _TAG_FSOLVE)
            return newly

        ready = sorted(j for j in mine if pending[j] == 0)
        received = 0
        while len(x) < len(mine) or received < expected:
            while ready:
                ready.extend(finalize(ready.pop(0)))
                ready.sort()
            if received < expected:
                _k, items = comm.recv(ANY_SOURCE, _TAG_FSOLVE)
                received += 1
                for i, d in items:
                    acc[i] -= d
                    pending[i] -= 1
                    if pending[i] == 0:
                        ready.append(i)
                ready.sort()
        return x, None

    return gather_on_ranks(rank_fn, n, nprocs, timeout)[0]


def distributed_backward_solve(
    L: LowerCSC, b: np.ndarray, proc_of_col: np.ndarray, nprocs: int,
    timeout: float | None = 60.0,
) -> np.ndarray:
    """Solve Lᵀ x = b: the owner of column j computes the dot product of
    L[:, j] with already-finalized x entries, which other owners push to
    it as they finalize."""
    proc_of_col = np.asarray(proc_of_col, dtype=np.int64)
    pattern = L.pattern
    n = pattern.n

    # needers[i] = processors owning a column j < i with L[i, j] != 0
    # (they need x_i to finish their dot products).
    needers: list[set[int]] = [set() for _ in range(n)]
    for j in range(n):
        for i in pattern.col(j)[1:]:
            needers[int(i)].add(int(proc_of_col[j]))

    def rank_fn(comm: Comm):
        me = comm.rank
        mine = [j for j in range(n) if proc_of_col[j] == me]
        acc = {j: float(b[j]) for j in mine}
        pending = {j: int(pattern.col_count(j)) - 1 for j in mine}
        x: dict[int, float] = {}
        expected = 0
        for i in range(n):
            if proc_of_col[i] != me and me in needers[i]:
                expected += 1

        def finalize(j: int) -> list[int]:
            lo = pattern.indptr[j]
            xj = acc[j] / L.values[lo]
            x[j] = xj
            newly = []
            # x_j participates in the dot products of columns j' < j with
            # L[j, j'] != 0; push it to their owners (and apply locally).
            for p in sorted(needers[j] - {me}):
                comm.send((j, xj), p, _TAG_BSOLVE)
            if me in needers[j]:
                newly.extend(_apply(j, xj))
            return newly

        def _apply(i: int, xi: float) -> list[int]:
            newly = []
            for j in mine:
                if j in x or j >= i:
                    continue
                lo, hi = pattern.indptr[j], pattern.indptr[j + 1]
                rows = pattern.rowidx[lo:hi]
                pos = int(np.searchsorted(rows, i))
                if pos < len(rows) and rows[pos] == i:
                    acc[j] -= L.values[lo + pos] * xi
                    pending[j] -= 1
                    if pending[j] == 0:
                        newly.append(j)
            return newly

        ready = sorted((j for j in mine if pending[j] == 0), reverse=True)
        received = 0
        while len(x) < len(mine) or received < expected:
            while ready:
                ready.extend(finalize(ready.pop(0)))
                ready.sort(reverse=True)
            if received < expected:
                i, xi = comm.recv(ANY_SOURCE, _TAG_BSOLVE)
                received += 1
                ready.extend(_apply(i, xi))
                ready.sort(reverse=True)
        return x, None

    return gather_on_ranks(rank_fn, n, nprocs, timeout)[0]


def distributed_solve_spd(
    a: SymmetricCSC,
    b: np.ndarray,
    pattern: LowerPattern,
    proc_of_col: np.ndarray,
    nprocs: int,
    timeout: float | None = 60.0,
) -> np.ndarray:
    """Full distributed pipeline on an already-permuted system:
    factorization, forward solve, backward solve."""
    L, _ = distributed_cholesky(a, pattern, proc_of_col, nprocs, timeout=timeout)
    u = distributed_forward_solve(L, b, proc_of_col, nprocs, timeout=timeout)
    return distributed_backward_solve(L, u, proc_of_col, nprocs, timeout=timeout)
