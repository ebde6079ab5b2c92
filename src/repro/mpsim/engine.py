"""What the numeric executors share.

Fan-out (:mod:`.distchol`), fan-in (:mod:`.fanin`), block
(:mod:`.distblock`) and the triangular-solve sweep (:mod:`.solve`)
differ only in what a task is (a column, a unit block or an unknown) and
in what travels when one finishes.  The rest is here: the checked
seeding of the accumulators from A, the counters that turn a finished
task into newly ready ones, the ready/receive loop of a rank, and the
gather that assembles the result on rank 0.

Every factorization rank keeps two vectors over the factor's element
ids: ``acc`` (A minus the pair updates applied so far) and ``vals``
(final values, NaN until computed or received, so that a value used
before it arrived poisons what is computed from it instead of passing
for a number).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..sparse.csc import SymmetricCSC
from ..sparse.dtypes import linear_index
from ..sparse.pattern import LowerPattern
from ..symbolic.updates import UpdateSet, enumerate_updates
from .comm import ANY_SOURCE, Comm
from .launcher import run_parallel

__all__ = [
    "Countdown",
    "cdiv",
    "column_setup",
    "gather_on_ranks",
    "place_columns",
    "remote_peers",
    "run_tasks",
    "seed_accumulators",
    "updates_by_source_column",
]


def seed_accumulators(a: SymmetricCSC, pattern: LowerPattern) -> np.ndarray:
    """A's values scattered over the factor's element ids (zero on fill).

    Raises ``ValueError`` naming the first ``(row, col)`` stored in A
    that the factor pattern does not contain.
    """
    if a.n != pattern.n:
        raise ValueError("matrix order does not match the factor pattern")
    apat = a.pattern
    key = linear_index(pattern.element_cols(), pattern.rowidx, pattern.n)
    query = linear_index(apat.element_cols(), apat.rowidx, pattern.n)
    eid = np.minimum(np.searchsorted(key, query), pattern.nnz - 1)
    bad = np.flatnonzero(key[eid] != query)
    if len(bad):
        row, col = int(apat.rowidx[bad[0]]), int(query[bad[0]] // pattern.n)
        raise ValueError(f"A[{row}, {col}] is not in the factor pattern")
    acc = np.zeros(pattern.nnz, dtype=np.float64)
    acc[eid] = a.values
    return acc


def column_setup(a: SymmetricCSC, pattern: LowerPattern, proc_of_col, nprocs: int):
    """What a column executor starts from: the checked column owners, the
    seeded accumulators, the UpdateSet of ``pattern`` and the (column,
    row) of every off-diagonal factor element."""
    owner = np.asarray(proc_of_col, dtype=np.int64)
    if len(owner) != a.n:
        raise ValueError("proc_of_col must map every column")
    if len(owner) and (owner.min() < 0 or owner.max() >= nprocs):
        raise ValueError("column owner out of range")
    seed = seed_accumulators(a, pattern)
    updates = enumerate_updates(pattern)
    # The ranks share the per-pair arrays: expand them here, once, not in
    # whichever rank thread (and its allocator arena) reads them first.
    updates.target, updates.source_i, updates.source_j, updates.source_col  # noqa: B018
    off = pattern.rowidx != updates.element_cols
    return owner, seed, updates, updates.element_cols[off], pattern.rowidx[off]


def remote_peers(
    item: np.ndarray, peer: np.ndarray, home: np.ndarray, nprocs: int
) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(ptr, procs)`` over the items of ``home``: the distinct
    processors ``peer`` paired with each ``item``, ascending, the item's
    own ``home[item]`` left out."""
    away = peer != home[item]
    key = np.unique(linear_index(item[away], peer[away], nprocs))
    ptr = np.searchsorted(key // nprocs, np.arange(len(home) + 1))
    return ptr, key % nprocs


def updates_by_source_column(updates: UpdateSet, mask: np.ndarray):
    """``(target, source_i, source_j, ptr)`` of the masked pair updates;
    those of source column ``k`` are ``ptr[k]:ptr[k + 1]`` (the UpdateSet
    is enumerated column by column) and hit each target at most once."""
    sel = np.flatnonzero(mask)
    ptr = np.searchsorted(updates.source_col[sel], np.arange(updates.pattern.n + 1))
    # intp: the three arrays are used as indices once per finished column.
    target, source_i, source_j = (
        x[sel].astype(np.intp) for x in (updates.target, updates.source_i, updates.source_j)
    )
    return target, source_i, source_j, ptr.tolist()


class Countdown:
    """In-degree counters: ``count[t]`` is the number of events that list
    task ``t``; :meth:`fire` takes one event off each task it lists."""

    def __init__(self, event: np.ndarray, task: np.ndarray, n: int):
        # Events and tasks are both numbered 0..n-1 (columns, or units);
        # ``event`` ascending; the tasks of one event distinct.
        self.ptr = np.searchsorted(event, np.arange(n + 1)).tolist()
        self.task = task
        self.count = np.bincount(task, minlength=n)

    def fire(self, event: int) -> list[int]:
        """The tasks whose count this event brought to zero."""
        tasks = self.task[self.ptr[event] : self.ptr[event + 1]]
        self.count[tasks] -= 1
        return tasks[self.count[tasks] == 0].tolist()


def cdiv(acc: np.ndarray, vals: np.ndarray, lo: int, hi: int, j: int) -> None:
    """Finish column ``j`` = elements ``lo:hi``: square root, then scale."""
    pivot = acc[lo]
    if pivot <= 0.0:
        raise ValueError(f"non-positive pivot {pivot:g} in column {j}")
    vals[lo] = d = math.sqrt(pivot)
    vals[lo + 1 : hi] = acc[lo + 1 : hi] / d


def run_tasks(comm: Comm, tag: int, ready: list[int], n_tasks: int, expected: int,
              finish, receive) -> None:
    """One rank's ready/receive loop, lowest ready task first.

    ``finish(task)`` completes a ready local task (sending whatever the
    policy sends) and ``receive(*payload)`` absorbs one message; both
    return the local tasks they made ready.  Ends when ``n_tasks`` are
    finished and ``expected`` messages have been received.
    """
    heapq.heapify(ready)
    finished = received = 0
    while finished < n_tasks or received < expected:
        while ready:
            for task in finish(heapq.heappop(ready)):
                heapq.heappush(ready, task)
            finished += 1
        if received < expected:
            for task in receive(*comm.recv(ANY_SOURCE, tag)):
                heapq.heappush(ready, task)
            received += 1
        elif finished < n_tasks:
            raise ValueError(
                f"{n_tasks - finished} tasks never became ready: "
                "the dependencies are cyclic or incomplete"
            )


def place_entries(values: np.ndarray, part: dict) -> None:
    """Write one rank's ``{index: value}`` into the result."""
    values[np.fromiter(part, np.int64, len(part))] = np.fromiter(
        part.values(), np.float64, len(part)
    )


def place_columns(indptr: np.ndarray, values: np.ndarray, part: dict) -> None:
    """Write one rank's ``{column: its values}`` into the factor's values."""
    for j, column in part.items():
        values[indptr[j] : indptr[j + 1]] = column


def gather_on_ranks(rank, size: int, nprocs: int, timeout: float | None, name: str,
                    place=place_entries) -> tuple[np.ndarray, list]:
    """Run ``rank(comm) -> (payload, extra)`` on every rank, gather the
    payloads on rank 0 and let ``place(values, payload)`` write each into
    a vector of ``size`` zeros.  Returns (values, per-rank extras); a
    traced run is recorded as the ``SimRun`` called ``name``."""

    def rank_fn(comm: Comm):
        mine, extra = rank(comm)
        return comm.gather(mine, root=0), extra

    rank_fn.__name__ = name  # what run_parallel names the run after
    results = run_parallel(rank_fn, nprocs, timeout=timeout)
    values = np.zeros(size, dtype=np.float64)
    for part in results[0][0]:
        place(values, part)
    return values, [extra for _, extra in results]
