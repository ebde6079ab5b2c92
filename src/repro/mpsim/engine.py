"""What the numeric executors share.

Fan-out (:mod:`.distchol`), fan-in (:mod:`.fanin`), block
(:mod:`.distblock`) and the triangular-solve sweep (:mod:`.solve`)
differ only in what a task is (a column, a unit block or an unknown) and
in what travels when one finishes.  The rest is here: the checked
seeding of the accumulators from A, the pair updates of a source column
read off the supernode runs, the counters that turn a finished task into
newly ready ones, the ready/receive loop of a rank, and the stepper that
runs every rank and gathers the result on rank 0.

A rank is a coroutine: :func:`run_tasks` finishes its ready tasks and,
when it needs a message, yields the number it still expects and is
resumed with the payload.  Nothing blocks, so no rank needs a thread:
:func:`gather_on_ranks` drives all of them from one loop in the calling
thread, in a fixed order, and a run replays exactly (same messages,
same ledger, bit-identical values).  The order:

1. ranks 0, 1, ..., P - 1 start in turn, each running until it needs a
   message or is done;
2. then sweeps, in rank order: a waiting rank is handed its queued
   messages one at a time, oldest first, until its mailbox is empty or
   it is done;
3. a sweep that delivers nothing while a rank still waits is a stall,
   raised at once as an :class:`MPSimError` naming every waiting rank
   and the messages it still expects.

A rank that raises fails the run at once as ``MPSimError("rank r
failed: ...")``.

Every factorization rank keeps two vectors over the factor's element
ids: ``acc`` (A minus the pair updates applied so far) and ``vals``
(final values, NaN until computed or received, so that a value used
before it arrived poisons what is computed from it instead of passing
for a number).
"""

from __future__ import annotations

import heapq
import math
import pickle
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..obs import simtime
from ..obs import trace as obs
from ..sparse.csc import SymmetricCSC
from ..sparse.dtypes import linear_index
from ..sparse.pattern import LowerPattern
from ..symbolic.updates import UpdateSet, enumerate_updates

__all__ = [
    "CommStats",
    "Countdown",
    "Endpoint",
    "MPSimError",
    "cdiv",
    "column_pairs",
    "column_setup",
    "gather_on_ranks",
    "place_columns",
    "remote_peers",
    "run_tasks",
    "seed_accumulators",
]


class MPSimError(RuntimeError):
    """Raised for a failed rank, a deadlock (an immediate stall on the
    executors' stepper) or a message left unread."""


@dataclass
class CommStats:
    """Per-rank communication counters, written only by their own rank
    (a send counts on the sender, a receive on the receiver)."""

    messages_sent: int = 0
    messages_received: int = 0
    bytes_sent: int = 0

    def record_send(self, nbytes: int) -> None:
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if obs.is_enabled():
            obs.counter("mpsim.messages_sent")
            obs.counter("mpsim.bytes_sent", nbytes)

    def record_recv(self) -> None:
        self.messages_received += 1
        if obs.is_enabled():
            obs.counter("mpsim.messages_received")


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


def column_pairs(updates: UpdateSet, rows: np.ndarray | None = None):
    """``apply(acc, vals, k)``: subtract source column ``k``'s pair
    updates (runs ``lo[k]:hi[k]`` of ``UpdateSet.column_runs``) from
    ``acc``, their sources read in ``vals``.  ``rows``, a mask over the
    columns, keeps only the runs (a, b) whose target column r_b it selects."""
    run, sn, a, b, lo, hi, base = updates.column_runs
    if rows is not None:
        pattern = updates.pattern
        keep = rows[pattern.rowidx[pattern.indptr[updates.supernodes[sn]] + 1 + b]]
        run, a, b = run[keep], a[keep], b[keep]
        kept = np.concatenate([[0], np.cumsum(keep)])
        lo, hi = kept[lo], kept[hi]
    target, a, b = updates.run_target[run].astype(np.intp), a.astype(np.intp), b.astype(np.intp)
    lo, hi, base = lo.tolist(), hi.tolist(), base.tolist()

    def apply(acc: np.ndarray, vals: np.ndarray, k: int) -> None:
        i, j, src = lo[k], hi[k], vals[base[k]:]
        acc[target[i:j]] -= src[a[i:j]] * src[b[i:j]]

    return apply


class Countdown:
    """In-degree counters: ``count[t]`` is the number of events that list
    task ``t`` (plus ``extra[t]``); :meth:`fire` takes one event off each
    task it lists.  Plain lists: an event lists a handful of tasks."""

    def __init__(self, event: np.ndarray, task: np.ndarray, n: int, extra=0):
        # Events and tasks are both numbered 0..n-1 (columns, or units);
        # ``event`` ascending; the tasks of one event distinct.
        self.ptr = np.searchsorted(event, np.arange(n + 1)).tolist()
        self.task = task.tolist()
        self.count = (np.bincount(task, minlength=n) + extra).tolist()

    def fire(self, event: int) -> list[int]:
        """The tasks whose count this event brought to zero."""
        count, done = self.count, []
        for t in self.task[self.ptr[event] : self.ptr[event + 1]]:
            count[t] -= 1
            if not count[t]:
                done.append(t)
        return done


def cdiv(acc: np.ndarray, vals: np.ndarray, lo: int, hi: int, j: int) -> None:
    """Finish column ``j`` = elements ``lo:hi``: square root, then scale."""
    pivot = acc[lo]
    if pivot <= 0.0:
        raise ValueError(f"non-positive pivot {pivot:g} in column {j}")
    vals[lo] = d = math.sqrt(pivot)
    vals[lo + 1 : hi] = acc[lo + 1 : hi] / d


def run_tasks(ready: list[int], n_tasks: int, expected: int, finish, receive):
    """One rank's ready/receive loop, lowest ready task first; a
    coroutine, run with ``yield from``.

    ``finish(task)`` completes a ready local task (sending whatever the
    policy sends) and ``receive(*payload)`` absorbs one message; both
    return the local tasks they made ready.  With nothing ready, it
    yields the number of messages still expected and is resumed with
    the next payload.  Ends when ``n_tasks`` are finished and
    ``expected`` messages have been received.
    """
    heapq.heapify(ready)
    finished = 0
    while True:
        while ready:
            for task in finish(heapq.heappop(ready)):
                heapq.heappush(ready, task)
            finished += 1
        if not expected:
            break
        for task in receive(*(yield expected)):
            heapq.heappush(ready, task)
        expected -= 1
    if finished < n_tasks:
        raise ValueError(
            f"{n_tasks - finished} tasks never became ready: "
            "the dependencies are cyclic or incomplete"
        )


#: The tag of the result gather.
_TAG_GATHER = (1 << 20) + 2


def _detached(payload):
    """``payload`` (a tuple, or a dict for a column gather) with its
    array fields copied: what unpickling the sent bytes would give,
    without parsing them."""
    if isinstance(payload, dict):
        return {k: v.copy() if isinstance(v, np.ndarray) else v for k, v in payload.items()}
    return tuple([x.copy() if isinstance(x, np.ndarray) else x for x in payload])


#: Numeric dtypes, and the ``flags.num`` bits (C- and Fortran-contiguous,
#: writeable) that change an array's pickle.
_PLAIN, _LAYOUT = frozenset(np.dtype(c) for c in "?bhilqpBHILQPefdgFDG"), 0x403


def _shape(obj) -> tuple | None:
    """The key the pickled size of a tuple of bools, floats, None, int32
    ints and numeric arrays (none twice) is a function of: per field its
    type, an int's size class (pickle spends 1, 2 or 4 bytes), an array's
    dtype, shape, layout and the first field sharing its dtype *object*
    (pickle references a repeated object).  None for any other payload."""
    if type(obj) is not tuple:
        return None
    key, seen = [], {}  # ids of the arrays so far, and of their dtypes
    for x in obj:
        kind = type(x)
        if kind is np.ndarray:
            d = x.dtype
            if d not in _PLAIN or d.metadata is not None or id(x) in seen:
                return None
            seen[id(x)] = None
            key.append((d, seen.setdefault(id(d), len(key)), x.shape, x.flags.num & _LAYOUT))
        elif kind is int and -(1 << 31) <= x < (1 << 31):
            key.append(1 if 0 <= x < 256 else 2 if 0 <= x < 65536 else 4)
        elif kind is float or kind is bool or x is None:
            key.append(kind)
        else:
            return None
    return tuple(key)


def pickled_size(obj, sizes: dict) -> int:
    """``len(pickle.dumps(obj, HIGHEST_PROTOCOL))``, pickled once per
    payload shape (:func:`_shape`), whose size ``sizes`` keeps, and every
    time for a payload with none."""
    key = _shape(obj)
    size = sizes.get(key)
    if size is None:
        size = len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
        if key is not None:
            sizes[key] = size
    return size


class Endpoint:
    """One rank's handle on the stepper: its number, its counters and a
    buffered :meth:`send`.  The ranks of one run share ``sizes``, the
    pickled size of each payload shape sent so far."""

    def __init__(self, rank: int, mailboxes: list[deque], ledger, sizes: dict):
        self.rank = rank
        self.stats = CommStats()
        self.mailbox = mailboxes[rank]
        self._mailboxes = mailboxes
        self._ledger = ledger
        self._sizes = sizes

    def send(self, obj, dest: int, tag: int) -> None:
        """Queue ``obj`` for rank ``dest``.  The byte count is its pickled
        size (:func:`pickled_size`), as on a wire; the receiver gets it
        with its arrays copied, so the sender may overwrite them at once."""
        nbytes = pickled_size(obj, self._sizes)
        self.stats.record_send(nbytes)
        ledger = self._ledger
        mid = None if ledger is None else ledger.on_send(self.rank, dest, nbytes, cause=tag)
        self._mailboxes[dest].append((_detached(obj), mid))

    def receive(self):
        """Take the next message (:func:`_next_message`) off this rank's
        mailbox and return its payload."""
        payload, mid = _next_message(self.mailbox)
        self.stats.record_recv()
        if mid is not None:
            self._ledger.on_recv(mid)
        return payload


# The stepper's pick rule: sweeps visit the ranks in rank order, and a
# rank's mailbox is delivered oldest first.  Any rule gives the same
# messages and, to rounding, the same values.
def _sweep_order(nprocs: int):
    return range(nprocs)


def _next_message(mailbox: deque):
    return mailbox.popleft()


def _step(ranks: list, ends: list[Endpoint]) -> list:
    """Drive the rank coroutines to the end in the order of the module
    docstring; returns what each returned."""
    waiting = [0] * len(ranks)  # messages each rank still expects; 0 once done
    results = [None] * len(ranks)

    def advance(r: int, payload) -> None:
        try:
            waiting[r] = ranks[r].send(payload)
        except StopIteration as done:
            waiting[r], results[r] = 0, done.value
        except Exception as exc:
            raise MPSimError(f"rank {r} failed: {exc!r}") from exc

    for r in _sweep_order(len(ranks)):
        advance(r, None)
    while any(waiting):
        delivered = False
        for r in _sweep_order(len(ranks)):
            while waiting[r] and ends[r].mailbox:
                advance(r, ends[r].receive())
                delivered = True
        if not delivered:
            raise MPSimError("stalled, no message queued: " + ", ".join(
                f"rank {r} still expects {w} message(s)" for r, w in enumerate(waiting) if w
            ))
    # The result gather reads rank 0's mailbox: nothing may be left in any.
    for end in ends:
        if end.mailbox:
            raise MPSimError(f"rank {end.rank} finished with {len(end.mailbox)} message(s) unread")
    return results


def place_entries(values: np.ndarray, part: dict) -> None:
    """Write one rank's ``{index: value}`` into the result."""
    values[np.fromiter(part, np.int64, len(part))] = np.fromiter(
        part.values(), np.float64, len(part)
    )


def place_columns(indptr: np.ndarray, values: np.ndarray, part: dict) -> None:
    """Write one rank's ``{column: its values}`` into the factor's values."""
    for j, column in part.items():
        values[indptr[j] : indptr[j + 1]] = column


def gather_on_ranks(rank, size: int, nprocs: int, name: str,
                    place=place_entries) -> tuple[np.ndarray, list]:
    """Run the coroutine ``rank(endpoint)``, which returns ``(payload,
    extra)``, for every rank on one stepper; then send each non-root
    payload to rank 0, in rank order and through the same send path, and
    let ``place(values, payload)`` write every payload into a vector of
    ``size`` zeros.  Returns (values, per-rank extras); a traced run is
    recorded as the ``SimRun`` called ``name``, a failed one too (its
    undelivered messages with ``recv`` NaN)."""
    ledger = simtime.MessageLedger(nprocs) if obs.is_enabled() else None
    mailboxes = [deque() for _ in range(nprocs)]
    sizes = {}  # at most one entry per message of this run
    ends = [Endpoint(r, mailboxes, ledger, sizes) for r in range(nprocs)]
    try:
        results = _step([rank(end) for end in ends], ends)
        values = np.zeros(size, dtype=np.float64)
        for end, (payload, _) in zip(ends, results):
            if end.rank:
                end.send(payload, 0, _TAG_GATHER)
                payload = ends[0].receive()
            place(values, payload)
    finally:
        if ledger is not None and ledger.messages:
            simtime.record_sim_run(ledger.to_sim_run(name=name))
    return values, [extra for _, extra in results]
