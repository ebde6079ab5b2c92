"""A simulated message-passing communicator (mpi4py-flavoured API).

Ranks run as threads inside one process; messages are Python objects
passed through per-rank mailboxes with (source, tag) matching, like an
MPI implementation's unexpected-message queue.  The communicator counts
messages and payload bytes so integration tests can correlate real
message traffic with the machine-model accounting.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass

from ..obs import trace as obs

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "CommStats",
    "CommWorld",
    "MPSimError",
    "Request",
]

ANY_SOURCE = -1
ANY_TAG = -1


class MPSimError(RuntimeError):
    """Raised for communicator misuse, a failed rank, or a deadlock (a
    timeout here, an immediate stall on the executors' stepper)."""


class _Aborted(MPSimError):
    """Raised in a waiting rank when another rank has failed the run."""


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


class Request:
    """Handle for a nonblocking operation (mpi4py-style test/wait)."""

    def __init__(self, poll, result=None, complete: bool = False):
        self._poll = poll
        self._result = result
        self._complete = complete

    def test(self):
        """(done, result) — non-blocking completion check."""
        if not self._complete:
            ok, value = self._poll(block=False)
            if ok:
                self._result = value
                self._complete = True
        return self._complete, self._result

    def wait(self):
        """Block until complete; returns the result (None for sends)."""
        if not self._complete:
            _, value = self._poll(block=True)
            self._result = value
            self._complete = True
        return self._result


class _Mailbox:
    """Unbounded mailbox with (source, tag) matched receives."""

    def __init__(self, aborted: threading.Event) -> None:
        self._pending: deque = deque()
        self._cond = threading.Condition()
        self._aborted = aborted  # the world's abort flag

    def put(self, source: int, tag: int, payload, msg_id: int | None = None) -> None:
        # msg_id threads the ledger entry (simtime.MessageLedger) through
        # the mailbox so the receive side can stamp the delivery.
        with self._cond:
            self._pending.append((source, tag, payload, msg_id))
            self._cond.notify()  # one reader: the owning rank

    def peek(self, source: int, tag: int):
        """Non-destructive match check; returns (source, tag) or None."""
        with self._cond:
            for s, t, _payload, _mid in self._pending:
                if (source in (ANY_SOURCE, s)) and (tag in (ANY_TAG, t)):
                    return s, t
        return None

    def try_get(self, source: int, tag: int):
        """Non-blocking matched receive; returns None when no match."""
        with self._cond:
            for idx, (s, t, payload, mid) in enumerate(self._pending):
                if (source in (ANY_SOURCE, s)) and (tag in (ANY_TAG, t)):
                    del self._pending[idx]
                    return s, t, payload, mid
        return None

    def get(self, source: int, tag: int, timeout: float | None):
        deadline = None
        with self._cond:
            while True:
                for idx, (s, t, payload, mid) in enumerate(self._pending):
                    if (source in (ANY_SOURCE, s)) and (tag in (ANY_TAG, t)):
                        del self._pending[idx]
                        return s, t, payload, mid
                if self._aborted.is_set():
                    raise _Aborted(f"recv(source={source}, tag={tag}) aborted")
                if timeout is not None:
                    if deadline is None:
                        deadline = time.monotonic() + timeout
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise MPSimError(
                            f"recv(source={source}, tag={tag}) timed out "
                            "(likely deadlock)"
                        )
                    self._cond.wait(remaining)
                else:
                    self._cond.wait()


class CommWorld:
    """Shared state for one group of ranks.

    ``drop_filter`` enables fault injection: a callable
    ``(source, dest, tag) -> bool`` returning True when a message should
    be silently lost in transit.  Dropped messages still count as sent
    (the sender cannot tell) and increment ``messages_dropped``; the
    receiving side eventually hits its timeout, which is exactly the
    failure mode the deadlock detection exists for.
    """

    def __init__(
        self,
        size: int,
        default_timeout: float | None = 60.0,
        drop_filter=None,
    ):
        if size < 1:
            raise ValueError("size must be positive")
        self.size = size
        self.default_timeout = default_timeout
        self.drop_filter = drop_filter
        self.messages_dropped = 0
        self._aborted = threading.Event()
        self.mailboxes = [_Mailbox(self._aborted) for _ in range(size)]
        self.stats = [CommStats() for _ in range(size)]
        self._barrier = threading.Barrier(size)
        self._drop_lock = threading.Lock()
        #: Optional :class:`repro.obs.simtime.MessageLedger`.  When the
        #: launcher attaches one, every send/recv is stamped with Lamport
        #: times; dropped messages stay in the ledger undelivered.
        self.ledger = None

    def comm(self, rank: int) -> "Comm":
        return Comm(self, rank)

    def abort(self) -> None:
        """Fail the run: every rank blocked in (or later entering) a
        receive, probe or barrier raises instead of waiting for its
        timeout.  Called by the launcher when a rank dies."""
        self._aborted.set()
        self._barrier.abort()
        for box in self.mailboxes:
            with box._cond:
                box._cond.notify_all()


class Comm:
    """One rank's handle on the communicator."""

    def __init__(self, world: CommWorld, rank: int):
        if not (0 <= rank < world.size):
            raise ValueError(f"rank {rank} out of range for size {world.size}")
        self._world = world
        self.rank = rank
        self.size = world.size

    # -- point to point -------------------------------------------------
    def send(self, obj, dest: int, tag: int = 0) -> None:
        """Buffered send (never blocks)."""
        if not (0 <= dest < self.size):
            raise MPSimError(f"send to invalid rank {dest}")
        if tag < 0:
            raise MPSimError("tags must be non-negative (wildcards are recv-only)")
        # Serialize to decouple sender/receiver state, exactly as a real
        # message-passing system would (and to measure payload size).
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        self._world.stats[self.rank].record_send(len(payload))
        ledger = self._world.ledger
        mid = (
            None
            if ledger is None
            else ledger.on_send(self.rank, dest, len(payload), cause=tag)
        )
        drop = self._world.drop_filter
        if drop is not None and drop(self.rank, dest, tag):
            # The ledger entry stays undelivered — exactly how a lost
            # message looks to a postmortem.
            with self._world._drop_lock:
                self._world.messages_dropped += 1
            obs.counter("mpsim.messages_dropped")
            return
        self._world.mailboxes[dest].put(self.rank, tag, payload, mid)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: dict | None = None):
        """Blocking matched receive; returns the received object."""
        s, t, payload, mid = self._world.mailboxes[self.rank].get(
            source, tag, self._world.default_timeout
        )
        self._world.stats[self.rank].record_recv()
        ledger = self._world.ledger
        if ledger is not None and mid is not None:
            ledger.on_recv(mid)
        if status is not None:
            status["source"] = s
            status["tag"] = t
        return pickle.loads(payload)

    def sendrecv(self, obj, dest: int, source: int = ANY_SOURCE, tag: int = 0):
        self.send(obj, dest, tag)
        return self.recv(source, tag)

    def isend(self, obj, dest: int, tag: int = 0) -> Request:
        """Nonblocking send.  Sends here are buffered, so the request is
        complete immediately — kept for API parity with MPI."""
        self.send(obj, dest, tag)
        return Request(poll=lambda block: (True, None), complete=True)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Request:
        """Nonblocking receive; complete it with ``.test()`` / ``.wait()``."""
        mailbox = self._world.mailboxes[self.rank]
        stats = self._world.stats[self.rank]
        timeout = self._world.default_timeout
        world = self._world

        def poll(block: bool):
            if block:
                _s, _t, payload, mid = mailbox.get(source, tag, timeout)
            else:
                hit = mailbox.try_get(source, tag)
                if hit is None:
                    return False, None
                _s, _t, payload, mid = hit
            stats.record_recv()
            if world.ledger is not None and mid is not None:
                world.ledger.on_recv(mid)
            return True, pickle.loads(payload)

        return Request(poll=poll)

    def probe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> dict:
        """Block until a matching message is available; returns its
        (source, tag) without consuming it."""
        deadline = (
            None
            if self._world.default_timeout is None
            else time.monotonic() + self._world.default_timeout
        )
        while True:
            hit = self._world.mailboxes[self.rank].peek(source, tag)
            if hit is not None:
                return {"source": hit[0], "tag": hit[1]}
            if self._world._aborted.is_set():
                raise _Aborted(f"probe(source={source}, tag={tag}) aborted")
            if deadline is not None and time.monotonic() > deadline:
                raise MPSimError(
                    f"probe(source={source}, tag={tag}) timed out"
                )
            time.sleep(0.0005)

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> dict | None:
        """Non-blocking probe; None when no matching message is queued."""
        hit = self._world.mailboxes[self.rank].peek(source, tag)
        return None if hit is None else {"source": hit[0], "tag": hit[1]}

    # -- collectives ----------------------------------------------------
    _COLL_TAG_BASE = 1 << 20  # reserved tag space for collectives

    def barrier(self) -> None:
        try:
            self._world._barrier.wait(timeout=self._world.default_timeout)
        except threading.BrokenBarrierError:
            if self._world._aborted.is_set():
                raise _Aborted("barrier aborted") from None
            raise

    def bcast(self, obj, root: int = 0):
        tag = self._COLL_TAG_BASE + 1
        if self.rank == root:
            for dst in range(self.size):
                if dst != root:
                    self.send(obj, dst, tag)
            return obj
        return self.recv(root, tag)

    def gather(self, obj, root: int = 0):
        tag = self._COLL_TAG_BASE + 2
        if self.rank == root:
            out = [None] * self.size
            out[root] = obj
            for _ in range(self.size - 1):
                status: dict = {}
                val = self.recv(ANY_SOURCE, tag, status)
                out[status["source"]] = val
            return out
        self.send(obj, root, tag)
        return None

    def allgather(self, obj):
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def scatter(self, objs, root: int = 0):
        tag = self._COLL_TAG_BASE + 3
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise MPSimError("scatter requires one object per rank at the root")
            for dst in range(self.size):
                if dst != root:
                    self.send(objs[dst], dst, tag)
            return objs[root]
        return self.recv(root, tag)

    def reduce(self, obj, op=None, root: int = 0):
        """Reduce with a binary ``op`` (default addition), root gets result."""
        if op is None:
            op = lambda a, b: a + b  # noqa: E731 - tiny default
        vals = self.gather(obj, root)
        if self.rank != root:
            return None
        acc = vals[0]
        for v in vals[1:]:
            acc = op(acc, v)
        return acc

    def allreduce(self, obj, op=None):
        return self.bcast(self.reduce(obj, op, root=0), root=0)

    # -- introspection ----------------------------------------------------
    @property
    def stats(self) -> CommStats:
        return self._world.stats[self.rank]
