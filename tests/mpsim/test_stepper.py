"""The stepper that runs the numeric executors' ranks as coroutines.

* determinism: two runs of an executor give the same ledger, row for
  row, and bit-identical values;
* isolation: a sent array is copied, so the sender may overwrite it;
* stalls: a rank waiting for a message nobody sends fails the run at
  once, naming the rank and how many messages it still expects;
* reordered delivery: under another pick order (last message first,
  ranks swept in reverse, or both) every executor sends the same
  multiset of (src, dst, tag, bytes) messages and still computes the
  sequential factor and solutions to 1e-10, on ``generated_graphs()`` x
  P in {1, 3, 16}.  The example count is the active Hypothesis profile's
  (the CI kernel-identity step runs this module under
  ``--hypothesis-profile=full``).
"""

import time
from collections import deque
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import block_mapping, prepare
from repro.mpsim import (
    MPSimError,
    distributed_backward_solve,
    distributed_block_backward_solve,
    distributed_block_cholesky,
    distributed_block_forward_solve,
    distributed_cholesky,
    distributed_cholesky_fanin,
    distributed_forward_solve,
)
from repro.mpsim import engine
from repro.mpsim.distchol import _TAG_COLUMN
from repro.mpsim.engine import Endpoint, gather_on_ranks, run_tasks
from repro.numeric import sparse_cholesky
from repro.obs import trace as obs
from repro.sparse import grid9, spd_from_graph

from ..conftest import generated_graphs
from ..numeric.oracles import solve_lower, solve_lower_transpose

PROCS = (1, 3, 16)


def executors(graph, seed, nprocs):
    """name -> (a run returning the computed vector, the sequential one)
    for the three factorizations and the four triangular solves."""
    prep = prepare(graph, name="generated")
    a = spd_from_graph(graph, seed=seed).permute(prep.perm)
    L = sparse_cholesky(a, prep.symbolic)
    rng = np.random.default_rng(seed)
    owners = rng.integers(0, nprocs, size=a.n)
    b = rng.random(a.n) + 1.0
    block = block_mapping(prep, nprocs, grain=4)
    element_owners = block.assignment.owner_of_element
    return {
        "fanout": (
            lambda: distributed_cholesky(a, prep.pattern, owners, nprocs)[0].values,
            L.values,
        ),
        "fanin": (
            lambda: distributed_cholesky_fanin(a, prep.pattern, owners, nprocs)[0].values,
            L.values,
        ),
        "block": (
            lambda: distributed_block_cholesky(
                a, block.partition, block.assignment, prep.updates, block.dependencies
            )[0].values,
            L.values,
        ),
        "forward": (
            lambda: distributed_forward_solve(L, b, owners, nprocs), solve_lower(L, b)
        ),
        "backward": (
            lambda: distributed_backward_solve(L, b, owners, nprocs),
            solve_lower_transpose(L, b),
        ),
        "block forward": (
            lambda: distributed_block_forward_solve(L, b, element_owners, nprocs),
            solve_lower(L, b),
        ),
        "block backward": (
            lambda: distributed_block_backward_solve(L, b, element_owners, nprocs),
            solve_lower_transpose(L, b),
        ),
    }


def traced(run):
    """``run()`` under a recorder: its result and its message tables."""
    with obs.enabled() as rec:
        out = run()
    return out, [sim.messages for sim in rec.sim_runs]


class TestDeterminism:
    @pytest.fixture(scope="class")
    def runs(self):
        return executors(grid9(8, 8), 3, 3)

    @pytest.mark.parametrize(
        "name", ["fanout", "fanin", "block", "forward", "backward", "block forward",
                 "block backward"]
    )
    def test_two_runs_have_the_same_ledger_and_the_same_bits(self, runs, name):
        run, _ = runs[name]
        first, ledger = traced(run)
        again, replay = traced(run)
        assert first.tobytes() == again.tobytes()
        assert len(ledger) == len(replay) == 1 and len(ledger[0]) > 0
        for column in ("src", "dst", "nbytes", "send", "recv"):
            assert np.array_equal(getattr(ledger[0], column), getattr(replay[0], column))


class TestIsolation:
    def test_overwriting_a_sent_array_does_not_change_what_arrives(self):
        sent = np.arange(4.0)
        got = []

        def rank(end):
            if end.rank == 0:  # runs to its end before rank 1 starts
                end.send((7, sent), 1, 3)
                sent[:] = -1.0
            receive = lambda k, x: got.append((k, x.tolist())) or []  # noqa: E731
            yield from run_tasks([], 0, end.rank, None, receive)
            return {}, None

        gather_on_ranks(rank, 0, 2, "isolation")
        assert got == [(7, [0.0, 1.0, 2.0, 3.0])]


class TestStalls:
    def test_a_rank_waiting_for_a_message_nobody_sends_is_named_at_once(self):
        def rank(end):
            if end.rank == 0:
                end.send((0,), 1, 3)
            expected = 3 if end.rank == 1 else 0  # rank 0 sends one of three
            yield from run_tasks([], 0, expected, None, lambda _: [])
            return {}, None

        start = time.perf_counter()
        with pytest.raises(MPSimError, match=r"stalled.*: rank 1 still expects 2 message"):
            gather_on_ranks(rank, 0, 3, "stall")
        assert time.perf_counter() - start < 0.1

    def test_a_lost_column_stalls_the_fan_out_at_once(self):
        g = grid9(6, 6)
        prep = prepare(g, name="grid9(6,6)")
        a = spd_from_graph(g, seed=1).permute(prep.perm)
        send, lost = Endpoint.send, []

        def lossy(end, obj, dest, tag):
            if tag == _TAG_COLUMN and not lost:
                lost.append(dest)
                return
            send(end, obj, dest, tag)

        start = time.perf_counter()
        with mock.patch.object(Endpoint, "send", lossy):
            with pytest.raises(MPSimError, match=r"rank 1 still expects \d+ message"):
                distributed_cholesky(a, prep.pattern, np.arange(a.n) % 2, 2)
        assert lost == [1] and time.perf_counter() - start < 0.5


#: Pick orders other than the stepper's own (rank order, oldest first).
ORDERS = {
    "last message first": (range, deque.pop),
    "ranks in reverse": (lambda n: range(n - 1, -1, -1), deque.popleft),
    "both": (lambda n: range(n - 1, -1, -1), deque.pop),
}


@contextmanager
def delivered(order: str):
    sweep, take = ORDERS[order]
    with mock.patch.object(engine, "_sweep_order", sweep), \
            mock.patch.object(engine, "_next_message", take):
        yield


def message_multiset(tables) -> list[tuple]:
    return sorted(
        message
        for t in tables
        for message in zip(t.src.tolist(), t.dst.tolist(), t.cause.tolist(),
                           t.nbytes.tolist())
    )


class TestReorderedDelivery:
    @given(generated_graphs(), st.integers(0, 2**16), st.sampled_from(PROCS),
           st.sampled_from(sorted(ORDERS)))
    @settings(deadline=None)
    def test_same_messages_and_the_sequential_values(self, graph, seed, nprocs, order):
        for name, (run, want) in executors(graph, seed, nprocs).items():
            _, ledger = traced(run)
            with delivered(order):
                got, reordered = traced(run)
            assert message_multiset(reordered) == message_multiset(ledger), name
            assert np.allclose(got, want, rtol=0.0, atol=1e-10), name
