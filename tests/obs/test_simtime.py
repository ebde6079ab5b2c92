"""Invariants of the simulated-clock telemetry layer.

The exact-equality assertions are deliberate: the default machine model
(compute=1, α=10, β=1) with integer work gives integer-valued float sim
times, so conservation laws hold bit-for-bit, not approximately.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.analysis.experiments import prepared_matrix
from repro.core.pipeline import block_mapping, wrap_mapping
from repro.machine.simulate import simulate_assignment
from repro.core.traffic import communication_matrix, data_traffic
from repro.obs import trace as obs
from repro.obs.simtime import (
    REASON_MSG,
    REASON_NONE,
    MessageLedger,
    MessageTable,
    SimRun,
    ledger_run,
)
from repro.sparse.harwell_boeing import names as paper_names

SCHEMES = ("wrap", "block")
PROCS = (16, 64)


@pytest.fixture(scope="module", autouse=True)
def _release_experiment_caches():
    """This module fills the unbounded experiment lru caches with every
    bundled matrix × P∈{16, 64}; drop them afterwards so later
    timing-sensitive tests (profiler overhead) run on a normal heap."""
    from repro.analysis import experiments

    yield
    experiments.prepared_matrix.cache_clear()
    experiments._block_result.cache_clear()
    experiments._wrap_result.cache_clear()


def _mapping(prep, scheme: str, nprocs: int):
    if scheme == "block":
        return block_mapping(prep, nprocs, grain=4)
    return wrap_mapping(prep, nprocs)


def _sim(matrix: str, scheme: str, nprocs: int):
    prep = prepared_matrix(matrix)
    res = _mapping(prep, scheme, nprocs)
    deps = res.dependencies if scheme == "block" else None
    timeline, run = simulate_assignment(
        res.assignment, prep.updates, deps=deps, name=matrix
    )
    return prep, res, timeline, run


@pytest.mark.parametrize("matrix", paper_names())
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("nprocs", PROCS)
def test_simtime_invariants(matrix, scheme, nprocs):
    prep, res, timeline, run = _sim(matrix, scheme, nprocs)

    # Message conservation: every machine-model message is delivered,
    # and the ledger total bit-matches the paper's data-traffic metric
    # (same dedup rule: distinct non-local (processor, element) pairs).
    traffic = data_traffic(res.assignment, prep.updates)
    assert all(m.recv is not None for m in run.messages)
    assert run.total_message_bytes() == traffic.total
    per_dst = np.zeros(nprocs, dtype=np.int64)
    for m in run.messages:
        per_dst[m.dst] += m.nbytes
    assert np.array_equal(per_dst, np.asarray(traffic.per_processor))
    assert np.array_equal(
        run.comm_matrix(), communication_matrix(res.assignment, prep.updates)
    )

    # busy + wait + idle == makespan, exactly, on every processor.
    pt = run.proc_times()
    assert np.all(pt.busy + pt.wait + pt.idle == timeline.makespan)

    # The critical path telescopes to the simulated makespan exactly.
    cp = run.critical_path()
    assert cp.length == timeline.makespan
    assert cp.compute + cp.wait == cp.length
    assert len(cp.edges) == len(cp.units) - 1
    # The first unit on the path started unforced.
    assert run.reason_kind[cp.units[0]] == REASON_NONE

    # λ attribution: stage excesses sum to λ · mean work.
    att = run.imbalance()
    total_excess = sum(row["excess"] for row in att.stage_rows)
    assert total_excess == pytest.approx(att.imbalance * att.mean_work)


def test_machine_run_records_into_recorder():
    prep = prepared_matrix("LAP30")
    res = block_mapping(prep, 16, grain=4)
    with obs.enabled() as rec:
        simulate_assignment(
            res.assignment, prep.updates, deps=res.dependencies, name="LAP30"
        )
    assert len(rec.sim_runs) == 1
    run = rec.sim_runs[0]
    assert run.clock == "machine"
    assert run.n_units == len(res.assignment.partition.units)
    assert rec.counters["sim.messages"] == len(run.messages)
    assert rec.counters["sim.message_bytes"] == run.total_message_bytes()


def test_simulate_assignment_wrap_columns():
    prep = prepared_matrix("LAP30")
    res = wrap_mapping(prep, 16)
    _, run = simulate_assignment(res.assignment, prep.updates, name="LAP30")
    assert run.scheme == "wrap"
    assert run.n_units == prep.pattern.n
    assert set(run.kind) == {"column"}
    # Stages are contiguous column strips, at most 32 of them.
    assert len(np.unique(run.stage)) <= 32


def test_to_manifest_roundtrips_json():
    import json

    _, _, _, run = _sim("LAP30", "block", 16)
    doc = run.to_manifest()
    text = json.dumps(doc)
    back = json.loads(text)
    assert back["message_bytes"] == run.total_message_bytes()
    assert back["critical_path"]["length"] == run.makespan
    assert len(back["comm_matrix"]) == run.nprocs


def test_message_ledger_lamport_clock():
    led = MessageLedger(3)
    a = led.on_send(0, 1, 100, cause=7)
    b = led.on_send(1, 2, 50, cause=8)
    led.on_recv(a)
    led.on_recv(b)
    msgs = led.messages
    assert [m.nbytes for m in msgs] == [100, 50]
    # Delivery happens strictly after the send on the lamport clock.
    assert all(m.recv > m.send for m in msgs)
    assert led.undelivered() == 0
    c = led.on_send(2, 0, 9)
    assert led.undelivered() == 1
    run = led.to_sim_run(name="test")
    assert run.clock == "lamport"
    assert run.total_message_bytes() == 159
    # Ledger-only runs refuse the unit-level analyses.
    with pytest.raises(ValueError, match="message ledger"):
        run.critical_path()
    del c


def test_mpsim_run_parallel_ledger():
    """A 4-rank ring run in parallel on the stepper records one Lamport
    ledger: the ring's messages, then the result gather's."""
    from repro.mpsim.engine import gather_on_ranks, run_tasks

    def ring(end):
        end.send((end.rank,), (end.rank + 1) % 4, 5)
        got = []
        yield from run_tasks([], 0, 1, None, lambda src: got.append(src) or [])
        return {end.rank: float(got[0])}, None

    with obs.enabled() as rec:
        values, _ = gather_on_ranks(ring, 4, 4, "ring")
    assert values.tolist() == [3.0, 0.0, 1.0, 2.0]
    (run,) = rec.sim_runs
    assert run.clock == "lamport"
    assert run.name == "ring"
    assert isinstance(run.messages, MessageTable)
    # Each rank talks to its successor, then the result gather to rank 0.
    assert [(m.src, m.dst) for m in run.messages] == [
        (0, 1), (1, 2), (2, 3), (3, 0), (1, 0), (2, 0), (3, 0)
    ]
    assert (run.messages.recv > run.messages.send).all()


def test_a_failed_mpsim_run_still_records_its_ledger():
    from repro.core import prepare
    from repro.mpsim import MPSimError, distributed_cholesky
    from repro.mpsim.engine import Endpoint
    from repro.sparse import grid9, spd_from_graph

    g = grid9(6, 6)
    prep = prepare(g, name="grid9(6,6)")
    a = spd_from_graph(g, seed=1).permute(prep.perm)
    send, lost = Endpoint.send, []

    def lossy(end, obj, dest, tag):
        send(end, obj, dest, tag)  # stamped in the ledger, then lost
        if not lost:
            lost.append(end._mailboxes[dest].pop())

    with obs.enabled() as rec, mock.patch.object(Endpoint, "send", lossy):
        with pytest.raises(MPSimError, match="stalled"):
            distributed_cholesky(a, prep.pattern, np.arange(a.n) % 2, 2)
    (run,) = rec.sim_runs
    assert run.name == "fanout" and run.clock == "lamport"
    assert np.isnan(run.messages.recv).sum() == 1


def test_explain_run_end_to_end():
    from repro.analysis.explain import explain_manifest, explain_run, render_explain

    result = explain_run("LAP30", scheme="wrap", nprocs=16)
    doc = explain_manifest(result)
    assert doc["message_bytes"] == doc["traffic_total"]
    assert doc["critical_path"]["length"] == doc["makespan"]
    text = render_explain(result)
    assert "critical path" in text
    assert "LAP30" in text


def test_critical_path_message_edges_are_cross_processor():
    _, res, _, run = _sim("LAP30", "block", 16)
    cp = run.critical_path()
    for i, edge in enumerate(cp.edges):
        a, b = cp.units[i], cp.units[i + 1]
        if edge == "message":
            assert run.proc[a] != run.proc[b]
        elif edge == "local-dep":
            assert run.proc[a] == run.proc[b]
    assert REASON_MSG in run.reason_kind  # cross-processor waits exist


def test_ledger_run_empty_units():
    run = ledger_run("x", "mpsim", 2, 5.0, [])
    assert isinstance(run, SimRun)
    assert run.n_units == 0
    assert run.total_message_bytes() == 0
    assert run.comm_matrix().shape == (2, 2)


def test_busy_grid_matches_the_per_unit_slice_fill():
    """The difference-array raster against the loop it replaced, on
    intervals that include zero durations, shared cells, exact cell
    boundaries and finishes past the makespan (clipped like a slice)."""
    from repro.obs.simtime import busy_grid

    rng = np.random.default_rng(5)
    for nprocs, width, n in [(1, 10, 0), (3, 40, 60), (16, 72, 500), (5, 7, 90)]:
        makespan = 100.0
        start = rng.integers(0, 100, size=n).astype(np.float64)
        start[::3] += rng.random(len(start[::3]))
        finish = start + rng.integers(0, 30, size=n) * rng.integers(0, 2, size=n)
        proc = rng.integers(0, nprocs, size=n)
        want = np.zeros((nprocs, width), dtype=bool)
        scale = width / makespan
        for u in range(n):
            a = int(start[u] * scale)
            b = int(np.ceil(finish[u] * scale))
            want[proc[u], a: max(b, a + (finish[u] > start[u]))] = True
        got = busy_grid(start, finish, proc, nprocs, width, makespan)
        assert got.dtype == np.bool_ and got.shape == (nprocs, width)
        assert np.array_equal(got, want)
    assert not busy_grid([0.0], [1.0], [0], 2, 8, 0.0).any()
