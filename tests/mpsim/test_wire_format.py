"""Wire-format pins for the three numeric executors.

The message and byte totals of the ``execute`` workload of the end-to-end
benchmark are read from ``benchmarks/e2e/golden.json`` (not copied), so
a change of tags, grouping or payloads fails here, in tier-1, and not
only when the benchmark is run.  The set-up repeats
``benchmarks/e2e/workloads.py::Execute``: values ``spd_from_graph(g, 0)``
permuted by the MMD order, two ranks, ``proc_of_col = j mod 2``,
``block_mapping(P=2, grain=25)``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import block_mapping, prepare
from repro.mpsim import (
    distributed_block_cholesky,
    distributed_cholesky,
    distributed_cholesky_fanin,
)
from repro.obs import trace as obs
from repro.sparse import grid9, load, spd_from_graph

GOLDEN = Path(__file__).parents[2] / "benchmarks" / "e2e" / "golden.json"
NPROCS = 2


def executors(graph):
    prep = prepare(graph, name="execute")
    a = spd_from_graph(graph, 0).permute(prep.perm)
    owners = np.arange(a.n) % NPROCS
    block = block_mapping(prep, NPROCS, grain=25)
    return {
        "mpsim.fanout": lambda: distributed_cholesky(a, prep.pattern, owners, NPROCS),
        "mpsim.fanin": lambda: distributed_cholesky_fanin(a, prep.pattern, owners, NPROCS),
        "mpsim.block": lambda: distributed_block_cholesky(
            a, block.partition, block.assignment, prep.updates, block.dependencies
        ),
    }


@pytest.mark.parametrize(
    "profile, graph", [("full", lambda: load("LAP30")), ("smoke", lambda: grid9(8, 8))]
)
def test_messages_and_bytes_equal_the_benchmark_golden(profile, graph):
    golden = json.loads(GOLDEN.read_text())[profile]["execute"]
    for layer, run in executors(graph()).items():
        _, stats = run()
        got = {
            "messages": sum(s.messages_sent for s in stats),
            "bytes": sum(s.bytes_sent for s in stats),
        }
        assert got == golden[layer], layer


@pytest.mark.parametrize("layer", ["mpsim.fanout", "mpsim.fanin", "mpsim.block"])
def test_traced_run_has_one_delivered_ledger_row_per_message(layer):
    run = executors(grid9(8, 8))[layer]
    with obs.enabled() as rec:
        _, stats = run()
    (sim,) = rec.sim_runs
    assert sim.name == layer.removeprefix("mpsim.")
    assert sim.clock == "lamport" and sim.nprocs == NPROCS
    messages = sim.messages
    # The block executor reports its counters as of before the result
    # gather; the ledger (like the other two executors' counters) also
    # holds the gather's one message per non-root rank.
    gather = NPROCS - 1 if layer == "mpsim.block" else 0
    assert len(messages) == sum(s.messages_sent for s in stats) + gather
    assert int(messages.nbytes.sum()) >= sum(s.bytes_sent for s in stats)
    assert not np.isnan(messages.recv).any()
    assert (messages.recv > messages.send).all()
    assert rec.counters["mpsim.messages_sent"] == len(messages)
    assert rec.counters["mpsim.messages_received"] == len(messages)
    assert rec.counters["mpsim.bytes_sent"] == int(sim.messages.nbytes.sum())
