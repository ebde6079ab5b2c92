"""Real execution of the block schedule: messages vs model traffic.

Runs the partitioner/scheduler output as an owner-computes dataflow
program on the message-passing runtime and compares the real message and
byte counts across grain sizes with the machine model's element-traffic
figures — the communication side of Tables 2/3, observed live.
"""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.core import block_mapping, prepare
from repro.mpsim import distributed_block_cholesky
from repro.numeric import sparse_cholesky
from repro.sparse import load, spd_from_graph


@pytest.fixture(scope="module")
def lap():
    g = load("LAP30")
    prep = prepare(g, name="LAP30")
    a = spd_from_graph(g, seed=33).permute(prep.perm)
    Lref = sparse_cholesky(a, prep.symbolic)
    return prep, a, Lref


def test_report_block_execution(benchmark, lap, write_result):
    prep, a, Lref = lap

    def run():
        rows = []
        for grain in (4, 25, 100):
            r = block_mapping(prep, 4, grain=grain)
            L, stats = distributed_block_cholesky(
                a, r.partition, r.assignment, prep.updates, r.dependencies
            )
            assert np.allclose(L.values, Lref.values, atol=1e-10)
            rows.append(
                [
                    grain,
                    r.partition.num_units,
                    sum(s.messages_sent for s in stats),
                    sum(s.bytes_sent for s in stats),
                    r.traffic.total,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "block_execution.txt",
        render_table(
            ["grain", "units", "real messages", "real bytes",
             "model traffic (elements)"],
            rows,
            "Block schedule executed on mpsim (LAP30, P=4) — verified "
            "against the sequential factor",
        ),
    )
    msgs = [r[2] for r in rows]
    assert msgs == sorted(msgs, reverse=True)  # coarser -> fewer messages


def test_bench_block_execution(benchmark, lap):
    prep, a, Lref = lap
    r = block_mapping(prep, 4, grain=25)

    def run():
        L, _ = distributed_block_cholesky(
            a, r.partition, r.assignment, prep.updates, r.dependencies
        )
        return L

    L = benchmark.pedantic(run, rounds=2, iterations=1)
    assert np.allclose(L.values, Lref.values, atol=1e-10)
