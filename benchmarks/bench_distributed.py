"""Benchmark of the real message-passing execution (fan-out Cholesky)
on the simulated runtime — correlates real message counts with the
machine-model traffic accounting."""

import numpy as np
import pytest

from repro.analysis import render_table
from repro.core import wrap_mapping
from repro.mpsim import distributed_cholesky
from repro.numeric import sparse_cholesky
from repro.ordering import multiple_minimum_degree
from repro.sparse import load, spd_from_graph
from repro.symbolic import symbolic_cholesky


@pytest.fixture(scope="module")
def dwt_system():
    g = load("DWT512")
    perm = multiple_minimum_degree(g)
    a = spd_from_graph(g, seed=17).permute(perm)
    sym = symbolic_cholesky(a.graph())
    return a, sym


def test_report_message_counts(benchmark, dwt_system, write_result):
    a, sym = dwt_system
    from repro.analysis.experiments import prepared_matrix
    from repro.mpsim import distributed_cholesky_fanin

    prep = prepared_matrix("DWT512")

    def run():
        rows = []
        for p in (2, 4, 8):
            proc_of_col = np.arange(a.n) % p
            _, stats = distributed_cholesky(
                a, sym.pattern, proc_of_col, p
            )
            _, stats_in = distributed_cholesky_fanin(
                a, sym.pattern, proc_of_col, p
            )
            msgs = sum(s.messages_sent for s in stats)
            msgs_in = sum(s.messages_sent for s in stats_in)
            nbytes = sum(s.bytes_sent for s in stats)
            model = wrap_mapping(prep, p).traffic.total
            rows.append([p, msgs, msgs_in, nbytes, model])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    write_result(
        "distributed_messages.txt",
        render_table(
            ["P", "fan-out msgs", "fan-in msgs", "fan-out bytes",
             "model traffic (elements)"],
            rows,
            "Distributed Cholesky on mpsim vs machine-model traffic "
            "(DWT512, wrap)",
        ),
    )
    msgs = [r[1] for r in rows]
    model = [r[4] for r in rows]
    assert msgs == sorted(msgs)
    assert model == sorted(model)
    for r in rows:
        assert r[2] <= r[1]  # fan-in aggregates into fewer messages


@pytest.mark.parametrize("nprocs", [2, 4])
def test_bench_distributed_cholesky(benchmark, dwt_system, nprocs):
    a, sym = dwt_system
    Lref = sparse_cholesky(a, sym)
    proc_of_col = np.arange(a.n) % nprocs

    def run():
        L, _ = distributed_cholesky(a, sym.pattern, proc_of_col, nprocs)
        return L

    L = benchmark.pedantic(run, rounds=2, iterations=1)
    assert np.allclose(L.values, Lref.values, atol=1e-10)
