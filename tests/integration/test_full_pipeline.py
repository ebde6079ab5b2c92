"""End-to-end integration: structure -> ordering -> symbolic -> partition
-> schedule -> numeric execution on the message-passing substrate."""

import numpy as np
import pytest

from repro.core import block_mapping, prepare
from repro.mpsim import distributed_cholesky, distributed_solve_spd
from repro.numeric import SPDSolver, sparse_cholesky
from repro.ordering import multiple_minimum_degree
from repro.sparse import load, spd_from_graph
from repro.symbolic import symbolic_cholesky


class TestNumericalEndToEnd:
    def test_dwt512_full_solve(self):
        """The complete paper pipeline on a real test matrix, executed
        numerically and distributed."""
        g = load("DWT512")
        a = spd_from_graph(g, seed=42)
        solver = SPDSolver.factorize(a, ordering="mmd")
        b = np.ones(a.n)
        x = solver.solve(b)
        assert np.abs(a.matvec(x) - b).max() < 1e-8

    def test_distributed_matches_sequential_on_paper_matrix(self):
        g = load("DWT512")
        perm = multiple_minimum_degree(g)
        a = spd_from_graph(g, seed=1).permute(perm)
        sym = symbolic_cholesky(a.graph())
        Lref = sparse_cholesky(a, sym)
        proc_of_col = np.arange(a.n) % 4
        L, stats = distributed_cholesky(a, sym.pattern, proc_of_col, 4)
        assert np.allclose(L.values, Lref.values, atol=1e-10)
        assert sum(s.messages_sent for s in stats) > 0

    def test_block_schedule_executes_numerically(self):
        """Columns placed by the block scheduler's diagonal ownership run
        to the same factor as the sequential code."""
        g = load("DWT512")
        prep = prepare(g, name="DWT512")
        r = block_mapping(prep, 4, grain=25)
        a = spd_from_graph(g, seed=3).permute(prep.perm)
        pattern = prep.pattern
        proc_of_col = r.assignment.owner_of_element[pattern.indptr[:-1]]
        b = np.arange(a.n, dtype=float)
        x = distributed_solve_spd(a, b, pattern, proc_of_col, 4)
        assert np.abs(a.matvec(x) - b).max() < 1e-7

    def test_message_traffic_correlates_with_model(self):
        """More model traffic (wrap on more procs) must mean more real
        messages in the fan-out execution."""
        g = load("DWT512")
        perm = multiple_minimum_degree(g)
        a = spd_from_graph(g, seed=2).permute(perm)
        sym = symbolic_cholesky(a.graph())
        msgs = {}
        for p in (2, 8):
            _, stats = distributed_cholesky(
                a, sym.pattern, np.arange(a.n) % p, p
            )
            msgs[p] = sum(s.messages_sent for s in stats)
        assert msgs[8] > msgs[2]


class TestStructuralConsistency:
    @pytest.mark.parametrize("name", ["BUS1138", "LAP30"])
    def test_partition_covers_factor(self, name):
        prep = prepare(load(name), name=name)
        r = block_mapping(prep, 8, grain=4)
        r.partition.check_exact_cover()

    def test_deterministic_end_to_end(self):
        prep1 = prepare(load("LSHP1009"), name="LSHP1009")
        prep2 = prepare(load("LSHP1009"), name="LSHP1009")
        r1 = block_mapping(prep1, 16, grain=25)
        r2 = block_mapping(prep2, 16, grain=25)
        assert r1.traffic.total == r2.traffic.total
        assert r1.balance.imbalance == r2.balance.imbalance
