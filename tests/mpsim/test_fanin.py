"""Fan-in distributed Cholesky."""

import numpy as np
import pytest

from repro.mpsim import distributed_cholesky, distributed_cholesky_fanin
from repro.numeric import sparse_cholesky
from repro.ordering import multiple_minimum_degree
from repro.sparse import grid5, grid9, spd_from_graph
from repro.symbolic import symbolic_cholesky


@pytest.fixture(scope="module")
def system():
    g = grid9(6, 6)
    perm = multiple_minimum_degree(g)
    a = spd_from_graph(g, seed=5).permute(perm)
    sym = symbolic_cholesky(a.graph())
    return a, sym, sparse_cholesky(a, sym)


class TestFanIn:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 6])
    def test_matches_sequential(self, system, nprocs):
        a, sym, Lref = system
        proc_of_col = np.arange(a.n) % nprocs
        L, _ = distributed_cholesky_fanin(a, sym.pattern, proc_of_col, nprocs)
        assert np.allclose(L.values, Lref.values, atol=1e-12)

    def test_random_mapping(self, system):
        a, sym, Lref = system
        rng = np.random.default_rng(7)
        proc_of_col = rng.integers(0, 3, size=a.n)
        L, _ = distributed_cholesky_fanin(a, sym.pattern, proc_of_col, 3)
        assert np.allclose(L.values, Lref.values, atol=1e-12)

    def test_fewer_messages_than_fanout(self, system):
        """The classic fan-in result: aggregation sends fewer messages."""
        a, sym, _ = system
        proc_of_col = np.arange(a.n) % 4
        _, s_in = distributed_cholesky_fanin(a, sym.pattern, proc_of_col, 4)
        _, s_out = distributed_cholesky(a, sym.pattern, proc_of_col, 4)
        msgs_in = sum(s.messages_sent for s in s_in)
        msgs_out = sum(s.messages_sent for s in s_out)
        assert msgs_in < msgs_out

    def test_single_proc_silent(self, system):
        a, sym, _ = system
        _, stats = distributed_cholesky_fanin(
            a, sym.pattern, np.zeros(a.n, dtype=int), 1
        )
        assert stats[0].messages_sent == 0

    def test_path_matrix(self):
        """A path (pure sequential chain) still terminates and is exact."""
        g = grid5(6, 1)
        a = spd_from_graph(g, seed=3)
        sym = symbolic_cholesky(a.graph())
        Lref = sparse_cholesky(a, sym)
        L, _ = distributed_cholesky_fanin(
            a, sym.pattern, np.arange(a.n) % 3, 3
        )
        assert np.allclose(L.values, Lref.values)

    def test_validates_mapping(self, system):
        a, sym, _ = system
        with pytest.raises(ValueError):
            distributed_cholesky_fanin(a, sym.pattern, np.zeros(2, dtype=int), 2)
        with pytest.raises(ValueError):
            distributed_cholesky_fanin(
                a, sym.pattern, np.full(a.n, -1, dtype=int), 2
            )

    def test_indefinite_detected(self):
        from repro.mpsim import MPSimError
        from repro.sparse import SymmetricCSC

        a = SymmetricCSC.from_entries(2, [0, 1, 1], [0, 0, 1], [1.0, 2.0, 1.0])
        sym = symbolic_cholesky(a.graph())
        with pytest.raises(MPSimError, match="pivot"):
            distributed_cholesky_fanin(
                a, sym.pattern, np.zeros(2, dtype=int), 1
            )
