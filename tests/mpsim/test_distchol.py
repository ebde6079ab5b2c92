"""Distributed fan-out Cholesky and triangular solves."""

import numpy as np
import pytest

from repro.core import block_mapping, prepare
from repro.mpsim import (
    distributed_backward_solve,
    distributed_cholesky,
    distributed_forward_solve,
    distributed_solve_spd,
)
from repro.numeric import sparse_cholesky
from repro.ordering import multiple_minimum_degree
from repro.sparse import grid5, grid9, spd_from_graph
from repro.symbolic import symbolic_cholesky

from ..numeric.oracles import solve_lower, solve_lower_transpose


@pytest.fixture(scope="module")
def system():
    """Permuted SPD system with its symbolic factor and reference L."""
    g = grid9(6, 6)
    perm = multiple_minimum_degree(g)
    a = spd_from_graph(g, seed=8).permute(perm)
    sym = symbolic_cholesky(a.graph())
    Lref = sparse_cholesky(a, sym)
    return a, sym, Lref


class TestDistributedCholesky:
    @pytest.mark.parametrize("nprocs", [1, 2, 4, 7])
    def test_wrap_mapping_matches_sequential(self, system, nprocs):
        a, sym, Lref = system
        proc_of_col = np.arange(a.n) % nprocs
        L, _ = distributed_cholesky(a, sym.pattern, proc_of_col, nprocs)
        assert np.allclose(L.values, Lref.values, atol=1e-12)

    def test_block_derived_column_mapping(self, system):
        """Columns mapped by the block scheduler's diagonal owners."""
        a, sym, Lref = system
        prep = prepare(a.graph(), ordering="natural")
        r = block_mapping(prep, 4, grain=4, min_width=2)
        diag_eids = sym.pattern.indptr[:-1]
        proc_of_col = r.assignment.owner_of_element[diag_eids]
        L, _ = distributed_cholesky(a, sym.pattern, proc_of_col, 4)
        assert np.allclose(L.values, Lref.values, atol=1e-12)

    def test_random_column_mapping(self, system):
        a, sym, Lref = system
        rng = np.random.default_rng(4)
        proc_of_col = rng.integers(0, 3, size=a.n)
        L, _ = distributed_cholesky(a, sym.pattern, proc_of_col, 3)
        assert np.allclose(L.values, Lref.values, atol=1e-12)

    def test_stats_returned(self, system):
        a, sym, _ = system
        proc_of_col = np.arange(a.n) % 2
        _, stats = distributed_cholesky(a, sym.pattern, proc_of_col, 2)
        assert len(stats) == 2
        assert all(s.messages_sent >= 0 for s in stats)
        # With 2 ranks there is real column exchange.
        assert sum(s.messages_sent for s in stats) > 0

    def test_single_proc_no_column_messages(self, system):
        a, sym, _ = system
        _, stats = distributed_cholesky(a, sym.pattern, np.zeros(a.n, dtype=int), 1)
        # Only the final gather (a self-gather has no sends).
        assert stats[0].messages_sent == 0

    def test_validates_mapping(self, system):
        a, sym, _ = system
        with pytest.raises(ValueError):
            distributed_cholesky(a, sym.pattern, np.zeros(3, dtype=int), 2)
        with pytest.raises(ValueError):
            distributed_cholesky(a, sym.pattern, np.full(a.n, 5, dtype=int), 2)


class TestDistributedSolves:
    def test_forward(self, system):
        _, _, Lref = system
        b = np.arange(Lref.n, dtype=float) + 1.0
        proc_of_col = np.arange(Lref.n) % 3
        x = distributed_forward_solve(Lref, b, proc_of_col, 3)
        assert np.allclose(x, solve_lower(Lref, b), atol=1e-12)

    def test_backward(self, system):
        _, _, Lref = system
        b = np.sin(np.arange(Lref.n, dtype=float))
        proc_of_col = np.arange(Lref.n) % 3
        x = distributed_backward_solve(Lref, b, proc_of_col, 3)
        assert np.allclose(x, solve_lower_transpose(Lref, b), atol=1e-10)

    @pytest.mark.parametrize("nprocs", [1, 2, 5])
    def test_full_solve(self, system, nprocs):
        a, sym, _ = system
        b = np.ones(a.n)
        proc_of_col = np.arange(a.n) % nprocs
        x = distributed_solve_spd(a, b, sym.pattern, proc_of_col, nprocs)
        assert np.allclose(a.to_dense() @ x, b, atol=1e-8)

    def test_small_path_system(self):
        g = grid5(4, 1)  # a path: strictly sequential dependencies
        a = spd_from_graph(g, seed=1)
        sym = symbolic_cholesky(a.graph())
        b = np.ones(a.n)
        x = distributed_solve_spd(a, b, sym.pattern, np.arange(a.n) % 2, 2)
        assert np.allclose(a.to_dense() @ x, b, atol=1e-10)
