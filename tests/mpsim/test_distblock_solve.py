"""Distributed triangular solves under element ownership."""

import numpy as np
import pytest

from repro.core import block_mapping, prepare
from repro.mpsim import (
    distributed_backward_solve,
    distributed_block_backward_solve,
    distributed_block_cholesky,
    distributed_block_forward_solve,
    distributed_forward_solve,
)
from repro.numeric import sparse_cholesky
from repro.obs import trace as obs
from repro.sparse import LowerCSC, grid9, spd_from_graph

from ..numeric.oracles import solve_lower, solve_lower_transpose


@pytest.fixture(scope="module")
def factored():
    g = grid9(6, 6)
    prep = prepare(g, name="grid9(6,6)")
    a = spd_from_graph(g, seed=12).permute(prep.perm)
    L = sparse_cholesky(a, prep.symbolic)
    r = block_mapping(prep, 4, grain=8)
    return prep, a, L, r


class TestForward:
    def test_matches_sequential_block_owner(self, factored):
        prep, a, L, r = factored
        b = np.arange(L.n, dtype=float) + 1.0
        x = distributed_block_forward_solve(
            L, b, r.assignment.owner_of_element, 4
        )
        assert np.allclose(x, solve_lower(L, b), atol=1e-12)

    def test_random_owner(self, factored):
        prep, a, L, r = factored
        rng = np.random.default_rng(1)
        owner = rng.integers(0, 3, size=L.pattern.nnz)
        b = rng.random(L.n)
        x = distributed_block_forward_solve(L, b, owner, 3)
        assert np.allclose(x, solve_lower(L, b), atol=1e-12)

    def test_single_proc(self, factored):
        prep, a, L, r = factored
        b = np.ones(L.n)
        x = distributed_block_forward_solve(
            L, b, np.zeros(L.pattern.nnz, dtype=int), 1
        )
        assert np.allclose(x, solve_lower(L, b))

    def test_owner_length_checked(self, factored):
        prep, a, L, r = factored
        with pytest.raises(ValueError):
            distributed_block_forward_solve(L, np.ones(L.n), np.zeros(3), 2)


class TestBackward:
    def test_matches_sequential_block_owner(self, factored):
        prep, a, L, r = factored
        b = np.cos(np.arange(L.n, dtype=float))
        x = distributed_block_backward_solve(
            L, b, r.assignment.owner_of_element, 4
        )
        assert np.allclose(x, solve_lower_transpose(L, b), atol=1e-11)

    def test_random_owner(self, factored):
        prep, a, L, r = factored
        rng = np.random.default_rng(2)
        owner = rng.integers(0, 5, size=L.pattern.nnz)
        b = rng.random(L.n)
        x = distributed_block_backward_solve(L, b, owner, 5)
        assert np.allclose(x, solve_lower_transpose(L, b), atol=1e-11)

    def test_owner_length_checked(self, factored):
        prep, a, L, r = factored
        with pytest.raises(ValueError):
            distributed_block_backward_solve(L, np.ones(L.n), np.zeros(3), 2)


class TestFullDistributedBlockSolve:
    def test_factor_then_solve_end_to_end(self, factored):
        """The complete distributed pipeline under the block schedule:
        factorization AND both solves executed element-owner-computes."""
        prep, a, Lref, r = factored
        owner = r.assignment.owner_of_element
        L, _ = distributed_block_cholesky(
            a, r.partition, r.assignment, prep.updates, r.dependencies
        )
        b = np.ones(a.n)
        u = distributed_block_forward_solve(L, b, owner, 4)
        x = distributed_block_backward_solve(L, u, owner, 4)
        assert np.abs(a.matvec(x) - b).max() < 1e-9


@pytest.mark.parametrize(
    "solve, per_column",
    [
        (distributed_block_forward_solve, False),
        (distributed_block_backward_solve, False),
        (distributed_forward_solve, True),
        (distributed_backward_solve, True),
    ],
)
class TestBadInputIsRefusedBeforeAnyRankStarts:
    """``ValueError`` from the caller's thread, not an ``MPSimError``
    (a ``RuntimeError``) wrapping whatever a rank tripped over."""

    NPROCS = 2

    @staticmethod
    def owners(L, per_column):
        return np.arange(L.n if per_column else L.pattern.nnz) % 2

    @pytest.mark.parametrize("extra", [-1, 3])
    def test_owner_length(self, factored, solve, per_column, extra):
        L = factored[2]
        owners = self.owners(L, per_column)
        owners = np.resize(owners, len(owners) + extra)
        with pytest.raises(ValueError, match="every"):
            solve(L, np.ones(L.n), owners, self.NPROCS)

    @pytest.mark.parametrize("bad", [-1, NPROCS])
    def test_owner_out_of_range(self, factored, solve, per_column, bad):
        L = factored[2]
        owners = self.owners(L, per_column)
        owners[len(owners) // 2] = bad
        with pytest.raises(ValueError, match="out of range"):
            solve(L, np.ones(L.n), owners, self.NPROCS)

    @pytest.mark.parametrize("shape", [lambda n: n + 3, lambda n: n - 1, lambda n: (n, 1)])
    def test_b_shape(self, factored, solve, per_column, shape):
        L = factored[2]
        with pytest.raises(ValueError, match="b must have shape"):
            solve(L, np.ones(shape(L.n)), self.owners(L, per_column), self.NPROCS)

    def test_zero_on_the_diagonal_is_named_by_its_column(self, factored, solve, per_column):
        L = factored[2]
        values = L.values.copy()
        values[L.pattern.indptr[[7, 20]]] = 0.0
        with pytest.raises(ValueError, match="column 7"):
            solve(
                LowerCSC(L.pattern, values), np.ones(L.n),
                self.owners(L, per_column), self.NPROCS,
            )


def test_traced_solves_are_recorded_under_their_own_names(factored):
    L = factored[2]
    proc_of_col = np.arange(L.n) % 2
    with obs.enabled() as rec:
        u = distributed_forward_solve(L, np.ones(L.n), proc_of_col, 2)
        distributed_backward_solve(L, u, proc_of_col, 2)
    assert [sim.name for sim in rec.sim_runs] == ["forward_solve", "backward_solve"]
