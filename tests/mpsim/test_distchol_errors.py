"""Error handling in the distributed factorizations."""

import time

import numpy as np
import pytest

from repro.core import block_mapping, prepare
from repro.mpsim import (
    MPSimError,
    distributed_block_cholesky,
    distributed_cholesky,
    distributed_cholesky_fanin,
)
from repro.sparse import SymmetricCSC, grid5, grid9, spd_from_graph
from repro.symbolic import symbolic_cholesky

COLUMN_EXECUTORS = [distributed_cholesky, distributed_cholesky_fanin]


def _rank1_pivot_fails_at_once(factor):
    """A non-positive pivot on rank 1 fails the whole run at once and
    under its own name; rank 0, waiting for a message, is not resumed."""
    a = SymmetricCSC.from_entries(
        3, [0, 1, 1, 2], [0, 0, 1, 1], [1.0, 2.0, 1.0, 0.3]
    )
    sym = symbolic_cholesky(a.graph())
    start = time.perf_counter()
    with pytest.raises(MPSimError, match="rank 1 failed.*pivot"):
        factor(a, sym.pattern, np.arange(3) % 2, 2)
    assert time.perf_counter() - start < 1.0


class TestFanOutErrors:
    def test_indefinite_detected(self):
        a = SymmetricCSC.from_entries(2, [0, 1, 1], [0, 0, 1], [1.0, 2.0, 1.0])
        sym = symbolic_cholesky(a.graph())
        with pytest.raises(MPSimError, match="pivot"):
            distributed_cholesky(
                a, sym.pattern, np.zeros(2, dtype=int), 1
            )

    def test_indefinite_detected_multirank(self):
        _rank1_pivot_fails_at_once(distributed_cholesky)

    def test_indefinite_detected_multirank_fanin(self):
        _rank1_pivot_fails_at_once(distributed_cholesky_fanin)

    def test_pattern_mismatch_detected(self):
        a = spd_from_graph(grid5(3, 3), seed=1)
        sym = symbolic_cholesky(spd_from_graph(grid5(2, 2), seed=1).graph())
        with pytest.raises(ValueError, match="order"):
            distributed_cholesky(
                a, sym.pattern, np.zeros(a.n, dtype=int), 1
            )

    @pytest.mark.parametrize("factor", COLUMN_EXECUTORS)
    def test_entry_outside_the_pattern_is_named(self, factor):
        """Same order, but A stores an entry the factor pattern lacks:
        the first such (row, col) is named before any rank starts."""
        sym = symbolic_cholesky(spd_from_graph(grid5(3, 3), seed=1).graph())
        a = SymmetricCSC.from_entries(
            9, [*range(9), 4, 8], [*range(9), 1, 0], [4.0] * 9 + [1.0, 1.0]
        )
        assert sym.pattern.to_dense_bool()[4, 1] and not sym.pattern.to_dense_bool()[8, 0]
        with pytest.raises(ValueError, match=r"A\[8, 0\] is not in the factor pattern"):
            factor(a, sym.pattern, np.arange(9) % 2, 2)


class TestBlockErrors:
    @pytest.fixture(scope="class")
    def system(self):
        g = grid9(5, 5)
        prep = prepare(g, name="grid9(5,5)")
        a = spd_from_graph(g, seed=3).permute(prep.perm)
        return prep, a, block_mapping(prep, 3, grain=4)

    @pytest.mark.parametrize("rank", [0, 1, 2])
    def test_indefinite_detected_on_any_rank(self, system, rank):
        prep, a, r = system
        diagonals = prep.pattern.indptr[:-1]
        column = int(np.flatnonzero(r.assignment.owner_of_element[diagonals] == rank)[-1])
        values = a.values.copy()
        values[a.pattern.indptr[column]] = -1.0
        start = time.perf_counter()
        with pytest.raises(MPSimError, match=f"rank {rank} failed.*pivot"):
            distributed_block_cholesky(
                SymmetricCSC(a.pattern, values), r.partition, r.assignment,
                prep.updates, r.dependencies
            )
        assert time.perf_counter() - start < 1.0

    def test_entry_outside_the_pattern_is_named(self, system):
        prep, _, r = system
        n = prep.pattern.n
        missing = np.argwhere(~prep.pattern.to_dense_bool() & np.tri(n, dtype=bool))
        row, col = (int(v) for v in missing[0])
        a = SymmetricCSC.from_entries(
            n, [*range(n), row], [*range(n), col], [4.0] * n + [1.0]
        )
        with pytest.raises(ValueError, match=rf"A\[{row}, {col}\] is not in the factor"):
            distributed_block_cholesky(
                a, r.partition, r.assignment, prep.updates, r.dependencies
            )

    def test_value_that_never_arrived_raises(self, system):
        """Dependencies that do not cover the updates (one cross-processor
        edge removed) must not yield a factor: the consumer computes from
        a NaN and says so."""
        from repro.core.dependencies import DependencyInfo

        prep, a, r = system
        deps = r.dependencies
        proc = r.assignment.proc_of_unit
        crossing = np.flatnonzero(proc[deps.edges[:, 0]] != proc[deps.edges[:, 1]])
        # Drop every edge out of one source unit into one processor, so the
        # unit is not shipped there at all.
        s, t = deps.edges[crossing[0]]
        drop = (deps.edges[:, 0] == s) & (proc[deps.edges[:, 1]] == proc[t])
        broken = DependencyInfo(r.partition, deps.edges[~drop], prep.updates, True)
        with pytest.raises(MPSimError, match="never arrived"):
            distributed_block_cholesky(
                a, r.partition, r.assignment, prep.updates, broken
            )

    def test_updates_of_another_structure_are_refused(self, system):
        prep, a, r = system
        other = prepare(grid9(6, 6), name="grid9(6,6)").updates
        with pytest.raises(ValueError, match="updates were enumerated for another factor"):
            distributed_block_cholesky(a, r.partition, r.assignment, other, r.dependencies)

    def test_dependencies_of_another_partition_are_refused(self, system):
        """Same matrix, another grain: the units differ, so the edges name
        units this partition does not have."""
        prep, a, r = system
        other = block_mapping(prep, 3, grain=25)
        assert other.partition.num_units != r.partition.num_units
        with pytest.raises(ValueError, match="dependencies were analysed for another partition"):
            distributed_block_cholesky(
                a, r.partition, r.assignment, prep.updates, other.dependencies
            )
