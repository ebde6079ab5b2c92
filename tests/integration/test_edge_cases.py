"""Edge cases through the whole pipeline."""

import numpy as np
import pytest

from repro.core import block_mapping, prepare, wrap_mapping
from repro.sparse import SymmetricGraph, grid5, path_graph, star_graph

from ..core.validators import validate_assignment, validate_partition


class TestTinyProblems:
    def test_single_node(self):
        prep = prepare(SymmetricGraph.empty(1), name="n1")
        r = block_mapping(prep, 4, grain=4)
        assert r.balance.total == 1  # one diagonal scale
        assert r.traffic.total == 0

    def test_two_nodes(self):
        g = path_graph(2)
        prep = prepare(g)
        for scheme in (block_mapping(prep, 2, grain=1), wrap_mapping(prep, 2)):
            assert scheme.balance.total == prep.total_work

    def test_diagonal_matrix(self):
        """No off-diagonal structure: every scheme is trivially balanced
        and communication-free."""
        prep = prepare(SymmetricGraph.empty(10))
        for p in (1, 3, 10, 20):
            b = block_mapping(prep, p, grain=4)
            assert b.traffic.total == 0
            w = wrap_mapping(prep, p)
            assert w.traffic.total == 0

    def test_star_graph(self):
        prep = prepare(star_graph(9))
        r = block_mapping(prep, 4, grain=2)
        validate_partition(r.partition)
        validate_assignment(r.assignment)

    def test_disconnected_components(self):
        g = SymmetricGraph.from_edges(8, [0, 1, 4, 5], [1, 2, 5, 6])
        prep = prepare(g)
        r = block_mapping(prep, 3, grain=2)
        assert r.balance.total == prep.total_work


class TestExtremeParameters:
    def test_more_procs_than_units(self, prepared_grid):
        r = block_mapping(prepared_grid, 1000, grain=10_000)
        assert r.balance.total == prepared_grid.total_work
        # Most processors idle; λ is huge but finite.
        assert r.balance.imbalance > 10

    def test_grain_larger_than_matrix(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=10**9)
        # Every dense block a single unit.
        from repro.core.blocks import BlockKind

        for c in r.partition.clusters:
            units = r.partition.units_of_cluster(c.index)
            if not c.is_column:
                tri_units = [
                    u for u in units if u.parent_kind is BlockKind.TRIANGLE
                ]
                assert len(tri_units) == 1

    def test_min_width_one_behaves(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4, min_width=1)
        validate_partition(r.partition)

    def test_huge_min_width_all_columns(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4, min_width=10**6)
        assert all(c.is_column for c in r.partition.clusters)

    def test_wrap_procs_exceed_columns(self):
        prep = prepare(grid5(3, 3))
        r = wrap_mapping(prep, 100)
        assert r.balance.total == prep.total_work
        # Processors beyond n get zero work.
        per_proc_nonzero = int((np.asarray(
            [len(r.assignment.elements_of(p)) for p in range(100)]
        ) > 0).sum())
        assert per_proc_nonzero <= 9


class TestNumericEdgeCases:
    def test_prepare_on_permuted_input_consistent(self):
        """prepare() must produce the same factor size regardless of the
        input labelling (MMD is label-dependent only via tie-breaks)."""
        g = grid5(6, 6)
        prep1 = prepare(g)
        relabel = np.random.default_rng(0).permutation(g.n)
        prep2 = prepare(g.permute(relabel))
        # Different tie-breaking may shift fill slightly; sizes must be
        # within a few percent.
        assert abs(prep1.factor_nnz - prep2.factor_nnz) < 0.15 * prep1.factor_nnz

    def test_pipeline_deterministic_across_calls(self, prepared_lap30):
        a = block_mapping(prepared_lap30, 16, grain=25)
        b = block_mapping(prepared_lap30, 16, grain=25)
        assert a.traffic.per_processor.tolist() == b.traffic.per_processor.tolist()
