"""The symbolic entry points read a graph as an edge set.

``SymmetricGraph(n, indptr, indices)`` checks lengths only, so a
hand-built graph may list a row's neighbours in any order, store an
entry in one triangle only, or hold an index outside ``0 .. n-1``.
Every entry point takes its lower adjacency through
``SymmetricGraph.lower_adjacency``: the first two change nothing, the
third is a ``ValueError`` that names the index — and a ``perm`` that is
not a permutation is refused, never coerced.
"""

import numpy as np
import pytest

from repro.sparse.pattern import SymmetricGraph
from repro.symbolic import (
    column_counts,
    etree,
    factor_nnz,
    symbolic_cholesky,
    tree_stats,
)

ENTRY_POINTS = [etree, column_counts, factor_nnz, tree_stats, symbolic_cholesky]

#: The tree 0-2, 1-2, 2-3, well formed.
TREE = SymmetricGraph.from_edges(4, [0, 1, 2], [2, 2, 3])
#: The same tree with row 2 listed as [3, 0, 1].
ROW_UNSORTED = SymmetricGraph(4, np.array([0, 1, 2, 5, 6]), np.array([2, 2, 3, 0, 1, 2]))
#: The same tree with 2 -> 0 stored but not 0 -> 2.
ONE_DIRECTION = SymmetricGraph(4, np.array([0, 0, 1, 4, 5]), np.array([2, 0, 1, 3, 2]))


@pytest.mark.parametrize("graph", [ROW_UNSORTED, ONE_DIRECTION], ids=["row_unsorted", "one_direction"])
class TestStorageDoesNotMatter:
    def test_tree_and_counts(self, graph):
        assert etree(graph).tolist() == [2, 2, 3, -1]
        assert column_counts(graph).tolist() == [2, 2, 2, 1]
        assert factor_nnz(graph) == 7
        assert tree_stats(graph).height == 3

    def test_factor_with_and_without_identity_perm(self, graph):
        expected = symbolic_cholesky(TREE)
        for perm in (None, np.arange(4)):
            f = symbolic_cholesky(graph, perm)
            assert f.pattern == expected.pattern
            assert f.parent.tolist() == [2, 2, 3, -1]

    def test_under_a_permutation(self, graph):
        perm = np.array([3, 0, 2, 1])
        expected = symbolic_cholesky(TREE, perm)
        f = symbolic_cholesky(graph, perm)
        assert f.pattern == expected.pattern
        np.testing.assert_array_equal(f.parent, expected.parent)
        np.testing.assert_array_equal(etree(graph, perm), expected.parent)
        np.testing.assert_array_equal(column_counts(graph, perm), expected.column_counts())


@pytest.mark.parametrize("entry_point", ENTRY_POINTS, ids=lambda f: f.__name__)
class TestRefusals:
    @pytest.mark.parametrize("bad", [7, -1])
    def test_out_of_range_neighbour_is_named(self, entry_point, bad):
        g = SymmetricGraph(3, np.array([0, 1, 2, 2]), np.array([1, bad]))
        with pytest.raises(ValueError, match=rf"neighbour index {bad} out of range"):
            entry_point(g)

    @pytest.mark.parametrize(
        "perm",
        [[0.5, 1.2, 2.9, 3.0], [True, False, 2, 3], [0, 0, 1, 2], [0, 1, 2], [0, 1, 2, 4]],
        ids=["float", "bool", "repeated", "short", "out_of_range"],
    )
    def test_perm_is_validated_not_coerced(self, entry_point, perm):
        with pytest.raises(ValueError, match="perm is not a permutation"):
            entry_point(TREE, perm)
