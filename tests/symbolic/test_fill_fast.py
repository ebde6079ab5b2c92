"""The up-looking symbolic factorization and the GNP column counts
against oracles that are not ``repro.symbolic``.

:func:`symbolic_cholesky` reads the permuted lower adjacency once and
builds the elimination tree and the structure of L in the same row walk;
it must be array-for-array what the per-column merge oracle
(``oracles.merge_oracle``) and the dense brute force of ``conftest``
produce, on the bundled matrices (whose structure hashes were written at
the last counts-presized commit), on generated graphs however their rows
are stored, and on the shapes a fused walk gets wrong first.
:func:`column_counts` must equal the row-subtree traversal it short-cuts.
"""

import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import prepare
from repro.ordering import multiple_minimum_degree
from repro.sparse import band_graph, grid9, load, path_graph, social_graph, star_graph
from repro.sparse import harwell_boeing as hb
from repro.sparse.pattern import SymmetricGraph
from repro.symbolic.fill import symbolic_cholesky

from ..conftest import (
    brute_force_etree,
    brute_force_fill,
    generated_graphs,
    random_connected_graph,
)
from .oracles import (
    column_counts,
    etree,
    gnp_column_counts,
    merge_oracle,
    row_walk_counts_oracle,
)


def assert_factor_identical(graph, perm=None, stored=None):
    """``symbolic_cholesky`` of ``stored`` (default: ``graph`` itself)
    equals the merge oracle on the well-formed ``graph``, dtypes included."""
    fast = symbolic_cholesky(graph if stored is None else stored, perm)
    ref = merge_oracle(graph, perm)
    assert fast.pattern == ref.pattern
    np.testing.assert_array_equal(fast.parent, ref.parent)
    np.testing.assert_array_equal(fast.perm, ref.perm)
    assert fast.pattern.indptr.dtype == np.int64
    assert fast.pattern.rowidx.dtype == np.int32
    assert fast.parent.dtype == np.int64 and fast.perm.dtype == np.int64
    return fast


def shuffled_rows(graph: SymmetricGraph, seed: int) -> SymmetricGraph:
    """The same adjacency with every row's neighbours in random order."""
    rng = np.random.default_rng(seed)
    indices = graph.indices.copy()
    for i in range(graph.n):
        rng.shuffle(indices[graph.indptr[i] : graph.indptr[i + 1]])
    return SymmetricGraph(graph.n, graph.indptr, indices)


class TestSymbolicIdentity:
    @pytest.mark.parametrize("name", hb.names())
    def test_paper_matrices(self, name):
        g = hb.load(name)
        assert_factor_identical(g, multiple_minimum_degree(g))

    def test_natural_order(self):
        g = grid9(12, 12)
        assert_factor_identical(g)

    def test_band(self):
        assert_factor_identical(band_graph(300, 17))

    def test_empty(self):
        assert_factor_identical(SymmetricGraph.empty(0))
        assert_factor_identical(SymmetricGraph.empty(7))

    @given(st.integers(1, 40), st.integers(0, 70), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_graphs(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        assert_factor_identical(g)
        assert_factor_identical(g, multiple_minimum_degree(g))

    @given(generated_graphs(), st.sampled_from(["natural", "mmd", "random"]),
           st.integers(0, 2**16))
    @settings(deadline=None)
    def test_generated_graphs_against_dense_and_merge_oracles(self, g, order, seed):
        """Structure and tree equal the dense elimination of
        ``conftest`` and the merge oracle, under no / an MMD / a random
        permutation, with the rows of the input stored shuffled."""
        perm = {
            "natural": None,
            "mmd": multiple_minimum_degree(g),
            "random": np.random.default_rng(seed).permutation(g.n),
        }[order]
        fast = assert_factor_identical(g, perm, stored=shuffled_rows(g, seed))
        dense = (g if perm is None else g.permute(perm)).to_dense_bool()
        np.testing.assert_array_equal(fast.pattern.to_dense_bool(), brute_force_fill(dense))
        np.testing.assert_array_equal(fast.parent, brute_force_etree(np.tril(dense)))
        np.testing.assert_array_equal(etree(shuffled_rows(g, seed), perm), fast.parent)

    @pytest.mark.parametrize("name", hb.names())
    def test_golden_structure_hashes(self, name):
        """sha256 of indptr | rowidx | parent under MMD, written at the
        parent of the up-looking rewrite."""
        golden = json.loads(
            (Path(__file__).parent / "golden_structures.json").read_text()
        )[name]
        g = hb.load(name)
        f = symbolic_cholesky(g, multiple_minimum_degree(g))
        h = hashlib.sha256()
        for a in (f.pattern.indptr, f.pattern.rowidx, f.parent):
            a = np.ascontiguousarray(a, dtype=np.int64)
            h.update(str(a.shape).encode())
            h.update(a.tobytes())
        assert (f.n, f.nnz, h.hexdigest()) == (
            golden["n"], golden["factor_nnz"], golden["structure"]
        )


def _arrowhead(n: int) -> SymmetricGraph:
    """Dense last row/column: every node adjacent to node n - 1."""
    return star_graph(n).permute(np.r_[1:n, 0])


#: name -> (graph, perm, parent, nnz(L)): the shapes a fused tree +
#: structure walk gets wrong first.
NAMED_SHAPES = {
    "n0": (SymmetricGraph.empty(0), None, [], 0),
    "n1": (SymmetricGraph.empty(1), None, [-1], 1),
    "edgeless": (SymmetricGraph.empty(6), None, [-1] * 6, 6),
    # two interleaved components {0, 2, 4} and {1, 3, 5}: two roots
    "forest_of_two": (
        SymmetricGraph.from_edges(6, [0, 2, 1, 3], [2, 4, 3, 5]), None,
        [2, 3, 4, 5, -1, -1], 10,
    ),
    # one chain each way round; n climbs of length 1 ...
    "path_natural": (path_graph(9), None, [1, 2, 3, 4, 5, 6, 7, 8, -1], 17),
    "path_reversed": (path_graph(9), np.arange(9)[::-1], [1, 2, 3, 4, 5, 6, 7, 8, -1], 17),
    # ... vs one climb of length n - 1: the path's first node numbered
    # last, so its only neighbour 0 sits at the bottom of the chain
    "path_end_last": (path_graph(9), np.r_[1:9, 0], [1, 2, 3, 4, 5, 6, 7, 8, -1], 24),
    # centre eliminated first: L is dense
    "star_centre_first": (star_graph(8), None, [1, 2, 3, 4, 5, 6, 7, -1], 36),
    # centre eliminated last: no fill, n - 1 leaves under one root
    "star_centre_last": (star_graph(8), np.r_[1:8, 0], [7] * 7 + [-1], 15),
    "arrowhead": (_arrowhead(8), None, [7] * 7 + [-1], 15),
    "arrowhead_reversed": (_arrowhead(8), np.arange(8)[::-1], [1, 2, 3, 4, 5, 6, 7, -1], 36),
}


class TestNamedShapes:
    @pytest.mark.parametrize("shape", sorted(NAMED_SHAPES))
    def test_shape(self, shape):
        g, perm, parent, nnz = NAMED_SHAPES[shape]
        f = assert_factor_identical(g, perm)
        assert f.parent.tolist() == parent
        assert f.nnz == nnz
        assert etree(g, perm).tolist() == parent
        np.testing.assert_array_equal(column_counts(g, perm), f.column_counts())

    def test_band_is_the_dense_band(self):
        f = assert_factor_identical(band_graph(300, 17))
        assert f.column_counts().tolist() == [min(18, 300 - j) for j in range(300)]
        assert f.parent.tolist() == list(range(1, 300)) + [-1]

    def test_placement_key_wider_than_int32(self):
        """n * n > 2^31 (every 10^5 big-tier matrix): the col * n + row
        key is int64, the row indices it leaves behind stay int32."""
        n = 50_000
        g = path_graph(n)
        perm = np.random.default_rng(0).permutation(n)
        f = symbolic_cholesky(g, perm)
        indptr, rowidx = f.pattern.indptr, f.pattern.rowidx
        assert rowidx.dtype == np.int32
        np.testing.assert_array_equal(f.column_counts(), column_counts(g, perm))
        np.testing.assert_array_equal(f.parent, etree(g, perm))
        ascending = np.diff(rowidx) > 0
        ascending[indptr[1:-1] - 1] = True  # column boundaries
        assert ascending.all()
        has_parent = f.parent >= 0
        np.testing.assert_array_equal(rowidx[indptr[:-1][has_parent] + 1], f.parent[has_parent])


class TestThePathIsOnePass:
    """What ``prepare`` runs, pinned without a clock."""

    @pytest.mark.parametrize("name", ["LAP30", "social2000"])
    def test_prepare_needs_no_counts_postorder_or_permute(self, name, monkeypatch):
        graph = (
            load("LAP30") if name == "LAP30"
            else social_graph(2000, chords_per_node=0.8, max_len=64, seed=0)
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("not on the prepare path")

        for module in [m for k, m in sys.modules.items() if k.startswith("repro.")]:
            for attr in ("gnp_column_counts", "postorder", "children_lists"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
        monkeypatch.setattr(SymmetricGraph, "permute", forbidden)
        prepared = prepare(graph)
        assert prepared.pattern.nnz >= graph.nnz_lower

    def test_peak_memory_per_factor_entry(self):
        """32 B per entry of L + 64 B per lower-triangle entry of A: a
        boxed-int list over nnz(L) (>= 36 B each) or all-int64
        temporaries (~39) fail it, narrow buffers read 20-28."""
        g = grid9(80, 80)
        perm = multiple_minimum_degree(g)
        tracemalloc.start()
        try:
            f = symbolic_cholesky(g, perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f.nnz == 210_848
        assert peak <= 32 * f.nnz + 64 * g.nnz_lower


class TestGNPColumnCounts:
    @pytest.mark.parametrize("name", hb.names())
    def test_paper_matrices(self, name):
        g = hb.load(name)
        perm = multiple_minimum_degree(g)
        np.testing.assert_array_equal(
            column_counts(g, perm), row_walk_counts_oracle(g, perm)
        )

    def test_matches_factor_counts(self):
        g = grid9(10, 10)
        perm = multiple_minimum_degree(g)
        factor = symbolic_cholesky(g, perm)
        np.testing.assert_array_equal(
            column_counts(g, perm), np.diff(factor.pattern.indptr)
        )

    def test_gnp_on_permuted_graph(self):
        g = band_graph(120, 7)
        parent = etree(g)
        np.testing.assert_array_equal(
            gnp_column_counts(g, parent), row_walk_counts_oracle(g)
        )

    @given(st.integers(1, 40), st.integers(0, 70), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_random_graphs(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        np.testing.assert_array_equal(
            column_counts(g), row_walk_counts_oracle(g)
        )
