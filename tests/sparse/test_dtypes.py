"""Index-dtype discipline across the sparse/symbolic stack.

The rules (codified in :mod:`repro.sparse.dtypes`):

* storage index arrays (row indices, adjacency, element ids, read
  lists) live at ``index_dtype(limit)`` — int32 until the addressed
  space outgrows 2^31 - 1;
* linearized (row, col) keys always go through
  :func:`~repro.sparse.dtypes.linear_index` and are int64;
* counts, cumulative sums and ``indptr`` arrays stay int64.

A silent ``np.arange``/``np.repeat`` int64 default creeping back in
doubles the big-tier working set, so this file pins the dtypes end to
end on a problem large enough to be representative but fast to build.
"""

import re

import numpy as np
import pytest

from repro.core.pipeline import prepare
from repro.machine import build_read_index
from repro.sparse import generators as gen
from repro.sparse.dtypes import (
    INDEX_MAX_INT32,
    as_index_array,
    as_permutation,
    as_processor_count,
    index_dtype,
    linear_index,
)
from repro.sparse.pattern import LowerPattern, SymmetricGraph
from repro.symbolic.updates import enumerate_updates


class TestHelpers:
    def test_index_dtype_threshold(self):
        assert index_dtype(0) == np.int32
        assert index_dtype(INDEX_MAX_INT32) == np.int32
        assert index_dtype(INDEX_MAX_INT32 + 1) == np.int64

    def test_as_index_array_narrows_with_limit(self):
        a = as_index_array([1, 2, 3], limit=10)
        assert a.dtype == np.int32
        a = as_index_array([1, 2, 3], limit=INDEX_MAX_INT32 + 1)
        assert a.dtype == np.int64

    def test_as_index_array_preserves_narrow_without_limit(self):
        a = np.array([1, 2], dtype=np.int32)
        assert as_index_array(a).dtype == np.int32
        assert as_index_array([1, 2]).dtype == np.int64

    def test_as_index_array_rejects_2d(self):
        with pytest.raises(ValueError):
            as_index_array(np.zeros((2, 2), dtype=np.int32))

    def test_as_permutation_returns_int64(self):
        for perm in ([2, 0, 1], (2, 0, 1), np.array([2, 0, 1], dtype=np.int32),
                     np.array([2, 0, 1], dtype=np.uint8)):
            out = as_permutation(perm, 3)
            assert out.dtype == np.int64 and out.tolist() == [2, 0, 1]
        a = np.array([1, 0], dtype=np.int64)
        assert as_permutation(a, 2) is a  # already what is asked for: no copy
        assert as_permutation([], 0).dtype == np.int64

    @pytest.mark.parametrize(
        "perm",
        [[0.0, 1.0, 2.0], np.array([True, False, True]), [True, False, 2], [[0, 1, 2]],
         [0, 1], [0, 1, 1], [0, 1, 3], [0, 1, -1], [0, 1, 2**40], [0, 1, None]],
        ids=["float", "bool", "bool_in_list", "2d", "short", "repeated", "too_big",
             "negative", "huge", "object"],
    )
    def test_as_permutation_refuses(self, perm):
        with pytest.raises(ValueError, match=r"perm is not a permutation of 0\.\.n-1"):
            as_permutation(perm, 3)

    def test_as_processor_count_returns_int(self):
        for value in (1, 7, np.int32(7), np.uint16(7), np.int64(INDEX_MAX_INT32)):
            out = as_processor_count(value)
            assert type(out) is int and out == int(value)

    @pytest.mark.parametrize(
        "value",
        [0, -3, INDEX_MAX_INT32 + 1, 2**40, True, np.bool_(True), 4.0, np.float64(4),
         "4", None, [4]],
    )
    def test_as_processor_count_refuses(self, value):
        with pytest.raises(ValueError, match=re.escape(f"block must be positive: an integer "
                                                       f"in 1..{INDEX_MAX_INT32}, got {value!r}")):
            as_processor_count(value, "block")

    def test_linear_index_is_always_int64(self):
        major = np.array([1, 2], dtype=np.int32)
        minor = np.array([3, 4], dtype=np.int32)
        key = linear_index(major, minor, 100_000)
        assert key.dtype == np.int64
        np.testing.assert_array_equal(key, [100_003, 200_004])

    def test_linear_index_no_int32_overflow(self):
        # 100k x 100k linearized keys overflow int32 by design; the
        # helper must widen regardless of the operand dtypes.
        n = 100_000
        major = np.array([n - 1], dtype=np.int32)
        key = linear_index(major, np.array([n - 1], dtype=np.int32), n)
        assert int(key[0]) == n * n - 1


class TestStructureDtypes:
    def test_graph_from_edges_is_int32(self):
        g = gen.grid9(40, 40)
        assert g.indices.dtype == np.int32
        assert g.indptr.dtype == np.int64  # counts stay wide

    def test_lower_pattern_is_int32(self):
        g = gen.grid9(20, 20)
        low = g.lower()
        assert low.rowidx.dtype == np.int32
        assert low.indptr.dtype == np.int64

    def test_permute_stays_narrow(self):
        g = gen.grid5(15, 15)
        perm = np.arange(g.n)[::-1].copy()
        assert g.permute(perm).indices.dtype == np.int32

    def test_element_cols_narrow(self):
        low = gen.grid5(10, 10).lower()
        assert low.element_cols().dtype == np.int32


class TestPipelineDtypes:
    @pytest.fixture(scope="class")
    def prepped(self):
        # Big enough that every stage's arrays are exercised in bulk
        # (~27k factor entries), small enough to prepare in well under a
        # second.
        return prepare(gen.aniso_grid(400, 8), name="ANISO3200")

    def test_symbolic_rowidx_narrow(self, prepped):
        assert prepped.pattern.rowidx.dtype == np.int32
        assert prepped.pattern.indptr.dtype == np.int64

    def test_update_arrays_narrow(self, prepped):
        ups = prepped.updates
        for arr in (ups.target, ups.source_i, ups.source_j, ups.source_col):
            assert arr.dtype == np.int32
        assert ups.scale_source.dtype == np.int32

    def test_update_counts_stay_wide(self, prepped):
        # bincount output: a count, not an index.
        assert prepped.updates.update_counts.dtype == np.int64

    def test_read_index_narrow(self, prepped):
        index = build_read_index(prepped.updates)
        for array in (*index.reads(), index.reader, index.first, index.end):
            assert array.dtype == np.int32

    def test_enumeration_matches_reference_dtypeless(self):
        # Narrowing must never change values: compare against the int64
        # oracle enumerator elementwise.
        from ..symbolic.oracles import enumerate_updates_oracle

        pattern = prepare(gen.grid9(16, 16), name="G16").pattern
        fast = enumerate_updates(pattern)
        ref = enumerate_updates_oracle(pattern)
        np.testing.assert_array_equal(fast.target, ref.target)
        np.testing.assert_array_equal(fast.source_i, ref.source_i)
        np.testing.assert_array_equal(fast.source_j, ref.source_j)
        np.testing.assert_array_equal(fast.source_col, ref.source_col)


class TestNoSilentUpcasts:
    def test_from_entries_narrow(self):
        pat = LowerPattern.from_entries(50, [5, 10], [1, 2])
        assert pat.rowidx.dtype == np.int32

    def test_from_edges_with_int64_input_narrows(self):
        u = np.array([0, 1, 2], dtype=np.int64)
        v = np.array([1, 2, 3], dtype=np.int64)
        g = SymmetricGraph.from_edges(4, u, v)
        assert g.indices.dtype == np.int32

    def test_generators_emit_narrow_graphs(self):
        for graph in (
            gen.hex_mesh(5, 3, 3),
            gen.tet_mesh(4, 3, 3),
            gen.aniso_grid(12, 4),
            gen.social_graph(200, seed=1),
            gen.powlaw_graph(200, seed=1),
        ):
            assert graph.indices.dtype == np.int32
