"""The run-length update model against oracles that know nothing of runs.

``enumerate_updates`` stores one target per run — a pair of rows of a
fundamental supernode's first column — and everything the mapping path
reads comes from the runs: the expansion into the four element-level
arrays, the update counts, the pair total, the element and unit read
indexes and the category census.  Each must be what the per-column oracles of
``tests/symbolic/oracles.py`` give, on generated structures under natural
and MMD order and on the shapes a run layout gets wrong first; the pair
total is also checked against Gilbert–Ng–Peyton column counts, with no
enumeration at all.  The expansion's hashes on the bundled matrices were
written at the last commit that stored the four arrays.

Tier-1 runs Hypothesis' default example count, the CI kernel-identity
step ``--hypothesis-profile=full``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import adaptive_schedule, analyze_dependencies, partition_factor
from repro.core.dependencies import CATEGORY_NAMES, classify_pair_updates, unit_read_index
from repro.ordering import multiple_minimum_degree
from repro.sparse import band_graph, grid9, path_graph, star_graph
from repro.sparse import harwell_boeing as hb
from repro.sparse.pattern import LowerPattern
from repro.symbolic import enumerate_updates, fundamental_supernodes, symbolic_cholesky
from repro.symbolic.updates import build_read_index, ragged_range

from ..conftest import generated_graphs
from .oracles import (
    enumerate_updates_oracle,
    etree,
    gnp_column_counts,
    read_list_oracle,
    supernodes_oracle,
    unit_read_index_oracle,
)

ARRAYS = ("target", "source_i", "source_j", "source_col")


def assert_runs_are_the_updates(pattern: LowerPattern):
    """Expansion, update counts, pair total and supernodes of the runs
    equal the oracles'."""
    updates = enumerate_updates(pattern)
    oracle = enumerate_updates_oracle(pattern)
    for name in ARRAYS:
        np.testing.assert_array_equal(getattr(updates, name), getattr(oracle, name), name)
    np.testing.assert_array_equal(
        updates.update_counts, np.bincount(oracle.target, minlength=pattern.nnz)
    )
    assert updates.num_pair_updates == oracle.num_pair_updates
    assert fundamental_supernodes(pattern) == supernodes_oracle(pattern)
    # column_runs, read column by column, is every column's pairs.
    run, _, a, b, lo, hi, base = updates.column_runs
    at = ragged_range(lo, hi - lo, np.int64)
    col = np.repeat(np.arange(pattern.n), hi - lo)
    got = np.stack([col, updates.run_target[run[at]], base[col] + a[at], base[col] + b[at]])
    want = np.stack([oracle.source_col, oracle.target, oracle.source_i, oracle.source_j])
    np.testing.assert_array_equal(
        got[:, np.lexsort(got[::-1])], want[:, np.lexsort(want[::-1])], "column_runs"
    )
    return updates, oracle


def assert_partition_reads(partition, pattern, updates, oracle, include_scale):
    """The unit read index, array for array and dtype for dtype, and the
    category census equal the oracles'."""
    got = unit_read_index(partition, updates, include_scale).reads()
    want = unit_read_index_oracle(partition, pattern, oracle, include_scale)
    for name, g, w in zip(("src", "reader"), got, want):
        np.testing.assert_array_equal(g, w, name)
        assert g.dtype == w.dtype
    census = np.bincount(classify_pair_updates(partition, oracle), minlength=len(CATEGORY_NAMES))
    deps = analyze_dependencies(partition, updates, include_scale)
    assert deps.category_counts == {c: int(n) for c, n in enumerate(census) if n}


class TestGeneratedGraphs:
    @given(
        generated_graphs(), st.sampled_from(["natural", "mmd"]), st.sampled_from([1, 4, 25]),
        st.sampled_from([0.0, 0.3]), st.sampled_from([2, 4]), st.booleans(), st.booleans(),
    )
    @settings(deadline=None)
    def test_runs_are_the_updates(
        self, graph, order, grain, zero_tolerance, min_width, adaptive, include_scale
    ):
        perm = None if order == "natural" else multiple_minimum_degree(graph)
        pattern = symbolic_cholesky(graph, perm).pattern
        updates, oracle = assert_runs_are_the_updates(pattern)
        m = gnp_column_counts(graph, etree(graph, perm), perm) - 1
        assert updates.num_pair_updates == int((m * (m + 1) // 2).sum())
        knobs = dict(grain=grain, min_width=min_width, zero_tolerance=zero_tolerance)
        if adaptive:
            partition, _ = adaptive_schedule(pattern, updates, 16, **knobs)
        else:
            partition = partition_factor(pattern, **knobs)
        assert_partition_reads(partition, pattern, updates, oracle, include_scale)

    @given(generated_graphs(), st.sampled_from(["natural", "mmd"]), st.booleans())
    @settings(deadline=None)
    def test_element_read_index_is_the_read_list(self, graph, order, include_scale):
        """Each element's slice of the reader sequences holds the readers
        the sorted read list gives it — once each: a pair whose two
        sources coincide reads its source once, not twice."""
        perm = None if order == "natural" else multiple_minimum_degree(graph)
        pattern = symbolic_cholesky(graph, perm).pattern
        updates = enumerate_updates(pattern)
        index = build_read_index(updates, include_scale)
        src, reader = index.reads()
        assert np.all(np.diff(src) >= 0)
        got = list(zip(src.tolist(), reader.tolist()))
        want = read_list_oracle(pattern, enumerate_updates_oracle(pattern), include_scale)
        assert len(set(got)) == len(got)
        assert set(got) == set(zip(*(a.tolist() for a in want)))
        repeats = pattern.nnz - pattern.n  # one pair per off-diagonal source
        assert index.num_reads == len(want[0]) - repeats

    @given(st.integers(1, 12), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11))))
    @settings(deadline=None)
    def test_any_pattern(self, n, entries):
        """On a pattern that need not be fill-closed the supernodes are
        the loop's, and the runs either are the updates or are refused
        with the oracle's message, which names the first bad column."""
        entries = [(max(i, j) % n, min(i, j) % n) for i, j in entries]
        entries = [(i, j) for i, j in entries if i >= j]
        pattern = LowerPattern.from_entries(n, *zip(*entries)) if entries else (
            LowerPattern.from_entries(n, [], [])
        )
        assert fundamental_supernodes(pattern) == supernodes_oracle(pattern)
        try:
            oracle = enumerate_updates_oracle(pattern)
        except ValueError as refused:
            with pytest.raises(ValueError) as got:
                enumerate_updates(pattern)
            assert str(got.value) == str(refused)
        else:
            updates = enumerate_updates(pattern)
            for name in ARRAYS:
                np.testing.assert_array_equal(getattr(updates, name), getattr(oracle, name))


def _arrowhead(n: int):
    """Dense last row: every node adjacent to node n - 1, numbered last."""
    return star_graph(n).permute(np.r_[1:n, 0])


#: name -> (factor pattern, its fundamental supernodes' widths)
NAMED_SHAPES = {
    "n0": (LowerPattern.from_entries(0, [], []), []),
    "n1": (LowerPattern.from_entries(1, [], []), [1]),
    "diagonal_only": (LowerPattern.from_entries(6, [], []), [1] * 6),
    # the centre eliminated first: a dense first column fills L
    "one_dense_column": (symbolic_cholesky(star_graph(8)).pattern, [8]),
    "path": (symbolic_cholesky(path_graph(9)).pattern, [1] * 7 + [2]),
    "arrowhead": (symbolic_cholesky(_arrowhead(8)).pattern, [1] * 6 + [2]),
    # column j holds rows j..j+17: width-1 supernodes up to the last 18
    "band(300,17)": (symbolic_cholesky(band_graph(300, 17)).pattern, [1] * 282 + [18]),
    "grid9(12,12)": (
        symbolic_cholesky(grid9(12, 12), multiple_minimum_degree(grid9(12, 12))).pattern,
        None,
    ),
}


class TestNamedShapes:
    @pytest.mark.parametrize("shape", sorted(NAMED_SHAPES))
    @pytest.mark.parametrize("include_scale", [True, False])
    def test_shape(self, shape, include_scale):
        pattern, widths = NAMED_SHAPES[shape]
        updates, oracle = assert_runs_are_the_updates(pattern)
        if widths is not None:
            assert [e - s + 1 for s, e in fundamental_supernodes(pattern)] == widths
        for grain in (1, 4):
            partition = partition_factor(pattern, grain=grain, min_width=2)
            assert_partition_reads(partition, pattern, updates, oracle, include_scale)

    def test_not_fill_closed(self):
        """Columns 0 and 1 form a supernode whose run targeting (4, 3)
        finds a structural zero: column 0, its first column, is named."""
        pattern = LowerPattern.from_entries(5, [1, 3, 4, 3, 4], [0, 0, 0, 1, 1])
        assert fundamental_supernodes(pattern) == supernodes_oracle(pattern) == [
            (0, 1), (2, 2), (3, 3), (4, 4)
        ]
        with pytest.raises(ValueError, match="column 0 updates a structurally-zero"):
            enumerate_updates(pattern)


@pytest.mark.parametrize("name", hb.names())
def test_golden_update_hashes(name):
    """sha256 of target | source_i | source_j | source_col under MMD,
    written at the parent of the run-length rewrite."""
    golden = json.loads((Path(__file__).parent / "golden_updates.json").read_text())[name]
    g = hb.load(name)
    updates = enumerate_updates(symbolic_cholesky(g, multiple_minimum_degree(g)).pattern)
    h = hashlib.sha256()
    for a in (getattr(updates, name) for name in ARRAYS):
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    assert (g.n, updates.num_pair_updates, h.hexdigest()) == (
        golden["n"], golden["pair_updates"], golden["updates"]
    )
