"""Inter-block dependency identification and the ten categories (§3.3)."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CATEGORY_NAMES,
    analyze_dependencies,
    classify_pair_updates,
    partition_factor,
    prepare,
)
from repro.core.blocks import BlockKind
from repro.sparse import harwell_boeing as hb
from repro.symbolic import enumerate_updates, symbolic_cholesky

from ..conftest import random_connected_graph
from .interval_oracle import UnitLocator


def _setup(n=36, extra=60, seed=11, grain=4, min_width=2):
    g = random_connected_graph(n, extra, seed)
    pattern = symbolic_cholesky(g).pattern
    partition = partition_factor(pattern, grain=grain, min_width=min_width)
    updates = enumerate_updates(pattern)
    return pattern, partition, updates


class TestClassification:
    def test_every_update_classified(self):
        _, partition, updates = _setup()
        cats = classify_pair_updates(partition, updates)
        assert ((cats >= 0) & (cats <= 10)).all()

    def test_internal_means_same_unit(self):
        _, partition, updates = _setup()
        cats = classify_pair_updates(partition, updates)
        uoe = partition.unit_of_element
        internal = cats == 0
        same = (uoe[updates.source_i] == uoe[updates.target]) & (
            uoe[updates.source_j] == uoe[updates.target]
        )
        assert np.array_equal(internal, same)

    def test_category_geometry(self):
        """Each category's kind signature must hold for every update."""
        _, partition, updates = _setup()
        cats = classify_pair_updates(partition, updates)
        uoe = partition.unit_of_element
        kind = {u.uid: u.kind for u in partition.units}
        kj = np.array([kind[int(u)].value for u in uoe[updates.source_j]])
        ki = np.array([kind[int(u)].value for u in uoe[updates.source_i]])
        kt = np.array([kind[int(u)].value for u in uoe[updates.target]])

        def check(mask, src_j, src_i, tgt):
            if src_j is not None:
                assert (kj[mask] == src_j).all()
            if src_i is not None:
                assert (ki[mask] == src_i).all()
            if tgt is not None:
                assert (kt[mask] == tgt).all()

        check(cats == 1, "column", "column", "column")
        check(cats == 2, "column", "column", "triangle")
        check(cats == 3, "column", "column", "rectangle")
        check(cats == 4, "triangle", "rectangle", "rectangle")
        check(cats == 5, "triangle", "rectangle", "rectangle")
        check(cats == 6, "rectangle", "rectangle", "column")
        check(cats == 7, "rectangle", "rectangle", "column")
        check(cats == 8, "rectangle", "rectangle", "triangle")
        check(cats == 9, "rectangle", "rectangle", "triangle")
        check(cats == 10, "rectangle", "rectangle", "rectangle")

    def test_cat4_cosource_is_target(self):
        """Category 4: the rectangle co-source IS the target unit."""
        _, partition, updates = _setup()
        cats = classify_pair_updates(partition, updates)
        uoe = partition.unit_of_element
        m = cats == 4
        assert (uoe[updates.source_i][m] == uoe[updates.target][m]).all()

    def test_cat5_chunk_ordering(self):
        """Category 5 matches the paper's printed condition c2 < c3: the
        co-source rectangle's columns lie strictly left of the target's."""
        _, partition, updates = _setup(grain=2)
        cats = classify_pair_updates(partition, updates)
        uoe = partition.unit_of_element
        units = partition.units
        m = np.nonzero(cats == 5)[0]
        for t in m.tolist():
            r1 = units[int(uoe[updates.source_i[t]])]
            r2 = units[int(uoe[updates.target[t]])]
            tri = units[int(uoe[updates.source_j[t]])]
            assert tri.kind is BlockKind.TRIANGLE
            assert r1.uid != r2.uid
            # Same cluster, co-source chunk strictly left (or a different
            # row band with col_hi <= target col range).
            if r1.cluster == r2.cluster and r1.row_lo == r2.row_lo:
                assert r1.col_hi < r2.col_lo

    def test_cat6_8_single_source_rect(self):
        _, partition, updates = _setup()
        cats = classify_pair_updates(partition, updates)
        uoe = partition.unit_of_element
        for c in (6, 8):
            m = cats == c
            assert (uoe[updates.source_i][m] == uoe[updates.source_j][m]).all()

    def test_cat7_9_two_source_rects(self):
        _, partition, updates = _setup()
        cats = classify_pair_updates(partition, updates)
        uoe = partition.unit_of_element
        for c in (7, 9):
            m = cats == c
            assert (uoe[updates.source_i][m] != uoe[updates.source_j][m]).all()

    def test_all_column_partition_only_first_three_categories(self):
        """min_width so large that every cluster is a single column: only
        categories 0/1 can occur (every target is a column too)."""
        _, partition, updates = _setup(min_width=50)
        cats = classify_pair_updates(partition, updates)
        assert set(np.unique(cats).tolist()) <= {0, 1}

    def test_category_names_complete(self):
        assert set(CATEGORY_NAMES) == set(range(11))


class TestDependencyInfo:
    def test_edges_unique_and_no_self(self):
        _, partition, updates = _setup()
        deps = analyze_dependencies(partition, updates)
        edges = deps.edges
        assert (edges[:, 0] != edges[:, 1]).all()
        keys = edges[:, 0] * partition.num_units + edges[:, 1]
        assert len(np.unique(keys)) == len(keys)

    def test_dependency_graph_is_acyclic(self):
        """The unit DAG must admit a topological order (uid order alone
        is NOT one: triangle-interior unit rectangles update later
        diagonal unit triangles)."""
        from repro.machine import topological_order

        _, partition, updates = _setup()
        deps = analyze_dependencies(partition, updates)
        order = topological_order(partition.num_units, deps.edges)
        position = np.empty(partition.num_units, dtype=np.int64)
        position[order] = np.arange(partition.num_units)
        assert (position[deps.edges[:, 0]] < position[deps.edges[:, 1]]).all()

    def test_cross_cluster_edges_left_to_right(self):
        """Edges between different clusters always point rightward."""
        _, partition, updates = _setup()
        deps = analyze_dependencies(partition, updates)
        cu = partition.cluster_of_unit
        src_c, tgt_c = cu[deps.edges[:, 0]], cu[deps.edges[:, 1]]
        assert (src_c <= tgt_c).all()

    def test_predecessors_successors_consistent(self):
        _, partition, updates = _setup()
        deps = analyze_dependencies(partition, updates)
        for t, preds in enumerate(deps.predecessors):
            for s in preds.tolist():
                assert t in deps.successors[s].tolist()

    def test_independent_units_have_no_preds(self):
        _, partition, updates = _setup()
        deps = analyze_dependencies(partition, updates)
        for u in np.nonzero(deps.independent_units)[0].tolist():
            assert len(deps.predecessors[u]) == 0

    def test_first_unit_always_independent(self):
        _, partition, updates = _setup()
        deps = analyze_dependencies(partition, updates)
        assert deps.independent_units[0]

    def test_scale_toggle_reduces_edges(self):
        _, partition, updates = _setup()
        with_scale = analyze_dependencies(partition, updates, include_scale=True)
        without = analyze_dependencies(partition, updates, include_scale=False)
        assert without.num_edges() <= with_scale.num_edges()

    def test_edges_match_element_derivation(self):
        """Every edge must be witnessed by at least one concrete update."""
        _, partition, updates = _setup()
        deps = analyze_dependencies(partition, updates, include_scale=False)
        uoe = partition.unit_of_element
        witnessed = set()
        tgt = uoe[updates.target]
        for src in (uoe[updates.source_i], uoe[updates.source_j]):
            mask = src != tgt
            witnessed.update(zip(src[mask].tolist(), tgt[mask].tolist()))
        assert witnessed == set(map(tuple, deps.edges.tolist()))

    def test_category_counts_sum(self):
        _, partition, updates = _setup()
        deps = analyze_dependencies(partition, updates)
        assert sum(deps.category_counts.values()) == updates.num_pair_updates


#: Edges, per-edge volumes and all eleven category counts of the five
#: bundled matrices, taken at the last commit that derived them from the
#: element-level read list (sort of the (unit, unit) keys, the stamp
#: kernel with the unit map as owner, a ten-pass where-chain).
GOLDEN = json.loads((Path(__file__).parent / "golden_dependencies.json").read_text())


def _sha(a) -> str:
    a = np.ascontiguousarray(np.asarray(a, dtype=np.int64))
    h = hashlib.sha256()
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module", params=hb.names())
def bundled(request):
    return prepare(hb.load(request.param), name=request.param)


class TestGoldenDependencies:
    @pytest.mark.parametrize("grain", [4, 25])
    @pytest.mark.parametrize("include_scale", [True, False])
    def test_edges_volumes_and_categories_unchanged(self, bundled, grain, include_scale):
        partition = partition_factor(bundled.pattern, grain=grain, min_width=4)
        deps = analyze_dependencies(partition, bundled.updates, include_scale)
        want = GOLDEN[f"{bundled.name}/g{grain}/{'scale' if include_scale else 'noscale'}"]
        assert deps.num_edges() == want["n_edges"]
        assert _sha(deps.edges) == want["edges"]
        assert int(deps.volumes.sum()) == want["total_volume"]
        assert _sha(deps.volumes) == want["volumes"]
        counts = [deps.category_counts.get(cat, 0) for cat in range(11)]
        assert counts == want["category_counts"]
        cats = classify_pair_updates(partition, bundled.updates)
        assert np.bincount(cats, minlength=11).tolist() == counts


class TestUnitLocator:
    def test_matches_ownership_arrays(self):
        pattern, partition, _ = _setup(n=25, extra=35, seed=3)
        loc = UnitLocator(partition)
        cols = pattern.element_cols()
        for e in range(pattern.nnz):
            r, c = int(pattern.rowidx[e]), int(cols[e])
            assert loc.locate(r, c) == int(partition.unit_of_element[e])

    def test_rejects_upper_triangle(self):
        _, partition, _ = _setup(n=10, extra=10)
        loc = UnitLocator(partition)
        with pytest.raises(ValueError):
            loc.locate(0, 5)

    def test_units_overlapping_rows(self):
        _, partition, _ = _setup(n=20, extra=25, seed=8)
        loc = UnitLocator(partition)
        units = partition.units
        for col in (0, 5, 10):
            hits = loc.units_overlapping_rows(col, 0, partition.pattern.n - 1)
            expected = sorted(
                u.uid for u in units if u.col_lo <= col <= u.col_hi
            )
            assert hits == expected

    @given(st.integers(8, 24), st.integers(0, 30), st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_locator_property(self, n, extra, seed):
        g = random_connected_graph(n, extra, seed)
        pattern = symbolic_cholesky(g).pattern
        partition = partition_factor(pattern, grain=3, min_width=2)
        loc = UnitLocator(partition)
        cols = pattern.element_cols()
        for e in range(0, pattern.nnz, max(1, pattern.nnz // 20)):
            r, c = int(pattern.rowidx[e]), int(cols[e])
            assert loc.locate(r, c) == int(partition.unit_of_element[e])
