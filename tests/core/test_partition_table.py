"""The columnar partition: one unit/cluster table from the cluster scan
through the scheduler and the partition cache.

Properties are stated once, on generated patterns (the seeded
``sparse.generators`` families at n <= 200 plus random connected
graphs); the bundled matrices are pinned against fingerprints taken at
the last object-per-unit commit (``golden_partition_fingerprints.json``)
and against ``schedule_oracle``, the pre-columnar allocator.
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    Partition,
    SchedulerOptions,
    analyze_dependencies,
    partition_factor,
    partition_prepared,
    prepare,
    schedule_blocks,
)
from repro.core.blocks import BlockKind
from repro.machine import unit_work
from repro.perf import PartitionCache
from repro.sparse import harwell_boeing as hb

from ..conftest import generated_graphs, random_connected_graph, schedule_oracle
from .validators import validate_partition

graphs = st.one_of(
    generated_graphs(),
    st.builds(
        random_connected_graph, st.integers(1, 60), st.integers(0, 80), st.integers(0, 2**31 - 1)
    ),
)
grains = st.integers(1, 30)
min_widths = st.integers(1, 8)

CLUSTER_COLUMNS = (
    "col_lo", "col_hi", "is_column", "triangle_padding", "rectangle_padding",
    "column_row_hi", "rect_indptr", "rect_rows",
)


def assert_same_partition(a: Partition, b: Partition) -> None:
    """Column for column: unit table, ownership, cluster columns."""
    np.testing.assert_array_equal(a.table, b.table)
    np.testing.assert_array_equal(a.unit_of_element, b.unit_of_element)
    for name in CLUSTER_COLUMNS:
        np.testing.assert_array_equal(getattr(a.clusters, name), getattr(b.clusters, name), name)
    assert (a.grain_triangle, a.grain_rectangle) == (b.grain_triangle, b.grain_rectangle)
    assert (a.clusters.min_width, a.clusters.zero_tolerance) == (
        b.clusters.min_width, b.clusters.zero_tolerance
    )


class TestTableProperties:
    @given(graphs, grains, min_widths)
    def test_unit_rows_tile_the_factor(self, graph, grain, min_width):
        pattern = prepare(graph).pattern
        part = partition_factor(pattern, grain=grain, min_width=min_width)
        ptr, ids = part.element_csr
        # Every element is owned once: the CSR is a permutation of the
        # element ids, grouped by owner, ascending inside a unit.
        np.testing.assert_array_equal(np.sort(ids), np.arange(pattern.nnz))
        np.testing.assert_array_equal(
            np.bincount(part.unit_of_element, minlength=part.num_units), np.diff(ptr)
        )
        np.testing.assert_array_equal(
            part.unit_of_element[ids], np.repeat(np.arange(part.num_units), np.diff(ptr))
        )
        same_unit = np.diff(part.unit_of_element[ids]) == 0
        assert (np.diff(ids)[same_unit] > 0).all()
        np.testing.assert_array_equal(part.unit_work, np.diff(ptr))
        # ... and lies inside the extents of its owner.
        part.check_exact_cover()
        validate_partition(part)

    @given(graphs, grains, st.integers(1, 40), min_widths)
    def test_units_honour_the_grain_bound(self, graph, grain, grain_rectangle, min_width):
        """A dense block of area A splits into at most max(1, A // g)
        units, which tile it geometrically; columns are never split."""
        pattern = prepare(graph).pattern
        part = partition_factor(
            pattern, grain=grain, min_width=min_width, grain_rectangle=grain_rectangle
        )
        cs = part.clusters
        width = cs.col_hi - cs.col_lo + 1
        dense = part.kind != 0
        assert (part.unit_work[~dense] == np.diff(pattern.indptr)[part.col_lo[~dense]]).all()
        # One id per dense block: triangles first, then every rectangle.
        n_tri = len(cs)
        rect_cluster = np.repeat(np.arange(len(cs)), np.diff(cs.rect_indptr))
        block_area = np.concatenate([
            width * (width + 1) // 2,
            (cs.rect_rows[:, 1] - cs.rect_rows[:, 0] + 1) * width[rect_cluster],
        ])
        block_grain = np.concatenate([
            np.full(n_tri, grain), np.full(len(rect_cluster), grain_rectangle)
        ])
        cluster = part.cluster_of_unit[dense]
        block_id = np.where(
            part.block[dense] == 0, cluster, n_tri + cs.rect_indptr[cluster] + part.block[dense] - 1
        )
        units = np.bincount(block_id, minlength=len(block_area))
        area = np.bincount(block_id, weights=part.unit_area[dense], minlength=len(block_area))
        split = units > 0  # single-column clusters have no triangle
        np.testing.assert_array_equal(split[:n_tri], ~cs.is_column)
        assert split[n_tri:].all()
        np.testing.assert_array_equal(area[split], block_area[split])
        assert (units[split] <= np.maximum(1, block_area[split] // block_grain[split])).all()

    @given(graphs, grains, min_widths)
    def test_unit_ptr_groups_are_in_allocation_order(self, graph, grain, min_width):
        pattern = prepare(graph).pattern
        part = partition_factor(pattern, grain=grain, min_width=min_width)
        n_clusters = len(part.clusters)
        assert part.unit_ptr[0] == 0 and part.unit_ptr[-1] == part.num_units
        np.testing.assert_array_equal(
            part.cluster_of_unit, np.repeat(np.arange(n_clusters), np.diff(part.unit_ptr))
        )
        keys = [u.order_key for u in part.units]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for c in range(n_clusters):
            group = part.units_of_cluster(c)
            assert [u.uid for u in group] == list(range(part.unit_ptr[c], part.unit_ptr[c + 1]))
            assert {u.cluster for u in group} == {c}
            # Triangle-parented units lead, then each rectangle in turn.
            assert [u.order_key[1] for u in group] == sorted(u.order_key[1] for u in group)
            assert all((u.parent_kind is BlockKind.TRIANGLE) == (u.order_key[1] == 0)
                       for u in group if u.kind is not BlockKind.COLUMN)

    @given(graphs, grains, min_widths)
    def test_row_views_round_trip(self, graph, grain, min_width):
        pattern = prepare(graph).pattern
        part = partition_factor(pattern, grain=grain, min_width=min_width)
        rows = list(part.units)
        for u, row in zip(range(part.num_units), rows):
            assert row.uid == u
            np.testing.assert_array_equal(row.elements, part.unit_elements(u))
        for c, cluster in enumerate(part.clusters):
            assert cluster == part.clusters[c] and cluster.index == c
            assert cluster.is_column == bool(part.clusters.is_column[c])

    @given(graphs, min_widths)
    def test_cache_round_trip_is_column_identical(self, graph, min_width):
        prepared = prepare(graph)
        stored = partition_prepared(prepared, grain=4, min_width=min_width)
        with tempfile.TemporaryDirectory() as root:
            cache = PartitionCache(root)
            cache.store(prepared, stored)
            loaded = cache.load(prepared, 4, min_width)
        assert loaded is not None
        assert_same_partition(loaded.partition, stored.partition)
        np.testing.assert_array_equal(loaded.dependencies.edges, stored.dependencies.edges)
        for mine, theirs in zip(
            loaded.dependencies.predecessor_csr, stored.dependencies.predecessor_csr
        ):
            np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(loaded.unit_work, stored.unit_work)
        assert loaded.dependencies.category_counts == stored.dependencies.category_counts


# ----------------------------------------------------------------------
# Bundled matrices: identity with the object-per-unit partition
# ----------------------------------------------------------------------

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_partition_fingerprints.json").read_text()
)


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(np.asarray(a, dtype=np.int64))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def fingerprint(part: Partition) -> dict:
    cs = part.clusters
    cluster_columns = np.stack([
        cs.col_lo, cs.col_hi, cs.is_column, cs.triangle_padding, cs.rectangle_padding,
        cs.column_row_hi,
    ])
    return {
        "units": _sha(part.table),
        "unit_of_element": _sha(part.unit_of_element),
        "clusters": _sha(cluster_columns, cs.rect_indptr, cs.rect_rows),
        "n_units": part.num_units,
        "n_clusters": len(cs),
        "triangle_padding": cs.total_triangle_padding(),
        "total_padding": cs.total_padding(),
    }


@pytest.mark.parametrize("name", hb.names())
def test_bundled_matrix_identity(name):
    """Unit columns, ownership, cluster geometry and padding equal the
    parent commit's, and every allocation equals the oracle's."""
    prepared = prepare(hb.load(name), name=name)
    for grain in (4, 25):
        for min_width in (1, 4, 8):
            part = partition_factor(prepared.pattern, grain=grain, min_width=min_width)
            assert fingerprint(part) == GOLDEN[f"{name}/g{grain}/w{min_width}"]
            deps = analyze_dependencies(part, prepared.updates)
            work = unit_work(part, prepared.updates)
            for policy in ("first", "least_loaded", "round_robin"):
                options = SchedulerOptions(dependent_column_policy=policy)
                for nprocs in (4, 16, 64, 256, 1024):
                    got = schedule_blocks(part, deps, nprocs, unit_work=work, options=options)
                    np.testing.assert_array_equal(
                        got.proc_of_unit,
                        schedule_oracle(part, deps, nprocs, work, policy=policy),
                        f"g={grain} w={min_width} {policy} P={nprocs}",
                    )
