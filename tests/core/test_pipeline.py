"""Pipeline drivers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    block_mapping,
    block_mappings,
    partition_prepared,
    prepare,
    wrap_mapping,
    wrap_mappings,
)
from repro.machine import traffic
from repro.obs import trace as obs
from repro.sparse import grid9

from ..conftest import generated_graphs


def _forbidden(*args, **kwargs):
    raise AssertionError("not on the mapping path")


class TestPrepare:
    def test_prepare_names(self, prepared_grid):
        assert prepared_grid.name == "grid9(8,8)"
        assert prepared_grid.factor_nnz >= prepared_grid.graph.nnz_lower

    def test_updates_cached(self, prepared_grid):
        assert prepared_grid.updates is prepared_grid.updates

    def test_total_work_positive(self, prepared_grid):
        assert prepared_grid.total_work > 0

    def test_natural_ordering(self):
        g = grid9(4, 4)
        prep = prepare(g, ordering="natural")
        assert np.array_equal(prep.perm, np.arange(g.n))


class TestBlockMapping:
    def test_summary_fields(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        s = r.summary()
        assert s["scheme"] == "block"
        assert s["nprocs"] == 4
        assert s["traffic_total"] == r.traffic.total
        assert s["imbalance"] == r.balance.imbalance

    def test_work_conserved(self, prepared_grid):
        for p in (1, 2, 4, 8):
            r = block_mapping(prepared_grid, p, grain=4)
            assert r.balance.total == prepared_grid.total_work

    def test_single_proc_no_traffic(self, prepared_grid):
        r = block_mapping(prepared_grid, 1, grain=4)
        assert r.traffic.total == 0
        assert r.balance.imbalance == 0.0

    def test_partition_attached(self, prepared_grid):
        r = block_mapping(prepared_grid, 4, grain=4)
        assert r.partition is not None
        assert r.dependencies is not None
        r.partition.check_exact_cover()

    def test_grain_trade_off(self, prepared_grid):
        lo = block_mapping(prepared_grid, 8, grain=2)
        hi = block_mapping(prepared_grid, 8, grain=30)
        assert hi.traffic.total <= lo.traffic.total

    def test_scale_traffic_toggle(self, prepared_grid):
        with_scale = block_mapping(prepared_grid, 4, grain=4)
        without = block_mapping(
            prepared_grid, 4, grain=4, include_scale_traffic=False
        )
        assert without.traffic.total <= with_scale.traffic.total


class TestWrapMapping:
    def test_single_proc_no_traffic(self, prepared_grid):
        r = wrap_mapping(prepared_grid, 1)
        assert r.traffic.total == 0
        assert r.balance.imbalance == 0.0

    def test_work_conserved(self, prepared_grid):
        for p in (1, 3, 16):
            r = wrap_mapping(prepared_grid, p)
            assert r.balance.total == prepared_grid.total_work

    def test_no_partition(self, prepared_grid):
        r = wrap_mapping(prepared_grid, 4)
        assert r.partition is None

    def test_traffic_grows_with_procs(self, prepared_grid):
        t = [wrap_mapping(prepared_grid, p).traffic.total for p in (1, 2, 4, 8)]
        assert t == sorted(t)


class TestMultiP:
    def test_no_scale_read_index_built_once_and_cells_match(self, monkeypatch):
        """The multi-P entry points never build the element read index,
        for either value of the flag (block cells count over the unit read
        index, built once per partition, wrap cells by column prefix), and
        each cell equals the one-cell call's."""
        prep = prepare(grid9(8, 8), name="grid9(8,8)")
        part = partition_prepared(prep, grain=4)
        with monkeypatch.context() as patch:
            patch.setattr(traffic, "build_read_index", _forbidden)
            blocks = block_mappings(part, (2, 4), include_scale_traffic=False)
            wraps = wrap_mappings(prep, (2, 4), include_scale_traffic=False)
        for got in blocks:
            want = block_mapping(
                prep, got.nprocs, grain=4, include_scale_traffic=False
            )
            np.testing.assert_array_equal(
                got.traffic.per_processor, want.traffic.per_processor
            )
        for got in wraps:
            want = wrap_mapping(prep, got.nprocs, include_scale_traffic=False)
            np.testing.assert_array_equal(
                got.traffic.per_processor, want.traffic.per_processor
            )

    @pytest.mark.parametrize("lazy", [lambda ps: (p for p in ps), iter])
    def test_procs_may_be_a_one_shot_iterable(self, prepared_grid, lazy):
        """Regression: the span's ``cells=len(tuple(procs))`` used to
        drain a generator before the loop saw it — no cells, no error."""
        part = partition_prepared(prepared_grid, grain=4)
        blocks = block_mappings(part, lazy([4, 16]))
        wraps = wrap_mappings(prepared_grid, lazy([4, 16]))
        assert [r.nprocs for r in blocks] == [4, 16]
        assert [r.nprocs for r in wraps] == [4, 16]
        with obs.enabled() as rec:
            block_mappings(part, lazy([4, 16]))
            wrap_mappings(prepared_grid, lazy([4, 16]))
        (b,), (w,) = (
            rec.spans_named(f"pipeline.{name}_mappings") for name in ("block", "wrap")
        )
        assert b.args["cells"] == w.args["cells"] == 2
        assert rec.counters["pipeline.stage.metrics"] == 4


def _figures(result):
    """What the paper reports for a cell, plus the vectors behind it."""
    return (
        result.nprocs,
        result.traffic.per_processor.tolist(),
        result.balance.per_processor.tolist(),
        result.balance.imbalance,
    )


class TestACellIsAGroupOfOne:
    """A cell's result does not depend on which other processor counts
    share its group, on their order, or on repeats — and it is what the
    singular driver returns."""

    PROCS = (1, 2, 3, 5, 16, 64)

    @given(
        generated_graphs(),
        st.lists(st.sampled_from(PROCS), min_size=1, max_size=5),
        st.sampled_from([1, 4, 25]),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    @settings(deadline=None)
    def test_block_and_wrap(self, graph, procs, grain, include_scale, rng):
        prep = prepare(graph, name="generated")
        part = partition_prepared(prep, grain=grain)
        alone = {}
        for p in set(procs):
            (block,) = block_mappings(part, (p,), include_scale_traffic=include_scale)
            (wrap,) = wrap_mappings(prep, (p,), include_scale_traffic=include_scale)
            alone[p] = _figures(block), _figures(wrap)
            single = block_mapping(
                prep, p, grain=grain, include_scale_traffic=include_scale
            )
            assert _figures(single) == alone[p][0]
            assert single.assignment.proc_of_unit.tolist() == (
                block.assignment.proc_of_unit.tolist()
            )
            single = wrap_mapping(prep, p, include_scale_traffic=include_scale)
            assert _figures(single) == alone[p][1]
        shuffled = list(procs)
        rng.shuffle(shuffled)
        for group in (procs, shuffled, procs + procs[::-1]):
            blocks = block_mappings(part, group, include_scale_traffic=include_scale)
            wraps = wrap_mappings(prep, group, include_scale_traffic=include_scale)
            assert [_figures(r) for r in blocks] == [alone[p][0] for p in group]
            assert [_figures(r) for r in wraps] == [alone[p][1] for p in group]


class TestPartitionMemo:
    """The partition stage is memoised on the prepared matrix, one entry
    per (grain, min_width, zero_tolerance, grain_rectangle)."""

    BASE = {"grain": 4, "min_width": 4, "zero_tolerance": 0.0, "grain_rectangle": None}

    def test_one_stage_for_every_processor_count(self):
        prep = prepare(grid9(8, 8), name="grid9(8,8)")
        with obs.enabled(obs.Recorder()) as rec:
            results = [block_mapping(prep, p, grain=4) for p in (4, 16, 32)]
        assert rec.counters["pipeline.stage.partition"] == 1
        assert rec.counters["pipeline.stage.dependencies"] == 1
        assert len(rec.spans_named("pipeline.partition")) == 1
        assert len(rec.spans_named("pipeline.dependencies")) == 1
        assert all(r.partition is results[0].partition for r in results)
        assert partition_prepared(prep, grain=4).partition is results[0].partition

    @pytest.mark.parametrize(
        "name, value",
        [("grain", 25), ("min_width", 2), ("zero_tolerance", 0.5), ("grain_rectangle", 9)],
    )
    def test_each_parameter_builds_a_new_stage(self, name, value):
        prep = prepare(grid9(8, 8), name="grid9(8,8)")
        first = partition_prepared(prep, **self.BASE)
        with obs.enabled(obs.Recorder()) as rec:
            other = partition_prepared(prep, **{**self.BASE, name: value})
            again = partition_prepared(prep, **{**self.BASE, name: value})
        assert rec.counters["pipeline.stage.partition"] == 1
        assert rec.counters["pipeline.stage.dependencies"] == 1
        assert other is again and other is not first
        assert getattr(other, name) == value
        assert partition_prepared(prep, **self.BASE) is first

    @given(generated_graphs(), st.sampled_from([1, 4, 25]), st.sampled_from([1, 2, 4]))
    @settings(deadline=None)
    def test_a_hit_equals_a_fresh_build(self, graph, grain, min_width):
        prep = prepare(graph, name="generated")
        partition_prepared(prep, grain=grain, min_width=min_width)
        hit = partition_prepared(prep, grain=grain, min_width=min_width)
        fresh = partition_prepared(
            prepare(graph, name="generated"), grain=grain, min_width=min_width
        )
        np.testing.assert_array_equal(hit.partition.table, fresh.partition.table)
        np.testing.assert_array_equal(hit.dependencies.edges, fresh.dependencies.edges)
        assert hit.dependencies.category_counts == fresh.dependencies.category_counts
        np.testing.assert_array_equal(hit.unit_work, fresh.unit_work)
        for p in (1, 3, 16):
            memoised = block_mapping(prep, p, grain=grain, min_width=min_width)
            alone = block_mapping(
                prepare(graph, name="generated"), p, grain=grain, min_width=min_width
            )
            assert _figures(memoised) == _figures(alone)
            assert memoised.assignment.proc_of_unit.tolist() == (
                alone.assignment.proc_of_unit.tolist()
            )
