"""perf.sweep: grid construction, serial/parallel value-identity against
a per-cell loop over the public singular drivers, cache use."""

import dataclasses
import importlib
import re

import pytest

from repro import obs
from repro.core import adaptive_block_mapping, block_mapping, prepare, wrap_mapping
from repro.perf import SweepRecord, build_grid, group_grid, sweep
from repro.perf.sweep import SweepGroup, SweepTask
from repro.sparse import load
from repro.sparse.harwell_boeing import names

from ..conftest import traffic_oracle

#: The submodule itself (the package re-exports the ``sweep`` *function*
#: under the same name, so ``import repro.perf.sweep as m`` binds that).
sweep_mod = importlib.import_module("repro.perf.sweep")

#: The five paper matrices of Tables 1-5.
PAPER = tuple(names())


class TestBuildGrid:
    def test_nesting_order_matches_serial_harness(self):
        tasks = build_grid(["DWT512"], schemes=("block", "wrap"),
                           procs=(2, 4), grains=(4,), min_widths=(4,))
        assert [(t.scheme, t.nprocs) for t in tasks] == [
            ("block", 2), ("wrap", 2), ("block", 4), ("wrap", 4),
        ]

    def test_wrap_has_no_grain(self):
        (task,) = build_grid(["LAP30"], schemes=("wrap",), procs=(4,))
        assert task.grain is None and task.min_width is None

    def test_block_expands_grain_and_width(self):
        tasks = build_grid(["LAP30"], schemes=("block",), procs=(4,),
                           grains=(4, 25), min_widths=(2, 4))
        assert len(tasks) == 4

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            build_grid(["LAP30"], schemes=("diagonal",))

    def test_unknown_matrix_rejected(self):
        with pytest.raises(ValueError, match="unknown matrix"):
            build_grid(["NOPE99"])

    @pytest.mark.parametrize("knob", ["procs", "grains", "min_widths"])
    @pytest.mark.parametrize("bad", [0, -3])
    def test_nonpositive_grid_value_rejected(self, knob, bad):
        with pytest.raises(ValueError, match=f"{knob} must be positive.*got {bad}"):
            build_grid(["LAP30"], **{knob: (4, bad)})
        with pytest.raises(ValueError, match=f"{knob} must be positive.*got {bad}"):
            sweep(["LAP30"], jobs=2, **{knob: (bad,)})

    @pytest.mark.parametrize("knob", ["procs", "grains", "min_widths"])
    @pytest.mark.parametrize("bad", [2.5, float("nan"), True], ids=["2.5", "nan", "True"])
    def test_non_integer_grid_value_rejected(self, knob, bad):
        """``grains=(2.5,)`` used to die in a worker with ``TypeError:
        'float' object cannot be interpreted as an integer``."""
        message = f"{knob} must be positive.*got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            build_grid(["LAP30"], **{knob: (4, bad)})
        with pytest.raises(ValueError, match=message):
            sweep(["LAP30"], **{knob: (bad,)})

    @pytest.mark.parametrize("knob", ["procs", "grains", "min_widths"])
    def test_empty_axis_rejected(self, knob):
        with pytest.raises(ValueError, match=f"{knob} must not be empty"):
            build_grid(["LAP30"], schemes=("block", "wrap"), **{knob: ()})

    def test_empty_procs_rejected_for_wrap(self):
        with pytest.raises(ValueError, match="procs must not be empty"):
            build_grid(["LAP30"], schemes=("wrap",), procs=())

    def test_wrap_only_grid_ignores_empty_block_axes(self):
        tasks = build_grid(["LAP30"], schemes=("wrap",), procs=(4, 16),
                           grains=(), min_widths=())
        assert [t.nprocs for t in tasks] == [4, 16]

    def test_label(self):
        task = SweepTask("LAP30", "block", 16, 25, 4)
        assert task.label() == "LAP30 block P=16 g=25"


class TestGroupGrid:
    def test_groups_cells_by_invariant_parameters(self):
        tasks = build_grid(["DWT512"], schemes=("block", "wrap"),
                           procs=(2, 4, 8), grains=(4, 25), min_widths=(4,))
        groups = group_grid(tasks)
        # One group per (scheme, grain): block g=4, block g=25, wrap.
        assert [(g.scheme, g.grain) for g in groups] == [
            ("block", 4), ("block", 25), ("wrap", None),
        ]
        for group in groups:
            assert group.procs == (2, 4, 8)

    def test_indices_scatter_back_to_grid_order(self):
        tasks = build_grid(["DWT512"], schemes=("block", "wrap"),
                           procs=(2, 4), grains=(4,), min_widths=(4,))
        groups = group_grid(tasks)
        covered = sorted(i for g in groups for i in g.indices)
        assert covered == list(range(len(tasks)))
        for group in groups:
            for index, nprocs in zip(group.indices, group.procs):
                assert tasks[index].nprocs == nprocs
                assert tasks[index].scheme == group.scheme

    def test_matrices_do_not_share_groups(self):
        tasks = build_grid(["DWT512", "LAP30"], schemes=("wrap",), procs=(2, 4))
        groups = group_grid(tasks)
        assert [g.matrix for g in groups] == ["DWT512", "LAP30"]

    def test_label(self):
        group = SweepGroup("LAP30", "block", 25, 4, "mmd", (16, 64), (0, 1))
        assert group.label() == "LAP30 block g=25 P=16,64"


GRID = dict(schemes=("block", "wrap"), procs=(2,), grains=(4,), min_widths=(4,))


def per_cell_results(matrix, schemes, procs, grains, min_widths):
    """The grid measured one public singular driver call per cell, in
    grid order: ``(scheme, nprocs, grain, min_width, MappingResult)``."""
    prep = prepare(load(matrix), name=matrix)
    cells = []
    for nprocs in procs:
        for scheme in schemes:
            if scheme == "wrap":
                cells.append((scheme, nprocs, None, None, wrap_mapping(prep, nprocs)))
                continue
            driver = block_mapping if scheme == "block" else adaptive_block_mapping
            for grain in grains:
                for width in min_widths:
                    result = driver(prep, nprocs, grain=grain, min_width=width)
                    cells.append((scheme, nprocs, grain, width, result))
    return cells


def per_cell_records(matrix, **grid):
    """:func:`per_cell_results` as the records the sweep should return,
    every figure re-derived from the per-processor vectors."""
    records = []
    for scheme, nprocs, grain, width, r in per_cell_results(matrix, **grid):
        traffic, work = r.traffic.per_processor, r.balance.per_processor
        records.append(
            SweepRecord(
                matrix=matrix, scheme=scheme, nprocs=nprocs, grain=grain,
                min_width=width,
                traffic_total=int(traffic.sum()),
                traffic_mean=float(traffic.mean()),
                work_max=int(work.max()),
                imbalance=float(work.max() / work.mean() - 1.0),
                units=None if scheme == "wrap" else r.partition.num_units,
            )
        )
    return records


@pytest.fixture(scope="module")
def serial_records():
    return sweep(["DWT512"], jobs=1, **GRID)


#: The paper's evaluation grid, as the tables read it: Tables 2 / 3
#: (block), Table 5 (wrap) and Table 4's two widths beside the default.
PAPER_GRIDS = (
    (PAPER, dict(schemes=("block",), procs=(4, 16, 32), grains=(4, 25), min_widths=(4,))),
    (PAPER, dict(schemes=("wrap",), procs=(1, 4, 16, 32), grains=(), min_widths=())),
    (("LAP30",), dict(schemes=("block",), procs=(4, 16, 32), grains=(4,), min_widths=(2, 8))),
)


class TestSerial:
    def test_matches_analysis_harness(self, serial_records):
        """The per-cell loop the tables once ran, over the paper grid."""
        assert serial_records == per_cell_records("DWT512", **GRID)
        for matrices, grid in PAPER_GRIDS:
            expected = [r for m in matrices for r in per_cell_records(m, **grid)]
            assert sweep(matrices, **grid) == expected, grid

    def test_warm_cache_skips_ordering_and_symbolic(self, tmp_path):
        sweep(["DWT512"], jobs=1, cache_dir=tmp_path, **GRID)  # cold: fills cache
        with obs.enabled(obs.Recorder()) as rec:
            warm = sweep(["DWT512"], jobs=1, cache_dir=tmp_path, **GRID)
        assert rec.counters.get("perf.cache.hit") == 1  # one load per matrix
        assert "perf.cache.miss" not in rec.counters
        assert not rec.spans_named("pipeline.order")
        assert not rec.spans_named("pipeline.symbolic")
        assert warm == sweep(["DWT512"], jobs=1, **GRID)


class TestParallel:
    def test_identical_to_serial(self, serial_records):
        parallel = sweep(["DWT512"], jobs=2, **GRID)
        assert parallel == serial_records

    def test_records_are_plain_sweep_records(self, serial_records):
        parallel = sweep(["DWT512"], jobs=2, **GRID)
        for rec in parallel:
            assert isinstance(rec, SweepRecord)
            assert dataclasses.asdict(rec)["matrix"] == "DWT512"

    def test_workers_hit_prewarmed_cache(self, tmp_path):
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=2, cache_dir=tmp_path, **GRID)
        # The parent's pre-warm is the only miss; every worker load hits.
        assert rec.counters.get("perf.cache.miss") == 1
        assert rec.counters.get("perf.cache.hit", 0) >= 1
        assert rec.counters.get("perf.sweep.tasks") == 2
        assert rec.gauges.get("perf.sweep.jobs") == 2
        assert 0.0 < rec.gauges.get("perf.sweep.pool_utilization") <= 1.0

    def test_group_spans_cover_every_task(self):
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=2, **GRID)
        spans = rec.spans_named("perf.sweep.group")
        assert len(spans) == 2
        assert all(s.pid is not None for s in spans)  # on the worker lanes

    def test_wall_clock_sweep_draws_nothing_on_the_simulated_timeline(self):
        # Group times are wall-clock seconds: they belong on the worker
        # lanes as spans, never in the simulated-clock timeline.
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=2, **GRID)
        assert rec.sim_runs == []
        doc = obs.to_chrome_trace(rec)
        assert not [e for e in doc["traceEvents"]
                    if e["ph"] == "X" and (e["pid"] == 2 or e.get("cat") == "perf.sweep")]

    def test_counters_are_ints(self, tmp_path):
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=2, cache_dir=tmp_path, **GRID)
        for name in ("perf.cache.hit", "perf.cache.miss", "perf.sweep.tasks"):
            value = rec.counters.get(name)
            if value is not None:
                assert type(value) is int, (name, type(value))


MULTI_P_GRID = dict(
    schemes=("block", "block-adaptive", "wrap"),
    procs=(2, 4, 8), grains=(4,), min_widths=(4,),
)

#: Two grains, so two block groups share one prepared matrix.
REFERENCE_GRID = dict(MULTI_P_GRID, grains=(4, 25))


class TestStagedReuse:
    """Groups share the nprocs-invariant stages; the reference they are
    held to is a per-cell loop over the singular drivers, itself held to
    the traffic oracle."""

    @pytest.fixture(scope="class")
    def reference(self):
        return per_cell_records("DWT512", **REFERENCE_GRID)

    def test_reuse_matches_reference_serial(self, reference):
        assert sweep(["DWT512"], jobs=1, **REFERENCE_GRID) == reference

    def test_reuse_matches_reference_parallel(self, reference):
        assert sweep(["DWT512"], jobs=2, **REFERENCE_GRID) == reference

    def test_no_reuse_parallel_matches_reference(self):
        """One processor count: every group is a single cell, nothing is
        shared, and the records are still the reference's."""
        grid = dict(REFERENCE_GRID, procs=(4,))
        with obs.enabled(obs.Recorder()) as rec:
            records = sweep(["DWT512"], jobs=2, **grid)
        assert records == per_cell_records("DWT512", **grid)
        assert all(len(g.procs) == 1 for g in group_grid(build_grid(["DWT512"], **grid)))
        assert "perf.sweep.reuse.hit" not in rec.counters

    def test_block_and_wrap_traffic_equal_the_oracle(self):
        grid = dict(REFERENCE_GRID, schemes=("block", "wrap"))
        records = sweep(["DWT512"], jobs=1, **grid)
        cells = per_cell_results("DWT512", **grid)
        assert len(records) == len(cells) == 3 * (2 + 1)
        for record, (scheme, nprocs, grain, _width, r) in zip(records, cells):
            assert (record.scheme, record.nprocs, record.grain) == (scheme, nprocs, grain)
            want = traffic_oracle(
                r.assignment.owner_of_element, nprocs, r.prepared.updates
            )
            assert record.traffic_total == int(want.sum())

    def test_reuse_hit_counter_counts_shared_cells(self):
        tasks = build_grid(["DWT512"], **MULTI_P_GRID)
        groups = group_grid(tasks)
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=1, **MULTI_P_GRID)
        hits = rec.counters.get("perf.sweep.reuse.hit")
        assert hits == len(tasks) - len(groups)
        assert type(hits) is int

    def test_reuse_hit_counter_aggregated_from_workers(self):
        tasks = build_grid(["DWT512"], **MULTI_P_GRID)
        groups = group_grid(tasks)
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=2, **MULTI_P_GRID)
        assert rec.counters.get("perf.sweep.reuse.hit") == len(tasks) - len(groups)
        assert rec.counters.get("perf.sweep.tasks") == len(tasks)

    def test_serial_reuse_runs_group_spans(self):
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=1, **MULTI_P_GRID)
        groups = group_grid(build_grid(["DWT512"], **MULTI_P_GRID))
        assert len(rec.spans_named("perf.sweep.group")) == len(groups)
        # The nprocs-invariant stages ran once per *group*, not per cell.
        assert len(rec.spans_named("pipeline.partition")) < len(groups)

    def test_parallel_reuse_one_group_span_per_group(self):
        with obs.enabled(obs.Recorder()) as rec:
            sweep(["DWT512"], jobs=2, **MULTI_P_GRID)
        groups = group_grid(build_grid(["DWT512"], **MULTI_P_GRID))
        assert len(rec.spans_named("perf.sweep.group")) == len(groups)

    def test_warm_partition_cache_skips_partition_stage(self, tmp_path):
        grid = dict(schemes=("block",), procs=(2, 4), grains=(4,), min_widths=(4,))
        sweep(["DWT512"], jobs=1, cache_dir=tmp_path, **grid)  # cold fill
        with obs.enabled(obs.Recorder()) as rec:
            warm = sweep(["DWT512"], jobs=1, cache_dir=tmp_path, **grid)
        assert rec.counters.get("perf.cache.partition.hit") == 1
        assert not rec.spans_named("pipeline.partition")
        assert not rec.spans_named("pipeline.dependencies")
        assert warm == sweep(["DWT512"], jobs=1, **grid)  # uncached


class TestFailurePropagation:
    def test_worker_failure_retries_in_parent(self, monkeypatch):
        def boom(payload):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(sweep_mod, "_run_group", boom)
        records = sweep(["DWT512"], jobs=2, **GRID)
        assert records == sweep(["DWT512"], jobs=1, **GRID)

    def test_group_failure_raises_with_label(self, monkeypatch):
        def boom(group, cache_dir, memo):
            raise ValueError("stage exploded")

        monkeypatch.setattr(sweep_mod, "_measure_group", boom)
        with pytest.raises(RuntimeError, match="DWT512 (block|wrap)"):
            sweep(["DWT512"], jobs=2, **GRID)
