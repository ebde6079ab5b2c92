"""Bench harness smoke: report structure, fingerprint, rendering."""

import copy
import json

import pytest

from repro.obs.runs import STAGES, compare_runs, find_run_regressions, render_run_delta
from repro.perf import bench_pipeline, render_bench
from repro.perf.bench import BENCH_SCHEMA_VERSION, SMOKE_MATRICES


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "BENCH_pipeline.json"
    report = bench_pipeline(smoke=True, out=out)
    # The file on disk is the same document the call returned.
    assert json.loads(out.read_text()) == json.loads(json.dumps(report))
    return report


class TestSmokeReport:
    def test_schema(self, report):
        assert report["schema_version"] == BENCH_SCHEMA_VERSION
        assert report["smoke"] is True
        assert set(report["matrices"]) == set(SMOKE_MATRICES)

    def test_every_stage_timed(self, report):
        for entry in report["matrices"].values():
            assert set(entry["stages"]) == set(STAGES)
            assert all(t >= 0.0 for t in entry["stages"].values())
            # order/symbolic/partition actually ran (nonzero spans).
            assert entry["stages"]["order"] > 0.0
            assert entry["stages"]["partition"] > 0.0

    def test_fingerprint_present(self, report):
        for entry in report["matrices"].values():
            assert entry["pair_updates"] > 0
            assert entry["traffic_total"] > 0
            assert entry["factor_nnz"] >= entry["n"] > 0
            assert entry["wall_total"] > 0.0

    def test_out_none_skips_write(self):
        report = bench_pipeline(smoke=True, out=None)
        assert set(report["matrices"]) == set(SMOKE_MATRICES)

    def test_render(self, report):
        text = render_bench(report)
        assert "GRID9x8" in text and "GRID9x12" in text
        assert "enumerate_updates" in text
        assert "smoke mode" in text

    def test_render_has_memory_column(self, report):
        assert "mem_peak_mb" in render_bench(report)


class TestMemoryWatermarks:
    def test_every_matrix_reports_peak_rss(self, report):
        from repro.obs.memory import memory_enabled

        if not memory_enabled():
            pytest.skip("RSS unreadable on this platform")
        for entry in report["matrices"].values():
            assert entry["mem_peak_mb"] > 0
            # The run-level peak dominates every stage's peak.
            stage_mem = entry["stage_mem_peak_mb"]
            assert stage_mem
            assert entry["mem_peak_mb"] >= max(stage_mem.values()) * 0.5
            for stage in stage_mem:
                assert stage in STAGES

    def test_memory_timeline_is_downsampled_pairs(self, report):
        from repro.obs.memory import memory_enabled

        if not memory_enabled():
            pytest.skip("RSS unreadable on this platform")
        for entry in report["matrices"].values():
            samples = entry["memory"]
            assert 2 <= len(samples) <= 162
            for t, mb in samples:
                assert t >= 0.0 and mb > 0

    def test_provenance_stamped(self, report):
        assert report["git_sha"] is None or len(report["git_sha"]) == 40
        assert set(report["host"]) == {"hostname", "platform", "python", "cpus"}
        assert report["created_unix"] > 0


class TestMatrixSelection:
    def test_explicit_matrix_list(self, tmp_path):
        report = bench_pipeline(matrices=["LAP30"], out=None)
        assert list(report["matrices"]) == ["LAP30"]
        assert report["smoke"] is False


class TestReproducibility:
    def test_stamp_false_omits_provenance(self):
        report = bench_pipeline(smoke=True, out=None, stamp=False)
        assert "created_unix" not in report
        assert "git_sha" not in report and "host" not in report
        assert report["repeats"] == 1

    def test_repeats_recorded(self):
        report = bench_pipeline(matrices=["LAP30"], out=None, repeats=2)
        assert report["repeats"] == 2


class TestBaselineComparison:
    @pytest.fixture(scope="class")
    def reports(self):
        baseline = bench_pipeline(smoke=True, out=None, stamp=False)
        current = copy.deepcopy(baseline)
        for entry in current["matrices"].values():
            entry["stages"] = {k: v / 2 for k, v in entry["stages"].items()}
            entry["wall_total"] /= 2
        return current, baseline

    def test_compare_reports_rows(self, reports):
        current, baseline = reports
        rows = compare_runs(baseline, current)
        assert rows, "expected comparable matrices"
        stages = {r["stage"] for r in rows}
        # mem_peak rows appear only where both sides measured RSS.
        assert stages - {"mem_peak"} == set(STAGES) | {"wall_total"}
        for row in rows:
            assert row["matrix"] in SMOKE_MATRICES
            if row["baseline_s"] > 0 and row["current_s"] > 0:
                assert row["speedup"] == pytest.approx(
                    row["baseline_s"] / row["current_s"]
                )

    def test_compare_ignores_unshared_matrices(self, reports):
        current, baseline = reports
        lonely = copy.deepcopy(current)
        lonely["matrices"] = {"ONLY_HERE": next(iter(current["matrices"].values()))}
        assert compare_runs(baseline, lonely) == []

    def test_no_regressions_when_faster(self, reports):
        current, baseline = reports
        assert find_run_regressions(baseline, current) == []

    def test_regression_detected_beyond_threshold(self, reports):
        current, baseline = reports
        slow = copy.deepcopy(baseline)
        entry = next(iter(slow["matrices"].values()))
        entry["stages"]["order"] *= 10.0
        found = find_run_regressions(baseline, slow, threshold=0.25)
        assert found and any("order" in msg for msg in found)

    def test_render_delta(self, reports):
        current, baseline = reports
        text = render_run_delta(baseline, current)
        assert "speedup" in text
        assert "wall_total" in text
        assert render_run_delta({"matrices": {}}, current).startswith("(no comparable")


class TestStretchSelection:
    """--stretch appends the 10^6 instances to the big-tier defaults
    without ever loading them in these tests (load is stubbed)."""

    @staticmethod
    def _selected_names(monkeypatch, **kwargs):
        from repro.perf import bench as bench_mod

        loaded = []

        def fake_load(name):
            loaded.append(name)
            return object()

        monkeypatch.setattr(bench_mod.registry, "load", fake_load)
        monkeypatch.setattr(
            bench_mod, "_bench_one",
            lambda name, graph, nprocs, grain, repeats: {
                "stages": {}, "wall_total": 0.0,
            },
        )
        bench_pipeline(tier="big", out=None, stamp=False, **kwargs)
        return loaded

    def test_stretch_appends_million_instances(self, monkeypatch):
        from repro.perf.bench import BIG_BENCH_MATRICES, STRETCH_BENCH_MATRICES

        names = self._selected_names(monkeypatch, stretch=True)
        assert names == list(BIG_BENCH_MATRICES) + list(STRETCH_BENCH_MATRICES)

    def test_default_big_tier_excludes_stretch(self, monkeypatch):
        from repro.perf.bench import BIG_BENCH_MATRICES

        names = self._selected_names(monkeypatch, stretch=False)
        assert names == list(BIG_BENCH_MATRICES)

    def test_smoke_ignores_stretch(self, monkeypatch):
        from repro.perf.bench import BIG_BENCH_SMOKE_MATRICES

        names = self._selected_names(monkeypatch, stretch=True, smoke=True)
        assert names == list(BIG_BENCH_SMOKE_MATRICES)

    def test_stretch_outside_big_tier_rejected(self):
        with pytest.raises(ValueError, match="tier big"):
            bench_pipeline(tier="paper", stretch=True, out=None)
