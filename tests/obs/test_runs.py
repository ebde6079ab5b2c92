"""obs.runs: the persistent run registry and its CLI/regression gate."""

import json

import pytest

from repro.cli import main
from repro.obs import runs


@pytest.fixture
def registry(tmp_path, monkeypatch):
    root = tmp_path / "registry"
    monkeypatch.setenv("REPRO_RUNS_DIR", str(root))
    return root


def _stages(scale=1.0):
    return {"order": 0.010 * scale, "symbolic": 0.020 * scale,
            "schedule": 0.030 * scale}


def _manifest_matrices(scale=1.0):
    return {"LAP30": {"stages": _stages(scale), "wall_total": 0.100 * scale}}


class TestRecordRun:
    def test_appends_one_json_line(self, registry):
        m = runs.record_run("sweep", config={"jobs": 2},
                            matrices=_manifest_matrices(), wall_s=0.1)
        assert m is not None
        assert m["kind"] == "sweep" and m["run_id"].startswith("sweep-")
        assert m["schema_version"] == runs.RUNS_SCHEMA_VERSION
        lines = (registry / "sweep.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["run_id"] == m["run_id"]

    def test_run_ids_are_unique(self, registry):
        ids = {runs.record_run("bench")["run_id"] for _ in range(5)}
        assert len(ids) == 5

    def test_unwritable_root_returns_none(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        assert runs.record_run("sweep", root=blocker) is None

    def test_extra_keys_land_in_the_manifest(self, registry):
        m = runs.record_run("sweep", extra={"cells": 12})
        assert m["cells"] == 12

    def test_manifest_carries_host_provenance(self, registry):
        m = runs.record_run("sweep")
        host = m["host"]
        assert set(host) == {"hostname", "platform", "python", "cpus"}
        assert host["python"].count(".") == 2
        assert host["cpus"] >= 1
        # v1 manifests (no host key) must still load and compare.
        assert runs.RUNS_SCHEMA_VERSION == 2


class TestListRuns:
    def test_empty_registry(self, registry):
        assert runs.list_runs() == []

    def test_oldest_first_across_kinds(self, registry):
        a = runs.record_run("sweep")
        b = runs.record_run("bench")
        listed = runs.list_runs()
        assert [m["run_id"] for m in listed] == [a["run_id"], b["run_id"]]

    def test_kind_filter(self, registry):
        runs.record_run("sweep")
        b = runs.record_run("bench")
        assert [m["run_id"] for m in runs.list_runs(kind="bench")] == [b["run_id"]]

    def test_corrupt_lines_skipped(self, registry):
        m = runs.record_run("sweep")
        with open(registry / "sweep.jsonl", "a") as fh:
            fh.write("{not json}\n\n")
        assert [x["run_id"] for x in runs.list_runs()] == [m["run_id"]]

    def test_same_second_ties_broken_by_run_id(self, registry):
        """created_unix has one-second granularity in the human stamp;
        same-timestamp manifests must still list in one deterministic
        order (by run id), so CI log diffs are stable."""
        docs = [
            {"kind": "sweep", "created_unix": 100.0, "run_id": f"sweep-x-{c}"}
            for c in "cab"
        ]
        registry.mkdir(parents=True, exist_ok=True)
        with open(registry / "sweep.jsonl", "w") as fh:
            for d in docs:
                fh.write(json.dumps(d) + "\n")
        listed = [m["run_id"] for m in runs.list_runs()]
        assert listed == ["sweep-x-a", "sweep-x-b", "sweep-x-c"]

    def test_explain_kind_filter(self, registry):
        runs.record_run("bench")
        e = runs.record_run("explain", extra={"explain": {"makespan": 1.0}})
        listed = runs.list_runs(kind="explain")
        assert [m["run_id"] for m in listed] == [e["run_id"]]
        assert listed[0]["explain"] == {"makespan": 1.0}


class TestLoadRun:
    def test_latest(self, registry):
        runs.record_run("sweep")
        b = runs.record_run("bench")
        assert runs.load_run("latest")["run_id"] == b["run_id"]

    def test_kind_latest(self, registry):
        a = runs.record_run("sweep")
        runs.record_run("bench")
        assert runs.load_run("sweep:latest")["run_id"] == a["run_id"]

    def test_exact_id_and_unique_prefix(self, registry):
        a = runs.record_run("sweep")
        assert runs.load_run(a["run_id"]) == a
        prefix = a["run_id"][: len("sweep-") + 10]
        assert runs.load_run(prefix) == a

    def test_ambiguous_prefix_rejected(self, registry):
        runs.record_run("sweep")
        runs.record_run("sweep")
        with pytest.raises(ValueError, match="ambiguous"):
            runs.load_run("sweep-")

    def test_unknown_ref_rejected(self, registry):
        with pytest.raises(ValueError, match="no run or file"):
            runs.load_run("nonexistent-run")

    def test_file_path_loads_a_manifest(self, registry, tmp_path):
        m = runs.record_run("sweep", matrices=_manifest_matrices())
        path = tmp_path / "copy.json"
        path.write_text(json.dumps(m))
        assert runs.load_run(str(path)) == m


class TestCompare:
    def test_stage_rows(self):
        old = {"matrices": _manifest_matrices(1.0)}
        new = {"matrices": _manifest_matrices(2.0)}
        rows = runs.compare_runs(old, new)
        by_stage = {r["stage"]: r for r in rows}
        assert by_stage["order"]["baseline_s"] == pytest.approx(0.010)
        assert by_stage["order"]["current_s"] == pytest.approx(0.020)

    def test_regressions_beyond_threshold_only(self):
        old = {"matrices": _manifest_matrices(1.0)}
        barely = {"matrices": _manifest_matrices(1.20)}  # +20% < 25% gate
        badly = {"matrices": _manifest_matrices(1.60)}
        assert runs.find_run_regressions(old, barely) == []
        found = runs.find_run_regressions(old, badly)
        assert found and any("order" in line for line in found)

    def test_custom_threshold(self):
        old = {"matrices": _manifest_matrices(1.0)}
        new = {"matrices": _manifest_matrices(1.20)}
        assert runs.find_run_regressions(old, new, threshold=0.10)

    def test_render_run_delta_mentions_stages(self):
        old = {"matrices": _manifest_matrices(1.0)}
        new = {"matrices": _manifest_matrices(1.5)}
        assert "LAP30" in runs.render_run_delta(old, new)

    def test_compare_ignores_unshared_matrices(self):
        old = {"matrices": _manifest_matrices(1.0)}
        lonely = {"matrices": {"ONLY_HERE": _manifest_matrices(0.5)["LAP30"]}}
        assert runs.compare_runs(old, lonely) == []

    def test_render_delta(self):
        old = {"matrices": _manifest_matrices(1.0)}
        new = {"matrices": _manifest_matrices(0.5)}
        text = runs.render_run_delta(old, new)
        assert "speedup" in text
        assert "wall_total" in text
        assert runs.render_run_delta({"matrices": {}}, new).startswith(
            "(no comparable")


class TestRender:
    def test_runs_table_empty(self):
        assert runs.render_runs_table([]) == "(no recorded runs)"

    def test_runs_table_lists_every_run(self, registry):
        a = runs.record_run("sweep", matrices=_manifest_matrices(), wall_s=1.0)
        text = runs.render_runs_table(runs.list_runs())
        assert a["run_id"] in text and "LAP30" in text

    def test_show_round_trips_json(self, registry):
        a = runs.record_run("sweep")
        assert json.loads(runs.render_run(a)) == a


class TestMemoryRegressionGate:
    """Peak-RSS rides the same compare/gate machinery as timings: a run
    that got >=25% hungrier fails ``runs compare --fail-on-regression``
    even when every stage got faster."""

    @staticmethod
    def _with_mem(scale, mem_mb):
        matrices = _manifest_matrices(scale)
        matrices["LAP30"]["mem_peak_mb"] = mem_mb
        return {"matrices": matrices}

    def test_memory_rows_carry_the_mb_unit(self):
        rows = runs.compare_runs(self._with_mem(1.0, 100.0),
                                 self._with_mem(1.0, 140.0))
        (mem,) = [r for r in rows if r["stage"] == "mem_peak"]
        assert mem["unit"] == "mb"
        assert mem["baseline_s"] == 100.0 and mem["current_s"] == 140.0

    def test_injected_memory_regression_fails_the_gate(self, tmp_path):
        from repro.cli import main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        # Timings *improve* 2x while memory blows up 40% — the gate must
        # still fail, and on the memory row specifically.
        old.write_text(json.dumps(self._with_mem(1.0, 100.0)))
        new.write_text(json.dumps(self._with_mem(0.5, 140.0)))
        assert main(["runs", "compare", str(old), str(new),
                     "--fail-on-regression"]) == 1

    def test_memory_within_threshold_passes(self, tmp_path):
        from repro.cli import main

        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(self._with_mem(1.0, 100.0)))
        new.write_text(json.dumps(self._with_mem(1.0, 110.0)))  # +10% < 25%
        assert main(["runs", "compare", str(old), str(new),
                     "--fail-on-regression"]) == 0

    def test_regression_message_speaks_megabytes(self):
        found = runs.find_run_regressions(self._with_mem(1.0, 100.0),
                                          self._with_mem(1.0, 160.0))
        (line,) = [l for l in found if "mem_peak" in l]
        assert "MB" in line and "more memory" in line

    def test_runs_without_memory_fields_are_unaffected(self):
        old = {"matrices": _manifest_matrices(1.0)}
        new = {"matrices": _manifest_matrices(1.0)}
        rows = runs.compare_runs(old, new)
        assert all(r["stage"] != "mem_peak" for r in rows)


def _report_file(tmp_path, name, scale):
    path = tmp_path / name
    path.write_text(json.dumps({"matrices": _manifest_matrices(scale)}))
    return str(path)


class TestRunsCli:
    def test_list_and_show(self, registry, capsys):
        m = runs.record_run("sweep")
        assert main(["runs", "list"]) == 0
        assert m["run_id"] in capsys.readouterr().out
        assert main(["runs", "show", "latest"]) == 0
        assert json.loads(capsys.readouterr().out)["run_id"] == m["run_id"]

    def test_show_unknown_ref_is_an_error(self, registry, capsys):
        assert main(["runs", "show", "nope"]) == 2
        assert "error" in capsys.readouterr().err

    def test_compare_gate_fails_on_regression(self, registry, tmp_path, capsys):
        old = _report_file(tmp_path, "old.json", 1.0)
        new = _report_file(tmp_path, "new.json", 1.60)  # >25% slower
        assert main(["runs", "compare", old, new, "--fail-on-regression"]) == 1
        out = capsys.readouterr().out
        assert "regressions" in out and "slower" in out

    def test_compare_gate_passes_within_threshold(self, registry, tmp_path, capsys):
        old = _report_file(tmp_path, "old.json", 1.0)
        new = _report_file(tmp_path, "new.json", 1.10)
        assert main(["runs", "compare", old, new, "--fail-on-regression"]) == 0
        assert "no stage regressions" in capsys.readouterr().out

    def test_compare_without_gate_reports_but_passes(self, registry, tmp_path):
        old = _report_file(tmp_path, "old.json", 1.0)
        new = _report_file(tmp_path, "new.json", 2.0)
        assert main(["runs", "compare", old, new]) == 0

    def test_compare_custom_threshold(self, registry, tmp_path):
        old = _report_file(tmp_path, "old.json", 1.0)
        new = _report_file(tmp_path, "new.json", 1.15)
        assert main(["runs", "compare", old, new,
                     "--fail-on-regression", "--threshold", "0.10"]) == 1

    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
    def test_compare_refuses_a_negative_or_non_finite_threshold(
        self, registry, tmp_path, capsys, value
    ):
        # -0.5 would list every stage, faster ones included, as a
        # regression; nan and inf would pass every stage.
        old = _report_file(tmp_path, "old.json", 1.0)
        new = _report_file(tmp_path, "new.json", 0.8)
        with pytest.raises(SystemExit) as excinfo:
            main(["runs", "compare", old, new,
                  "--fail-on-regression", "--threshold", value])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"--threshold must be a finite fraction >= 0, got {value}" in err

    def test_compare_accepts_a_zero_threshold(self, registry, tmp_path):
        old = _report_file(tmp_path, "old.json", 1.0)
        new = _report_file(tmp_path, "new.json", 1.0)
        assert main(["runs", "compare", old, new,
                     "--fail-on-regression", "--threshold", "0"]) == 0

    def test_sweep_records_a_manifest(self, registry, tmp_path, capsys):
        out = main(["sweep", "--matrix", "DWT512", "--procs", "2",
                    "--grains", "4", "-q",
                    "--cache-dir", str(tmp_path / "cache")])
        assert out == 0
        (m,) = runs.list_runs(kind="sweep")
        assert m["config"]["matrices"] == ["DWT512"]
        assert m["cells"] == 2  # block + wrap at P=2
        assert m["wall_s"] > 0
        assert "stages" in m["matrices"]["DWT512"]


class TestSweepManifestRow:
    """A one-cell sweep records the per-stage row ``runs compare``
    gates: every pipeline stage timed, the wall total, peak RSS and the
    run's RSS timeline."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sweep-row")
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("REPRO_RUNS_DIR", str(tmp / "registry"))
            assert main(["sweep", "--matrix", "LAP30", "--procs", "4",
                         "--grains", "25", "--schemes", "block", "-q",
                         "--cache-dir", str(tmp / "cache")]) == 0
            (m,) = runs.list_runs(kind="sweep")
        return m

    def test_every_stage_timed(self, manifest):
        (entry,) = manifest["matrices"].values()
        assert set(entry["stages"]) == set(runs.STAGES)
        assert all(t >= 0.0 for t in entry["stages"].values())
        # order/symbolic/partition actually ran (nonzero spans).
        assert entry["stages"]["order"] > 0.0
        assert entry["stages"]["partition"] > 0.0
        assert entry["wall_total"] > 0.0

    def test_peak_rss_reported(self, manifest):
        from repro.obs.memory import memory_enabled

        if not memory_enabled():
            pytest.skip("RSS unreadable on this platform")
        (entry,) = manifest["matrices"].values()
        assert entry["mem_peak_mb"] > 0

    def test_memory_timeline_is_downsampled_pairs(self, manifest):
        from repro.obs.memory import memory_enabled

        if not memory_enabled():
            pytest.skip("RSS unreadable on this platform")
        samples = manifest["memory"]
        assert 2 <= len(samples) <= 302
        for t, mb in samples:
            assert t >= 0.0 and mb > 0

    def test_two_runs_compare_stage_by_stage(self, manifest):
        rows = runs.compare_runs(manifest, manifest)
        stages = {r["stage"] for r in rows}
        assert stages - {"mem_peak"} == set(runs.STAGES) | {"wall_total"}
        assert runs.find_run_regressions(manifest, manifest) == []
