"""CLI entry point."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def fresh_caches():
    """Clear the experiment harness' per-process lru caches so a traced
    run exercises every pipeline stage (prepare included)."""
    from repro.analysis import experiments

    experiments.prepared_matrix.cache_clear()
    experiments._block_result.cache_clear()
    experiments._wrap_result.cache_clear()
    yield
    experiments.prepared_matrix.cache_clear()
    experiments._block_result.cache_clear()
    experiments._wrap_result.cache_clear()


class TestCLI:
    def test_figure3(self, capsys):
        assert main(["figure3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out

    def test_figure2_custom_grid(self, capsys):
        assert main(["figure2", "--nx", "3", "--ny", "3"]) == 0
        assert "n=9" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "LAP30" in out and "BUS1138" in out

    def test_unknown_target_rejected(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_figure4_custom_matrix(self, capsys):
        assert main(["figure4", "--matrix", "DWT512", "--grain", "8"]) == 0
        assert "dependency categories" in capsys.readouterr().out

    def test_unknown_subtarget_for_non_trace_rejected(self, capsys):
        assert main(["figure3", "extra"]) == 2
        assert "only 'trace'" in capsys.readouterr().err

    def test_quiet_suppresses_output(self, capsys):
        assert main(["-q", "figure3"]) == 0
        assert capsys.readouterr().out == ""

    def test_verbose_prints_stage_timings_to_stderr(self, fresh_caches, capsys):
        assert main(["-v", "stats", "--matrix", "LAP30", "--grain", "25"]) == 0
        captured = capsys.readouterr()
        assert "Partition statistics" in captured.out
        assert "Stage timings" in captured.err
        assert "Counters" in captured.err


class TestTraceTarget:
    def test_trace_without_subtarget_errors(self, capsys):
        assert main(["trace"]) == 2
        assert "needs a target" in capsys.readouterr().err

    def test_trace_unknown_subtarget_errors(self, capsys):
        assert main(["trace", "nosuch"]) == 2
        assert "unknown target 'nosuch'" in capsys.readouterr().err

    def test_trace_writes_chrome_trace_and_summary(self, fresh_caches, tmp_path, capsys):
        out = tmp_path / "run.json"
        jsonl = tmp_path / "run.jsonl"
        assert main([
            "trace", "stats", "--matrix", "LAP30", "--grain", "25",
            "--nprocs", "8",
            "--trace-out", str(out), "--trace-jsonl", str(jsonl),
        ]) == 0
        captured = capsys.readouterr().out
        assert "Stage timings" in captured
        assert "Simulated timeline" in captured
        assert str(out) in captured

        doc = json.loads(out.read_text())
        spans = {
            e["name"] for e in doc["traceEvents"]
            if e.get("ph") == "X" and e.get("pid") == 1
        }
        for stage in ("pipeline.order", "pipeline.symbolic",
                      "pipeline.enumerate_updates", "pipeline.partition",
                      "pipeline.dependencies", "pipeline.schedule",
                      "pipeline.metrics", "cli.target", "cli.simulate"):
            assert stage in spans
        unit_events = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and e.get("pid") == 2
        ]
        assert unit_events and all(e["dur"] >= 0 for e in unit_events)
        assert doc["otherData"]["counters"]["sim.units"] == len(unit_events)

        records = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert {"span", "timeline", "counter", "gauge"} <= {r["type"] for r in records}

    def test_trace_leaves_tracing_disabled(self, tmp_path):
        from repro.obs import trace as obs_trace

        assert main(["trace", "figure3", "--matrix", "LAP30"]) == 0
        assert not obs_trace.is_enabled()


class TestHelp:
    def test_help_lists_every_target(self, capsys):
        from repro.cli import _TARGET_HELP

        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "targets:" in out
        for name, desc in _TARGET_HELP.items():
            assert f"{name} " in out or f"{name}\n" in out, name
            assert desc in out, name
        assert "REPRO_TRACE_OUT" in out and "REPRO_RUNS_DIR" in out

    def test_help_order_is_stable(self, capsys):
        from repro.cli import _TARGET_HELP

        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        epilog = out[out.index("targets:"):]
        positions = [epilog.index(f"  {name} ".rstrip() + " ")
                     for name in _TARGET_HELP]
        assert positions == sorted(positions)


class TestTraceOutEnv:
    def test_env_var_sets_trace_default(self, fresh_caches, tmp_path,
                                        monkeypatch, capsys):
        out = tmp_path / "env-trace.json"
        monkeypatch.setenv("REPRO_TRACE_OUT", str(out))
        assert main(["trace", "figure3", "--matrix", "LAP30", "-q"]) == 0
        doc = json.loads(out.read_text())
        assert doc["traceEvents"]

    def test_flag_overrides_env_var(self, fresh_caches, tmp_path,
                                    monkeypatch):
        env_out = tmp_path / "env.json"
        flag_out = tmp_path / "flag.json"
        monkeypatch.setenv("REPRO_TRACE_OUT", str(env_out))
        assert main(["trace", "figure3", "--matrix", "LAP30", "-q",
                     "--trace-out", str(flag_out)]) == 0
        assert flag_out.exists() and not env_out.exists()


class TestSweepTarget:
    def test_trace_out_writes_merged_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--matrix", "DWT512", "--procs", "2",
                     "--grains", "4", "--jobs", "1", "-q",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--trace-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert "perf.sweep.run" in names
        assert any(n.startswith("perf.sweep.group") for n in names)
        assert str(out) in capsys.readouterr().err

    def test_env_var_sets_sweep_trace_default(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep-env.json"
        monkeypatch.setenv("REPRO_TRACE_OUT", str(out))
        assert main(["sweep", "--matrix", "DWT512", "--procs", "2",
                     "--grains", "4", "-q",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert json.loads(out.read_text())["traceEvents"]


class TestRemovedSurface:
    """The per-cell sweep path and its harness are gone: asking for
    them is a usage error, not a silent fallback."""

    @pytest.mark.parametrize("argv", [
        ["bench-sweep"],
        ["bench-sweep", "--smoke"],
        ["sweep", "--matrix", "DWT512", "--no-reuse"],
    ])
    def test_exits_2_with_an_error_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err


class TestNonPositiveGrain:
    """A grain below 1 is refused before anything is measured (or
    cached, or recorded) under that label."""

    @pytest.mark.parametrize("grain", ["0", "-3"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_sweep(self, grain, jobs, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["sweep", "--matrix", "DWT512", "--schemes", "block",
                     "--grains", grain, "--jobs", jobs,
                     "--cache-dir", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: grains must be at least 1")
        assert captured.out == "" and not cache.exists()

    @pytest.mark.parametrize("grain", ["0", "-3"])
    def test_stats(self, grain, capsys):
        assert main(["stats", "--matrix", "DWT512", "--grain", grain]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: grain must be at least 1\n"
        assert captured.out == ""

    @pytest.mark.parametrize("scheme", ["block", "block-adaptive"])
    def test_explain(self, scheme, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["explain", "DWT512", "--scheme", scheme,
                     "--grain", "0"]) == 2
        assert capsys.readouterr().err == "error: grain must be at least 1\n"
        assert not list(tmp_path.glob("EXPLAIN_*.html"))


class TestExplainTarget:
    def test_explain_writes_registry_run_and_report(self, tmp_path, capsys,
                                                    monkeypatch):
        from repro.obs import runs as obs_runs

        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "registry"))
        out = tmp_path / "explain.html"
        assert main(["explain", "LAP30", "--scheme", "wrap", "-p", "16",
                     "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "critical path" in text
        assert "registry run" in text

        (manifest,) = obs_runs.list_runs(kind="explain")
        doc = manifest["explain"]
        assert doc["scheme"] == "wrap" and doc["nprocs"] == 16
        assert doc["message_bytes"] == doc["traffic_total"]
        assert manifest["counters"]["explain.message_bytes"] == doc["message_bytes"]

        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>") or "<html" in html
        for anchor in ("Communication matrix", "Critical path",
                       "Imbalance", "Processor time"):
            assert anchor in html
        # Self-contained: no external fetches.
        assert "http://" not in html and "https://" not in html

    def test_explain_positional_matrix(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUNS_DIR", str(tmp_path / "registry"))
        monkeypatch.chdir(tmp_path)
        assert main(["explain", "LAP30"]) == 0
        assert (tmp_path / "EXPLAIN_LAP30_block_p16.html").exists()

    def test_explain_rejects_unknown_scheme(self, capsys):
        with pytest.raises(SystemExit):
            main(["explain", "LAP30", "--scheme", "nosuch"])
