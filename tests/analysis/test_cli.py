"""CLI entry point."""

import csv
import io
import json

import pytest

from repro import analysis
from repro.cli import PLAIN, TARGETS, main


@pytest.fixture
def fresh_caches():
    """Clear the experiment harness' per-process memos (the prepared
    matrices and the swept table cells) so a traced run exercises every
    pipeline stage (prepare included)."""
    from repro.analysis import experiments

    experiments.prepared_matrix.cache_clear()
    experiments._cells.cache_clear()
    yield
    experiments.prepared_matrix.cache_clear()
    experiments._cells.cache_clear()


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
        assert main([
            "trace", "explain", "--matrix", "LAP30", "--grain", "25",
            "--nprocs", "8", "--output", str(tmp_path / "explain.html"),
            "--trace-out", str(out),
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
                      "pipeline.metrics", "cli.target"):
            assert stage in spans
        # The trace measures its target and nothing appended to it.
        assert "cli.simulate" not in spans
        unit_events = [
            e for e in doc["traceEvents"]
            if e.get("ph") == "X" and e.get("pid") == 2
        ]
        assert unit_events and all(e["dur"] >= 0 for e in unit_events)
        assert doc["otherData"]["counters"]["sim.units"] == len(unit_events)
        assert doc["otherData"]["gauges"] and doc["otherData"]["sim_runs"]

    def test_trace_jsonl_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "figure3", "--trace-jsonl", "run.jsonl"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --trace-jsonl" in capsys.readouterr().err

    def test_trace_sweep_of_several_matrices_prints_the_csv(self, capsys):
        from repro.perf import records_to_csv, sweep

        assert main(["trace", "sweep", "--matrix", "LAP30,DWT512",
                     "--procs", "4", "--grains", "25"]) == 0
        captured = capsys.readouterr()
        expected = records_to_csv(sweep(["LAP30", "DWT512"], procs=(4,), grains=(25,)))
        assert captured.out.startswith(expected + "\n")
        assert "error" not in captured.err

    def test_trace_all_runs_the_nine_paper_targets(self, capsys):
        assert main(["trace", "all"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(_paper_text() + "\n\n")
        assert "Stage timings" in out

    @pytest.mark.parametrize("wrapper", ["trace", "profile"])
    @pytest.mark.parametrize("sub", ["runs", "cache", "trace", "profile"])
    def test_only_plain_targets_can_be_wrapped(self, wrapper, sub, capsys):
        assert main([wrapper, sub]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: unknown target {sub!r}; expected one of: ")
        offered = err.split("expected one of: ")[1].strip().split(", ")
        assert offered == [t.name for t in TARGETS if t.kind == PLAIN]
        assert sub not in offered

    def test_trace_leaves_tracing_disabled(self, tmp_path):
        from repro.obs import trace as obs_trace

        assert main(["trace", "figure3", "--matrix", "LAP30"]) == 0
        assert not obs_trace.is_enabled()


class TestHelp:
    def test_help_lists_every_target(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "targets:" in out
        for target in TARGETS:
            assert f"{target.name} " in out or f"{target.name}\n" in out, target.name
            assert target.help in out, target.name
        assert "REPRO_TRACE_OUT" in out and "REPRO_RUNS_DIR" in out

    def test_help_order_is_stable(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        epilog = out[out.index("targets:"):]
        positions = [epilog.index(f"  {target.name} ") for target in TARGETS]
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

    def test_paper_sweep_csv_is_the_tables(self, tmp_path, capsys):
        """Every block and wrap cell of the default paper sweep is the
        cell Tables 2, 3 and 5 render."""
        assert main(["sweep", "--matrix", "BUS1138,CANN1072,DWT512,LAP30,LSHP1009",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        t2 = {(r["matrix"], r["nprocs"]): r for r in analysis.table2_rows()}
        t3 = {(r["matrix"], r["nprocs"]): r for r in analysis.table3_rows()}
        t5 = {(r["matrix"], r["nprocs"]): r for r in analysis.table5_rows()}
        assert len(rows) == 5 * 3 * 3
        for row in rows:
            key = (row["matrix"], int(row["nprocs"]))
            total, mean = int(row["traffic_total"]), round(float(row["traffic_mean"]))
            lam = float(row["imbalance"])
            if row["scheme"] == "wrap":
                assert (total, mean, lam) == (
                    t5[key]["total"], t5[key]["mean"], t5[key]["imbalance"]), row
            else:
                g = row["grain"]
                assert (total, mean, lam) == (
                    t2[key][f"total_g{g}"], t2[key][f"mean_g{g}"],
                    t3[key][f"imbalance_g{g}"]), row


class TestEmptyGridAxis:
    @pytest.mark.parametrize("flag", ["--procs", "--grains", "--min-widths"])
    def test_sweep_refuses_an_empty_list(self, flag, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--matrix", "DWT512", flag, ",",
                  "--cache-dir", str(tmp_path / "cache")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "expected at least one int, got ','" in captured.err
        assert captured.out == "" and not (tmp_path / "cache").exists()


def _paper_text() -> str:
    return "\n\n".join([
        analysis.render_table1(), analysis.render_table2(),
        analysis.render_table3(), analysis.render_table4(),
        analysis.render_table5(), analysis.figure1_ascii(),
        analysis.figure2_ascii(5, 5), analysis.figure3_ascii(),
        analysis.figure4_report("LAP30", 25),
    ])


def _stats_text(tmp_path) -> str:
    from repro.analysis.experiments import prepared_matrix
    from repro.core import partition_factor

    partition = partition_factor(prepared_matrix("DWT512").pattern, grain=8)
    return analysis.render_partition_stats(partition, "Partition statistics: DWT512, g=8")


def _scorecard_text(tmp_path) -> str:
    from repro.analysis.experiments import prepared_matrix
    from repro.core import block_mapping, wrap_mapping
    from repro.machine import scorecard

    prep = prepared_matrix("DWT512")
    cards = [scorecard(r.assignment, prep.updates)
             for r in (block_mapping(prep, 16, grain=8), wrap_mapping(prep, 16))]
    rows = [[key] + [c[key] for c in cards] for key in cards[0] if key != "scheme"]
    return analysis.render_table(["metric"] + [c["scheme"] for c in cards], rows,
                                 "Scorecard: DWT512 at P=16 (block g=8 vs wrap)")


def _explain_text(tmp_path) -> str:
    from repro.analysis.explain import explain_run, render_explain
    from repro.obs import runs as obs_runs

    (manifest,) = obs_runs.list_runs(kind="explain")
    return (render_explain(explain_run("DWT512", scheme="block", nprocs=16, grain=25))
            + f"\n\nregistry run {manifest['run_id']} (kind explain)"
            + f"\nHTML report written to {tmp_path / 'explain.html'}")


def _sweep_text(tmp_path) -> str:
    from repro.perf import records_to_csv, sweep

    return records_to_csv(sweep(["DWT512"], procs=(2, 4), grains=(4,))).rstrip("\n")


#: Per plain target: its extra argv ({tmp} is the test's directory) and
#: its renderer's text, computed after the run (explain renders what the
#: run wrote).
_PLAIN_CASES = {
    "table1": ([], lambda tmp: analysis.render_table1()),
    "table2": ([], lambda tmp: analysis.render_table2()),
    "table3": ([], lambda tmp: analysis.render_table3()),
    "table4": ([], lambda tmp: analysis.render_table4()),
    "table5": ([], lambda tmp: analysis.render_table5()),
    "figure1": ([], lambda tmp: analysis.figure1_ascii()),
    "figure2": (["--nx", "4", "--ny", "3"], lambda tmp: analysis.figure2_ascii(4, 3)),
    "figure3": ([], lambda tmp: analysis.figure3_ascii()),
    "figure4": (["--matrix", "DWT512", "--grain", "8"],
                lambda tmp: analysis.figure4_report("DWT512", 8)),
    "all": ([], lambda tmp: _paper_text()),
    "stats": (["--matrix", "DWT512", "--grain", "8"], _stats_text),
    "report": ([], lambda tmp: analysis.generate_report()),
    "claims": (["--matrix", "DWT512"], lambda tmp: analysis.render_claims("DWT512")),
    "compare": ([], lambda tmp: analysis.render_comparison()),
    "scorecard": (["--matrix", "DWT512", "--grain", "8"], _scorecard_text),
    "explain": (["DWT512", "--output", "{tmp}/explain.html"], _explain_text),
    "sweep": (["--matrix", "DWT512", "--procs", "2,4", "--grains", "4",
               "--cache-dir", "{tmp}/cache"], _sweep_text),
}


class TestDispatch:
    """Each table entry prints exactly what its renderer returns."""

    def test_every_plain_target_has_a_case(self):
        assert set(_PLAIN_CASES) == {t.name for t in TARGETS if t.kind == PLAIN}

    @pytest.mark.parametrize("name", sorted(_PLAIN_CASES))
    def test_stdout_is_the_renderer_text(self, name, tmp_path, capsys):
        extra, expected = _PLAIN_CASES[name]
        argv = [name] + [a.format(tmp=tmp_path) for a in extra]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == expected(tmp_path) + "\n"


class TestRemovedSurface:
    """The per-cell sweep path, the pipeline bench and their harnesses
    are gone: asking for them is a usage error, not a silent fallback."""

    @pytest.mark.parametrize("argv", [
        ["bench-sweep"],
        ["bench-sweep", "--smoke"],
        ["sweep", "--matrix", "DWT512", "--no-reuse"],
        ["bench"],
        ["bench", "--smoke"],
        ["sweep", "--tier", "big"],
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
        assert captured.err == (
            f"error: grains must be positive: an integer in 1..2147483647, got {grain}\n"
        )
        assert captured.out == "" and not cache.exists()

    @pytest.mark.parametrize("grain", ["0", "-3"])
    def test_stats(self, grain, capsys):
        assert main(["stats", "--matrix", "DWT512", "--grain", grain]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: grain must be positive: an integer in 1..2147483647, got {grain}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("scheme", ["block", "block-adaptive"])
    def test_explain(self, scheme, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["explain", "DWT512", "--scheme", scheme,
                     "--grain", "0"]) == 2
        assert capsys.readouterr().err == (
            "error: grain must be positive: an integer in 1..2147483647, got 0\n"
        )
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
