"""Partition statistics and the generated blocks of EXPERIMENTS.md."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    partition_statistics,
    render_partition_stats,
)
from repro.core import partition_factor


#: A document with two generated blocks; EMPTY has both blocks empty.
DOC = """# doc

<!-- BEGIN generated:a -->
{a}<!-- END generated:a -->

prose

<!-- BEGIN generated:b -->
{b}<!-- END generated:b -->

tail
"""
EMPTY = DOC.format(a="", b="")


def blocks(text: str) -> dict[str, str]:
    """Generated block key -> the block, markers included."""
    return {m.group(1): m.group(0) for m in re.finditer(
        r"<!-- BEGIN generated:(\S+) -->.*?<!-- END generated:\1 -->", text, re.S)}


@pytest.fixture
def small_sections(monkeypatch):
    from repro.analysis import report

    monkeypatch.setattr(report, "SECTIONS",
                        {"a": lambda: "alpha", "b": lambda: "beta"})


@pytest.fixture(scope="module")
def partition(prepared_grid):
    return partition_factor(prepared_grid.pattern, grain=4, min_width=2)


class TestPartitionStatistics:
    def test_unit_census_consistent(self, partition):
        s = partition_statistics(partition)
        assert s["units"] == partition.num_units
        assert sum(s["units_by_kind"].values()) == s["units"]

    def test_cluster_counts(self, partition):
        s = partition_statistics(partition)
        assert s["clusters"] == len(partition.clusters)
        assert s["multi_column_clusters"] <= s["clusters"]

    def test_size_distribution_ordering(self, partition):
        s = partition_statistics(partition)
        assert s["unit_nnz_min"] <= s["unit_nnz_median"] <= s["unit_nnz_max"]

    def test_render(self, partition):
        out = render_partition_stats(partition, "t")
        assert out.startswith("t")
        assert "unit blocks" in out


class TestReport:
    def test_cli_stats(self, capsys):
        from repro.cli import main

        assert main(["stats", "--matrix", "DWT512", "--grain", "8"]) == 0
        assert "Partition statistics" in capsys.readouterr().out

    def test_report_written_to_file(self):
        # Every section once, fenced between its markers, in order; and
        # EXPERIMENTS.md carries exactly these blocks (what CI's
        # render-and-diff step checks).
        from repro.analysis import SECTIONS, generate_report

        report = generate_report()
        assert list(blocks(report)) == list(SECTIONS)
        assert report.startswith("<!-- BEGIN generated:compare -->\n```text\n")
        experiments = (Path(__file__).parents[2] / "EXPERIMENTS.md").read_text()
        assert blocks(experiments) == blocks(report)

    def test_cli_report_output_flag(self, tmp_path, capsys, small_sections):
        from repro.cli import main

        out = tmp_path / "doc.md"
        out.write_text(DOC.format(a="stale", b=""))
        assert main(["report", "--output", str(out)]) == 0
        assert "rewritten in" in capsys.readouterr().out
        assert out.read_text() == DOC.format(a="```text\nalpha\n```\n",
                                             b="```text\nbeta\n```\n")
        assert main(["report"]) == 0
        assert capsys.readouterr().out == (
            "<!-- BEGIN generated:a -->\n```text\nalpha\n```\n<!-- END generated:a -->\n\n"
            "<!-- BEGIN generated:b -->\n```text\nbeta\n```\n<!-- END generated:b -->\n\n"
        )

    @pytest.mark.parametrize("doc, message", [
        (EMPTY.replace("generated:b", "generated:c"), "unknown generated block 'c'"),
        (EMPTY.split("prose")[0], "generated block 'b' is missing"),
        (EMPTY + EMPTY, "generated block 'a' is duplicated"),
        (EMPTY.replace("<!-- END generated:a -->", ""), "generated block 'a' is not closed"),
    ])
    def test_bad_markers_exit_2_naming_the_key(self, tmp_path, capsys,
                                               small_sections, doc, message):
        from repro.cli import main

        out = tmp_path / "doc.md"
        out.write_text(doc)
        assert main(["report", "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert out.read_text() == doc

    def test_import_loads_no_mpsim_or_numeric(self):
        code = ("import sys, repro.analysis; print(sorted(m for m in sys.modules "
                "if m.startswith(('repro.mpsim', 'repro.numeric'))))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[2] / "src")}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"
