"""Smoke tests: every example must run end-to-end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def _run(script: str, *args: str, timeout: int = 240) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = _run("quickstart.py")
        assert "saving" in out
        assert "LAP30" in out

    def test_partition_gallery(self):
        out = _run("partition_gallery.py")
        assert "widest cluster" in out
        assert "dependency edges" in out

    def test_custom_matrix_demo_mode(self):
        out = _run("custom_matrix.py")
        assert "Mapping comparison" in out

    def test_tradeoff_sweep_small(self):
        out = _run("tradeoff_sweep.py", "DWT512", "8")
        assert "lowest traffic at g=" in out

    def test_machine_design_space(self):
        out = _run("machine_design_space.py", "DWT512")
        assert "winner" in out

    def test_distributed_solve(self):
        out = _run("distributed_solve.py", "2")
        assert "residual" in out
