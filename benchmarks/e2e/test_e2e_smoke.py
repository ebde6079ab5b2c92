"""``run.py --smoke``: the harness prints what BENCHMARK.json promises,
fails on a wrong output, and leaves nothing behind.  Tiny inputs, one
pass per workload; the numbers themselves mean nothing here."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run(script, *args):
    return subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def test_spec_is_within_the_contract_limits():
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_once_per_workload(trace, key, tmp_path):
    out = tmp_path / "out.json"
    proc = run("run.py", "--smoke", "--trace", trace, "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    units = {m["name"]: m["unit"] for m in SPEC[key]}
    printed = re.findall(r"^   (\S+) +(\S+) +(\S+) (\S+)", proc.stdout, re.M)
    for workload in WORKLOADS:
        seen = [(m, u) for w, m, _v, u in printed if w == workload and m in units]
        assert sorted(seen) == sorted(units.items()), workload
    results = [json.loads(line) for line in proc.stdout.splitlines()[-len(WORKLOADS):]]
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == set(units)
    doc = json.loads(out.read_text())
    assert set(doc["workloads"]) == set(WORKLOADS)
    assert {"host", "env", "git_sha", "seed"} <= set(doc)
    assert not any(k.startswith("REPRO_TRACE") for k in doc["env"])
    assert not (HERE / ".tmp").exists(), "temp cache/runs dirs were left behind"

    same = run("compare.py", str(out), str(out))
    assert same.returncode == 0, same.stdout
    doc["workloads"]["mesh2d"]["result_fingerprint"] = "0" * 64
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc))
    assert run("compare.py", str(out), str(other)).returncode == 1


def test_corrupted_golden_entry_fails_the_run(tmp_path):
    golden = json.loads((HERE / "golden.json").read_text())
    golden["smoke"]["mesh2d"]["factor_nnz"] += 1
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps(golden))
    proc = run("run.py", "--smoke", "--workload", "mesh2d", "--golden", str(bad))
    assert proc.returncode != 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"] and result["failed"] > 0
    assert "golden" in proc.stdout
