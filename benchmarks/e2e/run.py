"""End-to-end benchmark of the repro pipeline: one command, six workloads.

    python3 benchmarks/e2e/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--out F]
        [--golden F] [--update-golden]

Closed loop, one client: every workload runs in its own fresh child
interpreter (child.py), passes back to back, under a scrubbed and pinned
environment.  Prints every metric of BENCHMARK.json by name with its
unit, checks the outputs, and ends with one JSON line per workload
(``correct``, ``attempted``, ``failed``, ``metrics``).  Exits non-zero if
any operation failed or a child could not run.  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

from spans import fastest_quarter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
TMP_ROOT = HERE / ".tmp"
GOLDEN = HERE / "golden.json"

# Timed passes per workload at BENCHMARK.json's run_seconds; --seconds
# scales them, never below MIN_PASSES.  Fixed, so two runs of one commit
# take the same number of samples.
PASSES = {
    "mesh2d": 12,
    "network": 12,
    "sweep_cold": 9,
    "sweep_warm": 10,
    "simulate": 13,
    "execute": 13,
}
MIN_PASSES = 9
TRACE_PASSES = 5  # under --trace: this many untraced/traced pairs
SETUP_SAMPLES = 3  # fresh interpreters whose set-up time is taken
DEADLINE_S = 170.0  # the whole command must end within 180 s

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # glibc: keep numpy temporaries on the heap and never trim it, or a
    # pass spends up to half its wall in mmap/munmap page faults.
    "MALLOC_MMAP_MAX_": "0",
    "MALLOC_TRIM_THRESHOLD_": "4294967296",
    # numpy asks for transparent huge pages on large arrays; whether the
    # kernel has any to give changed a mesh2d pass's system time between
    # 0.1 and 0.4 s from run to run.  Without the request: 0.02 s, always.
    "NUMPY_MADVISE_HUGEPAGE": "0",
}

# Address-space randomisation moves the heap, and with it the iteration
# order of every set and dict keyed by object identity: the allocation
# pattern then differs from one interpreter to the next, and the peak RSS
# of `simulate` at ONE seed read 123, 125 or 127 MB.  Without it: the
# same number to the kilobyte.  Only the children are started this way.
ADDR_NO_RANDOMIZE = 0x0040000
try:
    _personality = ctypes.CDLL(None, use_errno=True).personality
except (OSError, AttributeError):  # not Linux/glibc: children keep ASLR
    _personality = None


def fix_address_space() -> None:
    """Popen ``preexec_fn``: runs in the forked child, before exec."""
    if _personality is not None:
        persona = _personality(0xFFFFFFFF)  # query
        if persona != -1:
            _personality(persona | ADDR_NO_RANDOMIZE)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(tmp: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp / "cache")
    env["REPRO_RUNS_DIR"] = str(tmp / "runs")
    env["TMPDIR"] = str(tmp)
    return env


def run_child(workload: str, args, passes: int, deadline: float, setup_only=False) -> dict:
    """One fresh interpreter in a private temp dir inside the checkout;
    the dir is removed and the child's process group is gone on return."""
    TMP_ROOT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP_ROOT))
    result = tmp / "result.json"
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--passes", str(passes),
        "--profile", "smoke" if args.smoke else "full",
        "--trace", str(args.trace),
        "--tmp", str(tmp),
        "--result", str(result),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(tmp), start_new_session=True,
            preexec_fn=fix_address_space,
        )
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            # Also reaps pool workers of the jobs=2 sweep, if any linger.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if code != 0:
            raise SystemExit(f"error: {workload} child ended with {code}")
        return json.loads(result.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def five_numbers(values) -> dict:
    q1, q2, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {
        "n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3,
        "max": max(values),
    }


def run_workload(name: str, args, spec: dict, golden: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if args.smoke:
        passes, setups = 1, 1
    elif args.trace:
        passes, setups = TRACE_PASSES, 1
    else:
        scale = args.seconds / spec["run_seconds"]
        passes, setups = max(MIN_PASSES, round(PASSES[name] * scale)), SETUP_SAMPLES
    setup_samples = [
        run_child(name, args, passes, deadline, setup_only=True)["setup_s"]
        for _ in range(setups - 1)
    ]
    rec = run_child(name, args, passes, deadline)
    setup_samples.append(rec["setup_s"])

    attempted, failed, errors = rec["attempted"], rec["failed"], rec["errors"]
    profile = "smoke" if args.smoke else "full"
    if args.update_golden:
        golden.setdefault(profile, {})[name] = rec["outputs"]
    elif args.seed == 0:
        # Exact outputs of seed 0 are pinned across commits.
        attempted += 1
        if golden.get(profile, {}).get(name) != rec["outputs"]:
            failed += 1
            errors.append("outputs differ from golden.json")

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = rec["layers"]
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": median(setup_samples),
            "wall_s": fastest_quarter(rec["walls_s"]),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    rec.update(
        metrics={n: {"value": values[n], "unit": u} for n, u in units.items()},
        attempted=attempted,
        failed=failed,
        correct=failed == 0,
        passes=passes,
        pass_wall_s=five_numbers(rec["walls_s"]),
        setup_samples_s=setup_samples,
    )
    return rec


def report(name: str, rec: dict) -> None:
    w = rec["pass_wall_s"]
    print(
        f"== {name}  seed={rec['seed']}  passes={rec['passes']}  "
        f"result_fingerprint={rec['result_fingerprint']}"
    )
    print(
        f"   pass wall: n={w['n']} min={w['min']:.4f} q1={w['q1']:.4f} "
        f"median={w['median']:.4f} q3={w['q3']:.4f} max={w['max']:.4f} s; "
        f"child cpu: user={rec['user_s']:.2f} sys={rec['sys_s']:.2f} s"
    )
    for metric, m in rec["metrics"].items():
        print(f"   {name:<11} {metric:<34} {m['value']:>16.6g} {m['unit']}")
    frac = rec["failed"] / rec["attempted"]
    print(
        f"   {name:<11} {'failed_frac':<34} {frac:>16.6g} ratio "
        f"({rec['failed']} of {rec['attempted']} operations)"
    )
    for err in rec["errors"]:
        print(f"   FAILED: {err.strip()}")


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names,
                    help="repeatable; default: all six")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measuring time the pass counts are scaled to")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                    help="1: report the per-layer metrics instead")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one pass: proves the harness only")
    ap.add_argument("--out", type=Path, help="write the full record as JSON")
    ap.add_argument("--golden", type=Path, default=GOLDEN)
    ap.add_argument("--update-golden", action="store_true")
    args = ap.parse_args(argv)

    golden = json.loads(args.golden.read_text()) if args.golden.exists() else {}
    doc = {
        "seed": args.seed,
        "trace": args.trace,
        "profile": "smoke" if args.smoke else "full",
        "git_sha": git_sha(),
        "host": {
            "nproc": nproc(),
            "machine": platform.machine(),
            "platform": platform.platform(),
        },
        # the pinned and scrubbed part; the rest is inherited as it is
        "env": {
            k: v
            for k, v in child_env(Path("<private tmp>")).items()
            if k in PINNED_ENV or k.startswith(("REPRO_", "PYTHONPATH"))
        },
        "workloads": {},
    }
    records = doc["workloads"]
    for name in args.workload or names:
        records[name] = run_workload(name, args, spec, golden)
        report(name, records[name])
    cold, warm = records.get("sweep_cold"), records.get("sweep_warm")
    if cold and warm and cold["result_fingerprint"] != warm["result_fingerprint"]:
        print("FAILED: sweep_cold and sweep_warm records differ")
        for rec in (cold, warm):
            rec["failed"] += 1
            rec["correct"] = False
    results = [
        {k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}
        for rec in records.values()
    ]
    if args.update_golden:
        args.golden.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for r in results:
        print(json.dumps(r))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
