"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, metric): A, B, the relative difference and, for
end-to-end metrics, a verdict against the bound in BENCHMARK.json:

* ``ok``          B is no worse than A by more than the bound;
* ``unresolved``  within the bound, but the spread inside one of the two
                  runs (quartile range of the pass times, range of the
                  set-up samples) is wider than the bound, so "unchanged"
                  cannot be claimed;
* ``WORSE``       out of bound.

Per-layer metrics have no bound; at equal seed their exact counts must
repeat.  Exits 1 on any ``WORSE``, on more failed operations in B, and,
at equal seed, on a ``result_fingerprint`` or exact-count mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
EXACT_UNITS = {"count", "bytes", "simtime"}


def spread(rec: dict, metric: str) -> float:
    """Spread inside one run, as a share of the median."""
    if metric == "wall_s":
        w = rec["pass_wall_s"]
        return (w["q3"] - w["q1"]) / w["median"]
    if metric == "setup_s":
        s = rec["setup_samples_s"]
        return (max(s) - min(s)) / rec["metrics"]["setup_s"]["value"]
    return 0.0


def compare(a: dict, b: dict, spec: dict) -> tuple[list[list], bool]:
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    same_seed = a["seed"] == b["seed"] and a["profile"] == b["profile"]
    rows, bad = [], False
    for name, ra in a["workloads"].items():
        rb = b["workloads"].get(name)
        if rb is None:
            continue
        for metric, ma in ra["metrics"].items():
            if metric not in rb["metrics"]:
                continue
            va, vb = ma["value"], rb["metrics"][metric]["value"]
            rel = (vb - va) / va if va else (0.0 if vb == va else float("inf"))
            verdict = ""
            if metric in bounded:
                m = bounded[metric]
                worse = rel if m["better"] == "lower" else -rel
                if worse > m["bound"]:
                    verdict = "WORSE"
                elif max(spread(ra, metric), spread(rb, metric)) > m["bound"]:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
            elif same_seed and layers[metric]["unit"] in EXACT_UNITS:
                verdict = "same" if va == vb else "DIFFERS"
            bad |= verdict in ("WORSE", "DIFFERS")
            rows.append([name, metric, va, vb, rel, ma["unit"], verdict])
        fa, fb = ra["failed"] / ra["attempted"], rb["failed"] / rb["attempted"]
        verdict = "WORSE" if fb > fa else "ok"
        rows.append([name, "failed_frac", fa, fb, fb - fa, "ratio", verdict])
        bad |= verdict == "WORSE"
        if same_seed:
            same = ra["result_fingerprint"] == rb["result_fingerprint"]
            rows.append([name, "result_fingerprint", ra["result_fingerprint"][:12],
                         rb["result_fingerprint"][:12], 0.0, "sha256",
                         "same" if same else "DIFFERS"])
            bad |= not same
    return rows, bad


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    rows, bad = compare(a, b, json.loads(SPEC.read_text()))
    print(f"{'workload':<11} {'metric':<34} {'A':>14} {'B':>14} {'B vs A':>9}  unit     verdict")
    for name, metric, va, vb, rel, unit, verdict in rows:
        fmt = (lambda v: f"{v:>14}") if isinstance(va, str) else (lambda v: f"{v:>14.6g}")
        print(f"{name:<11} {metric:<34} {fmt(va)} {fmt(vb)} {rel:>+9.2%}  {unit:<8} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
