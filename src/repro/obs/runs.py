"""Persistent run registry: one manifest per recorded run.

Every ``python -m repro sweep|explain|trace|profile`` invocation
appends one JSON line to ``.repro/runs/<kind>.jsonl`` describing the run:

* identity — a unique ``run_id``, the run ``kind``, creation time and
  the git SHA of the working tree (when available);
* configuration — the grid/matrix/parameter set the run measured;
* measurements — per-stage timings (:data:`STAGES`) and peak RSS in a
  ``matrices`` shape (``{name: {"stages", "wall_total", "mem_peak_mb"}}``),
  so two manifests compare alike, plus cache hit/miss counters and the
  wall clock.

``python -m repro runs list|show|compare`` reads the registry back;
``runs compare OLD NEW --fail-on-regression`` is the gate — it exits
nonzero when any stage regressed beyond :data:`REGRESSION_THRESHOLD`
(25%).  The gate lives here, beside the manifests it compares:
:func:`compare_runs`, :func:`find_run_regressions` and
:func:`render_run_delta` each take the baseline first.

The registry root defaults to ``.repro/runs`` under the current
directory and can be redirected with ``$REPRO_RUNS_DIR`` (tests and CI
do).  Registry writes are advisory: a read-only checkout must never
break a sweep, so :func:`record_run` swallows ``OSError``.  Imports are
standard-library only.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
import uuid
from pathlib import Path

__all__ = [
    "RUNS_SCHEMA_VERSION",
    "default_runs_dir",
    "git_sha",
    "host_info",
    "record_run",
    "list_runs",
    "load_run",
    "REGRESSION_THRESHOLD",
    "STAGES",
    "compare_runs",
    "describe_regression",
    "find_run_regressions",
    "render_runs_table",
    "render_run",
    "render_run_delta",
]

#: A stage (or peak-RSS) regression beyond this fraction of the baseline
#: fails ``runs compare --fail-on-regression``.
REGRESSION_THRESHOLD = 0.25

#: Stage name in a manifest -> span name recorded by the pipeline.
STAGES = {
    "order": "pipeline.order",
    "symbolic": "pipeline.symbolic",
    "enumerate_updates": "pipeline.enumerate_updates",
    "partition": "pipeline.partition",
    "dependencies": "pipeline.dependencies",
    "schedule": "pipeline.schedule",
    "metrics": "pipeline.metrics",
}

#: v2 added the ``host`` provenance block (hostname/platform/python/cpus)
#: to every manifest.  Readers treat both versions alike — v1 manifests
#: simply have no ``host`` key.
RUNS_SCHEMA_VERSION = 2


def default_runs_dir() -> Path:
    """``$REPRO_RUNS_DIR`` if set, else ``.repro/runs`` in the cwd."""
    env = os.environ.get("REPRO_RUNS_DIR")
    if env:
        return Path(env)
    return Path(".repro") / "runs"


def git_sha() -> str | None:
    """The working tree's HEAD SHA, or ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def host_info() -> dict:
    """Where a run was measured: enough to explain a timing delta that
    is really a machine delta, nothing identifying beyond the hostname."""
    return {
        "hostname": platform.node(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def _new_run_id(kind: str, created: float) -> str:
    stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime(created))
    return f"{kind}-{stamp}-{uuid.uuid4().hex[:6]}"


def record_run(
    kind: str,
    config: dict | None = None,
    matrices: dict | None = None,
    counters: dict | None = None,
    wall_s: float | None = None,
    root: str | Path | None = None,
    extra: dict | None = None,
) -> dict | None:
    """Append one run manifest to the registry; returns the manifest.

    ``matrices`` must follow the per-stage shape (``{name:
    {"stages": {...}, "wall_total": ...}}``) so two manifests of the
    same kind are directly comparable.  Returns ``None`` — and
    writes nothing — when the registry directory is not writable.
    """
    created = time.time()
    manifest = {
        "schema_version": RUNS_SCHEMA_VERSION,
        "run_id": _new_run_id(kind, created),
        "kind": kind,
        "created_unix": created,
        "created": time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(created)),
        "git_sha": git_sha(),
        "host": host_info(),
        "config": dict(config or {}),
        "matrices": dict(matrices or {}),
        "counters": {k: v for k, v in sorted((counters or {}).items())},
        "wall_s": None if wall_s is None else float(wall_s),
    }
    if extra:
        manifest.update(extra)
    path = Path(root) if root is not None else default_runs_dir()
    try:
        path.mkdir(parents=True, exist_ok=True)
        with open(path / f"{kind}.jsonl", "a") as fh:
            fh.write(json.dumps(manifest, sort_keys=True) + "\n")
    except OSError:
        return None
    return manifest


def list_runs(root: str | Path | None = None, kind: str | None = None) -> list[dict]:
    """Every recorded manifest, oldest first with same-second ties
    broken by run id — a total order, so CI log diffs are
    deterministic; bad lines are skipped."""
    path = Path(root) if root is not None else default_runs_dir()
    manifests: list[dict] = []
    if not path.is_dir():
        return manifests
    for file in sorted(path.glob("*.jsonl")):
        for line in file.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and (kind is None or doc.get("kind") == kind):
                manifests.append(doc)
    manifests.sort(
        key=lambda m: (m.get("created_unix", 0.0), str(m.get("run_id", "")))
    )
    return manifests


def load_run(ref: str, root: str | Path | None = None) -> dict:
    """Resolve ``ref`` to a manifest-shaped dict.

    ``ref`` may be the path of a manifest JSON file (loaded as it is),
    the literal ``latest`` / ``<kind>:latest``, a full ``run_id``, or a
    unique ``run_id`` prefix.  Raises :class:`ValueError` when nothing
    (or more than one run) matches.
    """
    if os.path.isfile(ref):
        with open(ref) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"{ref}: not a JSON object")
        return doc
    kind = None
    if ref == "latest" or ref.endswith(":latest"):
        kind = None if ref == "latest" else ref.rsplit(":", 1)[0]
        manifests = list_runs(root, kind)
        if not manifests:
            raise ValueError(f"no recorded runs match {ref!r}")
        return manifests[-1]
    manifests = list_runs(root)
    exact = [m for m in manifests if m.get("run_id") == ref]
    if len(exact) == 1:
        return exact[0]
    prefixed = [m for m in manifests if str(m.get("run_id", "")).startswith(ref)]
    if len(prefixed) == 1:
        return prefixed[0]
    if len(prefixed) > 1:
        ids = ", ".join(str(m["run_id"]) for m in prefixed[:5])
        raise ValueError(f"run ref {ref!r} is ambiguous: {ids}")
    raise ValueError(f"no run or file matches {ref!r}")


def _memory_rows(name: str, base: dict, cur: dict) -> list[dict]:
    """Peak-RSS delta rows (``unit: "mb"``) when both sides carry one.

    The values travel in the ``baseline_s``/``current_s`` keys every
    consumer already reads — :func:`find_run_regressions` applies the
    same 25% threshold to megabytes as to seconds, and the ``unit``
    field tells renderers which suffix to print.
    """
    b, c = base.get("mem_peak_mb"), cur.get("mem_peak_mb")
    if not isinstance(b, (int, float)) or not isinstance(c, (int, float)):
        return []
    if b <= 0 or c <= 0:
        return []
    return [
        {
            "matrix": name,
            "stage": "mem_peak",
            "baseline_s": float(b),
            "current_s": float(c),
            "speedup": float(b) / float(c),
            "unit": "mb",
        }
    ]


#: Matrix-name display columns never grow past this; longer generator
#: names are truncated with a ".." marker so the tables stay aligned.
_NAME_WIDTH_MAX = 18


def _name_width(names, minimum: int) -> int:
    """Width of the name column: fits the longest name, bounded."""
    return min(max([minimum] + [len(n) for n in names]), _NAME_WIDTH_MAX)


def _fit_name(name: str, width: int) -> str:
    return name if len(name) <= width else name[: width - 2] + ".."


def compare_runs(old: dict, new: dict) -> list[dict]:
    """Per-stage delta rows (``baseline`` = old, ``current`` = new) for
    matrices present in both.

    Volatile metadata (``created_unix``, repeat counts) is ignored; only
    stage times, wall totals and peak RSS are compared.  ``speedup`` > 1
    means ``new`` is faster.
    """
    rows = []
    base_matrices = old.get("matrices", {})
    for name, cur in new.get("matrices", {}).items():
        base = base_matrices.get(name)
        if base is None:
            continue
        for stage in list(STAGES) + ["wall_total"]:
            if stage == "wall_total":
                b, c = base.get("wall_total"), cur.get("wall_total")
            else:
                b = base.get("stages", {}).get(stage)
                c = cur.get("stages", {}).get(stage)
            if b is None or c is None:
                continue
            rows.append(
                {
                    "matrix": name,
                    "stage": stage,
                    "baseline_s": float(b),
                    "current_s": float(c),
                    "speedup": float(b) / float(c) if c else float("inf"),
                }
            )
        rows.extend(_memory_rows(name, base, cur))
    return rows


def describe_regression(row: dict) -> str:
    """One human-readable line for a regressed delta row (unit-aware:
    timing rows print milliseconds, memory rows megabytes)."""
    if row.get("unit") == "mb":
        cur, base = row["current_s"], row["baseline_s"]
        return (
            f"{row['matrix']}/{row['stage']}: "
            f"{cur:.1f}MB vs baseline {base:.1f}MB "
            f"({cur / base:.2f}x more memory)"
        )
    return (
        f"{row['matrix']}/{row['stage']}: "
        f"{row['current_s'] * 1e3:.2f}ms vs baseline "
        f"{row['baseline_s'] * 1e3:.2f}ms "
        f"({row['current_s'] / row['baseline_s']:.2f}x slower)"
    )


def find_run_regressions(
    old: dict, new: dict, threshold: float = REGRESSION_THRESHOLD
) -> list[str]:
    """Stages of ``new`` slower than ``old`` — or, for memory rows
    (``unit: "mb"``), hungrier — by more than ``threshold`` (fractional;
    0.25 = 25%), as human-readable strings."""
    return [
        describe_regression(row)
        for row in compare_runs(old, new)
        if row["current_s"] > row["baseline_s"] * (1.0 + threshold)
    ]


def render_run_delta(old: dict, new: dict) -> str:
    """ASCII per-stage delta table of ``new`` vs the baseline ``old``."""
    rows = compare_runs(old, new)
    if not rows:
        return "(no comparable matrices between current report and baseline)"
    stage_names = list(STAGES) + ["wall_total"]
    by_matrix: dict[str, dict[str, dict]] = {}
    for row in rows:
        by_matrix.setdefault(row["matrix"], {})[row["stage"]] = row
    nw = _name_width(by_matrix, 10)
    lines = [
        "  ".join([f"{'matrix':>{nw}}"] + [f"{h:>18}" for h in stage_names])
    ]
    for name, stages in by_matrix.items():
        cells = [f"{_fit_name(name, nw):>{nw}}"]
        for stage in stage_names:
            row = stages.get(stage)
            if row is None:
                cells.append(f"{'-':>18}")
            else:
                cells.append(
                    f"{row['current_s'] * 1e3:>10.2f} {row['speedup']:>5.2f}x"
                )
        lines.append("  ".join(cells))
    lines.append("(current ms and speedup vs baseline; >1x is faster)")
    return "\n".join(lines)


def render_runs_table(manifests: list[dict]) -> str:
    """One line per run: id, kind, created, git SHA, wall, matrices."""
    if not manifests:
        return "(no recorded runs)"
    headers = ["run id", "kind", "created", "git", "wall s", "matrices"]
    rows = []
    for m in manifests:
        sha = m.get("git_sha") or "-"
        wall = m.get("wall_s")
        rows.append(
            [
                str(m.get("run_id", "?")),
                str(m.get("kind", "?")),
                str(m.get("created", "?")),
                sha[:10],
                "-" if wall is None else f"{wall:.2f}",
                ",".join(sorted(m.get("matrices", {}))) or "-",
            ]
        )
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines += ["  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rows]
    return "\n".join(lines)


def render_run(manifest: dict) -> str:
    """Pretty-printed manifest for ``runs show``."""
    return json.dumps(manifest, indent=2, sort_keys=True)
