"""Pipeline benchmark harness: per-stage wall times to ``BENCH_pipeline.json``.

Runs the full pipeline (order -> symbolic -> enumerate_updates ->
partition -> dependencies -> schedule -> metrics) on the paper's test
matrices under a scoped :class:`repro.obs.Recorder`, sums the recorded
span durations per stage, and writes one JSON document so successive
PRs have a perf trajectory to regress against.  ``smoke`` mode swaps in
tiny generated grids: it exercises the exact same measurement and
serialization path in well under a second, which is what CI runs on
every push.

Each matrix entry also carries a result fingerprint (traffic total,
imbalance, pair-update count) so a timing regression can be told apart
from a semantics change, and — when RSS is readable — memory
watermarks: ``mem_peak_mb`` for the run, ``stage_mem_peak_mb`` per
stage, and a downsampled RSS timeline for the HTML report.  A report
compares like a registry manifest: the regression gate is
:func:`repro.obs.runs.find_run_regressions`, whose memory rows
(``unit: "mb"``) catch a memory blow-up exactly like a slowdown.
Stamped reports (the default) also record provenance: the git SHA and
the host that measured them.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

from ..core.pipeline import block_mapping, prepare
from ..obs import runs as obs_runs
from ..obs import trace as obs
from ..obs.memory import monitored
from ..obs.runs import STAGES, _fit_name, _name_width
from ..obs.trace import Recorder
from ..sparse import grid9
from ..sparse import harwell_boeing as hb
from ..sparse import registry

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BIG_BENCH_MATRICES",
    "STRETCH_BENCH_MATRICES",
    "bench_pipeline",
    "render_bench",
]

BENCH_SCHEMA_VERSION = 1

#: Best-of-N repeats in full mode; smoke mode uses a single run.
FULL_MODE_REPEATS = 3

#: Tiny deterministic problems for smoke mode (CI on every push).
SMOKE_MATRICES = {
    "GRID9x8": lambda: grid9(8, 8),
    "GRID9x12": lambda: grid9(12, 12),
}

#: Big-tier (10^5-unknown) pipeline bench set, and the single smallest
#: instance the opt-in CI smoke job runs.  Big-tier runs default to one
#: repeat: a repeat costs minutes, and the watermark/min-timing noise
#: the extra repeats suppress is small relative to big-tier durations.
BIG_BENCH_MATRICES = ("GRIDA100K", "HEX100K", "SOC100K")
BIG_BENCH_SMOKE_MATRICES = ("SOC100K",)
#: 10^6-unknown stretch instances, appended to the big-tier pipeline
#: bench only behind ``--tier big --stretch`` (minutes per matrix,
#: multi-GB RSS — never part of any default or smoke selection).
STRETCH_BENCH_MATRICES = ("GRIDA1M", "SOC1M")
BIG_MODE_REPEATS = 1


def _tier_checked(tier: str) -> str:
    if tier not in ("paper", "big"):
        raise ValueError(f"unknown tier {tier!r}; expected 'paper' or 'big'")
    return tier


def _bench_once(name: str, graph, nprocs: int, grain: int) -> dict:
    with obs.enabled(Recorder()) as rec, monitored(rec):
        t0 = time.perf_counter()
        prepared = prepare(graph, name=name)
        prepared.updates  # noqa: B018 - forces the enumerate_updates stage
        result = block_mapping(prepared, nprocs, grain=grain)
        wall = time.perf_counter() - t0
    stages = {
        stage: sum(s.duration for s in rec.spans_named(span_name))
        for stage, span_name in STAGES.items()
    }
    entry = {
        "n": int(graph.n),
        "factor_nnz": int(prepared.factor_nnz),
        "pair_updates": int(prepared.updates.num_pair_updates),
        "stages": stages,
        "wall_total": wall,
        "traffic_total": int(result.traffic.total),
        "imbalance": float(result.balance.imbalance),
    }
    entry.update(_memory_fields(rec))
    return entry


def _memory_fields(rec: Recorder) -> dict:
    """Watermark fields for a bench entry: run peak, per-stage peaks and
    a downsampled RSS timeline; empty when memory tracking was off."""
    out: dict = {}
    peak = rec.gauges.get("mem.rss_peak_mb")
    if isinstance(peak, (int, float)):
        out["mem_peak_mb"] = float(peak)
    stage_mem = {}
    for stage, span_name in STAGES.items():
        peaks = [
            s.args.get("mem_peak_mb")
            for s in rec.spans_named(span_name)
            if isinstance(s.args.get("mem_peak_mb"), (int, float))
        ]
        if peaks:
            stage_mem[stage] = max(peaks)
    if stage_mem:
        out["stage_mem_peak_mb"] = stage_mem
    if len(rec.memory_samples) >= 2:
        from ..obs.report import downsample

        out["memory"] = [
            [round(t, 4), round(rss / (1024.0 * 1024.0), 2)]
            for t, rss in downsample(rec.memory_samples, limit=160)
        ]
    return out


def _bench_one(name: str, graph, nprocs: int, grain: int, repeats: int) -> dict:
    """Best-of-``repeats`` per-stage timings (garbage collected between
    runs so one matrix's allocation debris is not billed to the next);
    result fingerprints come from the first run and are identical across
    repeats by construction (the pipeline is deterministic)."""
    runs = []
    for _ in range(max(1, repeats)):
        gc.collect()
        runs.append(_bench_once(name, graph, nprocs, grain))
    entry = runs[0]
    entry["stages"] = {
        stage: min(r["stages"][stage] for r in runs) for stage in STAGES
    }
    entry["wall_total"] = min(r["wall_total"] for r in runs)
    # Memory watermarks are near-deterministic; best-of-N strips the
    # occasional allocator/GC noise exactly like the timing min does.
    peaks = [r["mem_peak_mb"] for r in runs if "mem_peak_mb" in r]
    if peaks:
        entry["mem_peak_mb"] = min(peaks)
    stage_maps = [r["stage_mem_peak_mb"] for r in runs if "stage_mem_peak_mb" in r]
    if stage_maps:
        entry["stage_mem_peak_mb"] = {
            stage: min(m[stage] for m in stage_maps if stage in m)
            for stage in {k for m in stage_maps for k in m}
        }
    return entry


def bench_pipeline(
    matrices=None,
    nprocs: int = 16,
    grain: int = 25,
    smoke: bool = False,
    out: str | Path | None = "BENCH_pipeline.json",
    repeats: int | None = None,
    stamp: bool = True,
    tier: str = "paper",
    stretch: bool = False,
) -> dict:
    """Benchmark the pipeline stages and write the JSON report.

    ``matrices`` defaults to every paper matrix (Table 1/2), or the tiny
    smoke grids when ``smoke`` is set.  ``tier="big"`` switches the
    defaults to the 10^5-unknown generated instances
    (:data:`BIG_BENCH_MATRICES`; ``smoke`` then selects the single
    smallest instance instead of the tiny grids) and to one repeat;
    ``stretch`` additionally appends the 10^6-unknown instances
    (:data:`STRETCH_BENCH_MATRICES`) to the big-tier default set — it
    is an error outside the big tier and is ignored in smoke mode
    (smoke exists to be fast; a 10^6 instance is minutes).  ``repeats`` defaults to
    :data:`FULL_MODE_REPEATS` (best-of-N) in full paper mode and 1
    otherwise.  ``stamp=False`` omits the ``created_unix`` timestamp so
    two runs of the same tree produce byte-identical reports;
    comparisons (:func:`repro.obs.runs.compare_runs`) never look at the
    timestamp either way.  Returns the report dict; writes it to ``out`` unless
    ``out`` is ``None``.
    """
    tier = _tier_checked(tier)
    if stretch and tier != "big":
        raise ValueError("--stretch needs --tier big (the 10^6 instances "
                         "are part of the big-tier bench)")
    if tier == "big":
        if matrices:
            names = list(matrices)
        else:
            names = list(
                BIG_BENCH_SMOKE_MATRICES if smoke else BIG_BENCH_MATRICES
            )
            if stretch and not smoke:
                names += list(STRETCH_BENCH_MATRICES)
        problems = {name: registry.load(name) for name in names}
    elif smoke:
        problems = {name: build() for name, build in SMOKE_MATRICES.items()}
    else:
        names = list(matrices) if matrices else list(hb.names())
        problems = {name: registry.load(name) for name in names}
    if repeats is None:
        repeats = (
            BIG_MODE_REPEATS if tier == "big"
            else 1 if smoke else FULL_MODE_REPEATS
        )
    report = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": tier,
        "smoke": bool(smoke),
        "nprocs": int(nprocs),
        "grain": int(grain),
        "repeats": int(max(1, repeats)),
        "matrices": {
            name: _bench_one(name, graph, nprocs, grain, repeats)
            for name, graph in problems.items()
        },
    }
    if stamp:
        _stamp_provenance(report)
    if out is not None:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _stamp_provenance(report: dict) -> None:
    """Creation time, git SHA and host info: enough to answer "what code
    on what machine produced these numbers" from the file alone."""
    report["created_unix"] = time.time()
    report["git_sha"] = obs_runs.git_sha()
    report["host"] = obs_runs.host_info()


def render_bench(report: dict) -> str:
    """ASCII summary of a bench report (stage milliseconds per matrix)."""
    stage_names = list(STAGES)
    with_mem = any("mem_peak_mb" in e for e in report["matrices"].values())
    nw = _name_width(report["matrices"], 10)
    headers = stage_names + ["total"]
    if with_mem:
        headers.append("mem_peak_mb")
    lines = ["  ".join(
        [f"{'matrix':>{nw}}", f"{'n':>10}", f"{'nnz(L)':>10}"]
        + [f"{h:>18}" for h in headers]
    )]
    for name, entry in report["matrices"].items():
        cells = [
            f"{_fit_name(name, nw):>{nw}}",
            f"{entry['n']:>10}",
            f"{entry['factor_nnz']:>10}",
        ]
        for stage in stage_names:
            cells.append(f"{entry['stages'][stage] * 1e3:>18.2f}")
        cells.append(f"{entry['wall_total'] * 1e3:>18.2f}")
        if with_mem:
            mem = entry.get("mem_peak_mb")
            cells.append(f"{mem:>18.1f}" if mem is not None else f"{'-':>18}")
        lines.append("  ".join(cells))
    mode = "smoke" if report.get("smoke") else "full"
    lines.append(
        f"(stage times in ms; {mode} mode, P={report['nprocs']}, g={report['grain']})"
    )
    return "\n".join(lines)
