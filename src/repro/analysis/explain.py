"""``explain``: attribute a mapping's communication and imbalance.

The paper reports aggregate figures — total traffic, λ, makespan.  This
module answers the *why* behind them for one (matrix, scheme, P) cell by
simulating the schedule (:func:`repro.machine.simulate.simulate_assignment`)
and reading the resulting :class:`repro.obs.simtime.SimRun`:

* which processor pairs carry the traffic (P×P communication matrix,
  top links),
* which chain of unit blocks bounds the makespan (critical path, with
  each link labelled message / local-dep / proc-busy),
* which stages and blocks cause the imbalance (λ waterfall, top-k
  culprit blocks on the peak processor),
* where each processor's time goes (busy / wait / idle).

``python -m repro explain <matrix> --scheme S -p N`` renders the ASCII
summary, records a ``kind:"explain"`` registry run, and writes the
self-contained HTML report with the comm-heatmap / critical-path /
imbalance panels (:mod:`repro.obs.report`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.simulate import MachineModel, ScheduleTimeline, simulate_assignment
from ..obs import simtime
from ..obs import trace as obs
from ..obs.tables import render_table
from ..perf.sweep import SCHEMES

__all__ = [
    "ExplainResult",
    "explain_run",
    "explain_manifest",
    "render_explain",
]


@dataclass(frozen=True)
class ExplainResult:
    """One explained (matrix, scheme, P) cell."""

    matrix: str
    scheme: str
    nprocs: int
    timeline: ScheduleTimeline
    run: simtime.SimRun
    traffic_total: int
    traffic_max: int
    work_imbalance: float  # the paper's λ over assigned work


def _mapping(matrix: str, scheme: str, nprocs: int, grain: int):
    from ..core.pipeline import adaptive_block_mapping, block_mapping, wrap_mapping
    from .experiments import prepared_matrix

    prep = prepared_matrix(matrix)
    if scheme == "block":
        return prep, block_mapping(prep, nprocs, grain=grain)
    if scheme == "block-adaptive":
        return prep, adaptive_block_mapping(prep, nprocs, grain=grain)
    if scheme == "wrap":
        return prep, wrap_mapping(prep, nprocs)
    raise ValueError(
        f"unknown scheme {scheme!r}; expected one of {', '.join(SCHEMES)}"
    )


def explain_run(
    matrix: str,
    scheme: str = "block",
    nprocs: int = 16,
    grain: int = 4,
    model: MachineModel | None = None,
) -> ExplainResult:
    """Map ``matrix`` under ``scheme``, simulate it, and attribute the
    resulting communication and imbalance."""
    with obs.span("explain.run", matrix=matrix, scheme=scheme, nprocs=nprocs):
        prep, res = _mapping(matrix, scheme, nprocs, grain)
        timeline, run = simulate_assignment(
            res.assignment, prep.updates, model=model,
            deps=res.dependencies, name=matrix,
        )
        return ExplainResult(
            matrix=matrix,
            scheme=scheme,
            nprocs=nprocs,
            timeline=timeline,
            run=run,
            traffic_total=res.traffic.total,
            traffic_max=res.traffic.max,
            work_imbalance=float(res.balance.imbalance),
        )


def explain_manifest(result: ExplainResult) -> dict:
    """The JSON document stored in the registry run and rendered by the
    HTML report's explain panels."""
    doc = result.run.to_manifest()
    doc["matrix"] = result.matrix
    doc["traffic_total"] = int(result.traffic_total)
    doc["traffic_max"] = int(result.traffic_max)
    doc["work_imbalance"] = float(result.work_imbalance)
    doc["idle_fraction"] = float(result.timeline.idle_fraction)
    # The acceptance invariant, checked at build time so a report can
    # never silently ship with a broken ledger.
    assert doc["message_bytes"] == doc["traffic_total"], (
        "ledger bytes diverged from data_traffic"
    )
    return doc


def render_explain(result: ExplainResult, top: int = 8) -> str:
    """ASCII summary: headline figures, top links, critical path head,
    imbalance waterfall."""
    run = result.run
    parts: list[str] = []
    pt = run.proc_times()
    att = run.imbalance(top_k=top)
    cp = run.critical_path()
    parts.append(render_table(
        ["metric", "value"],
        [
            ["makespan (sim units)", f"{run.makespan:.0f}"],
            ["idle fraction", f"{result.timeline.idle_fraction:.3f}"],
            ["traffic total (= ledger bytes)", result.traffic_total],
            ["messages", len(run.messages)],
            ["work imbalance λ", f"{result.work_imbalance:.3f}"],
            ["peak processor", att.proc],
            ["critical path units", len(cp.units)],
            ["critical path wait share", f"{cp.wait / cp.length:.3f}"
             if cp.length else "-"],
        ],
        f"Explain: {result.matrix} {result.scheme} P={result.nprocs}",
    ))
    links = run.link_volumes(top=top)
    if links:
        parts.append(render_table(
            ["src", "dst", "elements"],
            [[s, d, v] for s, d, v in links],
            f"Heaviest links (of {len(run.link_volumes())})",
        ))
    edge_counts: dict[str, int] = {}
    for e in cp.edges:
        edge_counts[e] = edge_counts.get(e, 0) + 1
    head = cp.units[-min(top, len(cp.units)):].tolist()
    parts.append(render_table(
        ["uid", "proc", "stage", "kind", "start", "finish"],
        [[u, int(run.proc[u]), int(run.stage[u]), run.kind[u],
          f"{run.start[u]:.0f}", f"{run.finish[u]:.0f}"] for u in head],
        "Critical path (last {} of {}; links: {})".format(
            len(head), len(cp.units),
            ", ".join(f"{k}×{v}" for k, v in sorted(edge_counts.items())) or "-",
        ),
    ))
    rows = sorted(att.stage_rows, key=lambda r: -r["excess"])[:top]
    parts.append(render_table(
        ["stage", "excess on peak", "stage λ"],
        [[r["stage"], f"{r['excess']:.0f}", f"{r['lambda_s']:.3f}"]
         for r in rows],
        f"Imbalance waterfall (peak p{att.proc}, Σexcess = λ·W_ave)",
    ))
    if att.culprits:
        parts.append(render_table(
            ["uid", "stage", "kind", "work"],
            [[c["uid"], c["stage"], c["kind"], f"{c['work']:.0f}"]
             for c in att.culprits],
            "Heaviest blocks on the peak processor",
        ))
    busiest = int(np.argmax(pt.wait))
    parts.append(render_table(
        ["proc", "busy", "wait", "idle"],
        [[p, f"{pt.busy[p]:.0f}", f"{pt.wait[p]:.0f}", f"{pt.idle[p]:.0f}"]
         for p in sorted({att.proc, busiest, 0})],
        "Processor time (peak-work, peak-wait, p0; busy+wait+idle = makespan)",
    ))
    return "\n\n".join(parts)
