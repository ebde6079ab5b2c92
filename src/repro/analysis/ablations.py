"""The twelve ablations beyond the paper's tables, as report sections.

``ABLATIONS`` maps each section's key to its title, headers and rows
function; EXPERIMENTS.md shows the rendered sections, and
``tests/analysis/test_findings.py`` asserts its findings on the rows.
The two sections that execute a factorization check every factor
against the sequential one (1e-10) before writing a row, and import
``repro.mpsim`` and ``repro.numeric`` inside the function, so importing
:mod:`repro.analysis` loads neither.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from ..core import (
    SchedulerOptions,
    adaptive_block_mapping,
    block_cyclic_columns,
    block_mapping,
    prepare,
    schedule_affinity,
    schedule_lpt,
    two_d_cyclic,
    wrap_mapping,
)
from ..machine import (
    MachineModel,
    data_traffic,
    load_balance,
    processor_work,
    simulate_schedule,
    solve_balance,
    solve_traffic,
    unit_work,
)
from ..obs.tables import render_table
from ..sparse import grid9, load, spd_from_graph
from ..sparse import harwell_boeing as hb
from . import paper_data
from .experiments import DEFAULT_GRAINS, DEFAULT_PROCS, prepared_matrix

__all__ = ["ABLATIONS", "render_ablation"]


class Ablation(NamedTuple):
    title: str
    headers: list[str]
    rows: Callable[[], list[list]]


#: Section key -> title, headers and rows, in EXPERIMENTS.md's order.
ABLATIONS: dict[str, Ablation] = {}


def _section(key: str, title: str, *headers: str):
    def register(rows):
        ABLATIONS[key] = Ablation(title, list(headers), rows)
        return rows
    return register


def _measured(a, updates):
    """Traffic and balance of an assignment the pipeline did not build."""
    return data_traffic(a, updates), load_balance(processor_work(a, updates))


def _check_factor(L, reference, what: str) -> None:
    if not np.allclose(L.values, reference.values, atol=1e-10):
        raise ArithmeticError(f"{what} diverges from the sequential factor")


@_section("ablation_grain", "Ablation: grain-size sweep (LAP30, P=16)",
          "grain", "units", "traffic total", "traffic mean", "lambda")
def _grain_rows():
    lap30 = prepared_matrix("LAP30")
    rows = []
    for g in (1, 2, 4, 8, 16, 25, 50, 100):
        r = block_mapping(lap30, 16, grain=g)
        rows.append([g, r.partition.num_units, r.traffic.total,
                     round(r.traffic.mean), r.balance.imbalance])
    return rows


@_section("ablation_zeros", "Ablation: cluster zero-tolerance (LAP30, P=16, g=4)",
          "tolerance", "clusters", "multi-col", "tri padding", "total padding",
          "traffic total", "lambda")
def _zeros_rows():
    lap30 = prepared_matrix("LAP30")
    rows = []
    for tol in (0.0, 0.05, 0.15, 0.3):
        r = block_mapping(lap30, 16, grain=4, zero_tolerance=tol)
        cs = r.partition.clusters
        rows.append([tol, len(cs), sum(not c.is_column for c in cs),
                     cs.total_triangle_padding(), cs.total_padding(),
                     r.traffic.total, r.balance.imbalance])
    return rows


@_section("ablation_policy", "Ablation: dependent-column placement policy (P=16, g=4)",
          "matrix", "policy", "traffic total", "lambda")
def _policy_rows():
    rows = []
    for name in ("LAP30", "DWT512"):
        for policy in ("first", "least_loaded", "round_robin"):
            r = block_mapping(prepared_matrix(name), 16, grain=4,
                              options=SchedulerOptions(policy))
            rows.append([name, policy, r.traffic.total, r.balance.imbalance])
    return rows


@_section("ablation_mappings", "Ablation: column-mapping family (LAP30, P=16)",
          "scheme", "traffic total", "traffic mean", "lambda")
def _mapping_rows():
    lap30 = prepared_matrix("LAP30")
    columns = [block_cyclic_columns(lap30.pattern, 16, b) for b in (1, 2, 4, 8)]
    rows = []
    for a in columns + [two_d_cyclic(lap30.pattern, 4, 4)]:
        t, lb = _measured(a, lap30.updates)
        rows.append([a.scheme, t.total, round(t.mean), lb.imbalance])
    for g in (4, 25):
        r = block_mapping(lap30, 16, grain=g)
        rows.append([f"block(g={g})", r.traffic.total, round(r.traffic.mean),
                     r.balance.imbalance])
    return rows


#: The machines of the delay ablation, from free to costly communication.
DELAY_MODELS = {
    "free-comm": MachineModel(alpha=0.0, beta=0.0),
    "cheap-comm": MachineModel(alpha=10.0, beta=0.5),
    "costly-comm": MachineModel(alpha=200.0, beta=4.0),
}


@_section("ablation_delays",
          "Ablation: event-driven schedule with dependency delays (LAP30, P=16)",
          "grain", "machine", "makespan", "idle frac", "speedup")
def _delay_rows():
    lap30 = prepared_matrix("LAP30")
    rows = []
    for g in (4, 25):
        r = block_mapping(lap30, 16, grain=g)
        for name, model in DELAY_MODELS.items():
            tl = simulate_schedule(r.assignment, r.dependencies, lap30.updates,
                                   model)
            rows.append([g, name, round(tl.makespan), round(tl.idle_fraction, 3),
                         round(lap30.total_work / tl.makespan, 2)])
    return rows


@_section("ablation_adaptive",
          "Ablation: static grain-only vs adaptive partitioning, every Table 2 / 3 cell",
          "matrix", "P", "g", "units static", "units adaptive", "traffic static",
          "traffic adaptive", "traffic paper", "lambda static", "lambda adaptive",
          "lambda paper")
def _adaptive_rows():
    rows = []
    for name in hb.names():
        prep = prepared_matrix(name)
        for p in DEFAULT_PROCS:
            for k, g in enumerate(DEFAULT_GRAINS):
                s = block_mapping(prep, p, grain=g)
                a = adaptive_block_mapping(prep, p, grain=g)
                rows.append([name, p, g, s.partition.num_units, a.partition.num_units,
                             s.traffic.total, a.traffic.total,
                             paper_data.TABLE2[name][p][k],
                             round(s.balance.imbalance, 2), round(a.balance.imbalance, 2),
                             paper_data.TABLE3[name][p][1 + k]])
    return rows


@_section("ablation_solve", "Ablation: factorization vs triangular-solve phase (LAP30)",
          "scheme", "P", "factor traffic", "factor lambda", "solve traffic",
          "solve lambda")
def _solve_rows():
    lap30 = prepared_matrix("LAP30")
    rows = []
    for p in (4, 16, 32):
        for name, r in (("block g=25", block_mapping(lap30, p, grain=25)),
                        ("wrap", wrap_mapping(lap30, p))):
            rows.append([name, p, r.traffic.total, round(r.balance.imbalance, 2),
                         solve_traffic(r.assignment).total,
                         round(solve_balance(r.assignment).imbalance, 2)])
    return rows


@_section("distributed_messages",
          "Distributed Cholesky on mpsim vs machine-model traffic (DWT512, wrap)",
          "P", "fan-out msgs", "fan-in msgs", "fan-out bytes",
          "model traffic (elements)")
def _message_rows():
    from ..mpsim import distributed_cholesky, distributed_cholesky_fanin
    from ..numeric import sparse_cholesky

    prep = prepared_matrix("DWT512")
    a = spd_from_graph(prep.graph, seed=17).permute(prep.perm)
    reference = sparse_cholesky(a, prep.symbolic)
    rows = []
    for p in (2, 4, 8):
        stats = {}
        for name, run in (("fan-out", distributed_cholesky),
                          ("fan-in", distributed_cholesky_fanin)):
            L, stats[name] = run(a, prep.pattern, np.arange(a.n) % p, p)
            _check_factor(L, reference, f"{name} at P={p}")
        rows.append([p, sum(s.messages_sent for s in stats["fan-out"]),
                     sum(s.messages_sent for s in stats["fan-in"]),
                     sum(s.bytes_sent for s in stats["fan-out"]),
                     wrap_mapping(prep, p).traffic.total])
    return rows


@_section("block_execution", "Block schedule executed on mpsim (LAP30, P=4) — "
          "verified against the sequential factor",
          "grain", "units", "real messages", "real bytes",
          "model traffic (elements)")
def _execution_rows():
    from ..mpsim import distributed_block_cholesky
    from ..numeric import sparse_cholesky

    prep = prepared_matrix("LAP30")
    a = spd_from_graph(prep.graph, seed=33).permute(prep.perm)
    reference = sparse_cholesky(a, prep.symbolic)
    rows = []
    for grain in (4, 25, 100):
        r = block_mapping(prep, 4, grain=grain)
        L, stats = distributed_block_cholesky(
            a, r.partition, r.assignment, prep.updates, r.dependencies)
        _check_factor(L, reference, f"block execution at g={grain}")
        rows.append([grain, r.partition.num_units,
                     sum(s.messages_sent for s in stats),
                     sum(s.bytes_sent for s in stats), r.traffic.total])
    return rows


@_section("ablation_schedulers", "Ablation: §3.4 vs the scheduling extremes (LAP30, g=25)",
          "P", "scheduler", "traffic total", "lambda")
def _scheduler_rows():
    lap30 = prepared_matrix("LAP30")
    rows = []
    for p in (16, 32):
        r = block_mapping(lap30, p, grain=25)
        uw = unit_work(r.partition, lap30.updates)
        for name, a in (
            ("paper §3.4", r.assignment),
            ("LPT (pure balance)", schedule_lpt(r.partition, p, uw)),
            ("affinity (pure locality)", schedule_affinity(
                r.partition, r.dependencies, p, lap30.updates, uw)),
        ):
            t, lb = _measured(a, lap30.updates)
            rows.append([p, name, t.total, round(lb.imbalance, 3)])
    return rows


@_section("ablation_ordering", "Ablation: fill-reducing ordering (DWT512, block g=4, P=16)",
          "ordering", "nnz(L)", "total work", "block traffic", "lambda")
def _ordering_rows():
    graph = load("DWT512")
    rows = []
    for ordering in ("natural", "rcm", "md", "mmd", "amd", "nd"):
        prep = prepare(graph, ordering=ordering, name="DWT512")
        r = block_mapping(prep, 16, grain=4)
        rows.append([ordering, prep.factor_nnz, prep.total_work,
                     r.traffic.total, round(r.balance.imbalance, 2)])
    return rows


@_section("scaling", "Scaling of the block-vs-wrap trade-off (9-point Laplacians, "
          "P=16, g=25)",
          "problem", "n", "nnz(L)", "block traffic", "wrap traffic", "saving",
          "block lambda", "wrap lambda")
def _scaling_rows():
    rows = []
    for m in (10, 20, 30, 40):
        prep = prepare(grid9(m, m), name=f"LAP{m}")
        blk = block_mapping(prep, 16, grain=25)
        wrp = wrap_mapping(prep, 16)
        saving = 1 - blk.traffic.total / wrp.traffic.total
        rows.append([f"LAP{m}", m * m, prep.factor_nnz, blk.traffic.total,
                     wrp.traffic.total, f"{100 * saving:.0f}%",
                     round(blk.balance.imbalance, 2),
                     round(wrp.balance.imbalance, 2)])
    return rows


def render_ablation(key: str) -> str:
    """One ablation section as an aligned table."""
    title, headers, rows = ABLATIONS[key]
    return render_table(headers, rows(), title)
