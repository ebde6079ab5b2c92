"""Experiment harness regenerating every table of the paper's evaluation.

Each ``tableN_rows`` function returns a list of dicts carrying both the
measured values and the paper's published values for the same cell, so
the CLI, the benchmarks and EXPERIMENTS.md all render from one source.
"""

from __future__ import annotations

from functools import lru_cache

from ..core.pipeline import PreparedMatrix, block_mapping, prepare, wrap_mapping
from ..sparse import harwell_boeing as hb
from ..sparse import registry
from . import paper_data
from .tables import render_table

__all__ = [
    "prepared_matrix",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_tradeoff",
    "tradeoff_rows",
]

DEFAULT_PROCS = (4, 16, 32)
DEFAULT_GRAINS = (4, 25)


@lru_cache(maxsize=None)
def prepared_matrix(name: str, ordering: str = "mmd") -> PreparedMatrix:
    """Order + symbolically factor a named matrix, cached per process.

    Accepts any registry name — the five paper analogues and the
    big-tier generated instances alike.
    """
    return prepare(registry.load(name), ordering=ordering, name=name)


@lru_cache(maxsize=None)
def _block_result(name: str, nprocs: int, grain: int, min_width: int):
    return block_mapping(
        prepared_matrix(name), nprocs, grain=grain, min_width=min_width
    )


@lru_cache(maxsize=None)
def _wrap_result(name: str, nprocs: int):
    return wrap_mapping(prepared_matrix(name), nprocs)


# ----------------------------------------------------------------------
# Table 1: the test matrices
# ----------------------------------------------------------------------
def table1_rows(ordering: str = "mmd") -> list[dict]:
    rows = []
    for name, tm in hb.PAPER_MATRICES.items():
        prep = prepared_matrix(name, ordering)
        p_n, p_nnz, p_fnnz = paper_data.TABLE1[name]
        rows.append(
            {
                "matrix": name,
                "n": prep.graph.n,
                "nnz": prep.graph.nnz_lower,
                "factor_nnz": prep.factor_nnz,
                "paper_n": p_n,
                "paper_nnz": p_nnz,
                "paper_factor_nnz": p_fnnz,
                "exact": tm.exact,
            }
        )
    return rows


def render_table1() -> str:
    headers = ["matrix", "n", "nnz(A)", "nnz(L)", "paper n", "paper nnz(A)", "paper nnz(L)", "exact?"]
    rows = [
        [r["matrix"], r["n"], r["nnz"], r["factor_nnz"],
         r["paper_n"], r["paper_nnz"], r["paper_factor_nnz"], "yes" if r["exact"] else "analogue"]
        for r in table1_rows()
    ]
    return render_table(headers, rows, "Table 1: selected Harwell-Boeing test matrices")


# ----------------------------------------------------------------------
# Table 2: block mapping communication
# ----------------------------------------------------------------------
def table2_rows(
    procs=DEFAULT_PROCS, grains=DEFAULT_GRAINS, min_width: int = 4
) -> list[dict]:
    g_lo, g_hi = grains
    rows = []
    for name in hb.names():
        for p in procs:
            lo = _block_result(name, p, g_lo, min_width)
            hi = _block_result(name, p, g_hi, min_width)
            paper = paper_data.TABLE2.get(name, {}).get(p)
            rows.append(
                {
                    "matrix": name,
                    "nprocs": p,
                    f"total_g{g_lo}": lo.traffic.total,
                    f"total_g{g_hi}": hi.traffic.total,
                    f"mean_g{g_lo}": round(lo.traffic.mean),
                    f"mean_g{g_hi}": round(hi.traffic.mean),
                    "paper": paper,
                }
            )
    return rows


def render_table2() -> str:
    g_lo, g_hi = DEFAULT_GRAINS
    headers = ["matrix", "P",
               f"total g={g_lo}", f"total g={g_hi}", f"mean g={g_lo}", f"mean g={g_hi}",
               "paper total g=4", "paper total g=25"]
    rows = []
    for r in table2_rows():
        paper = r["paper"] or (None, None, None, None)
        rows.append([
            r["matrix"], r["nprocs"],
            r[f"total_g{g_lo}"], r[f"total_g{g_hi}"],
            r[f"mean_g{g_lo}"], r[f"mean_g{g_hi}"],
            paper[0], paper[1],
        ])
    return render_table(headers, rows, "Table 2: block mapping communication")


# ----------------------------------------------------------------------
# Table 3: block mapping work distribution
# ----------------------------------------------------------------------
def table3_rows(
    procs=DEFAULT_PROCS, grains=DEFAULT_GRAINS, min_width: int = 4
) -> list[dict]:
    g_lo, g_hi = grains
    rows = []
    for name in hb.names():
        for p in procs:
            lo = _block_result(name, p, g_lo, min_width)
            hi = _block_result(name, p, g_hi, min_width)
            paper = paper_data.TABLE3.get(name, {}).get(p)
            rows.append(
                {
                    "matrix": name,
                    "nprocs": p,
                    "work_mean": round(lo.balance.mean),
                    f"imbalance_g{g_lo}": lo.balance.imbalance,
                    f"imbalance_g{g_hi}": hi.balance.imbalance,
                    "paper": paper,
                }
            )
    return rows


def render_table3() -> str:
    g_lo, g_hi = DEFAULT_GRAINS
    headers = ["matrix", "P", "mean work",
               f"lambda g={g_lo}", f"lambda g={g_hi}",
               "paper lambda g=4", "paper lambda g=25"]
    rows = []
    for r in table3_rows():
        paper = r["paper"] or (None, None, None)
        rows.append([
            r["matrix"], r["nprocs"], r["work_mean"],
            r[f"imbalance_g{g_lo}"], r[f"imbalance_g{g_hi}"],
            paper[1], paper[2],
        ])
    return render_table(headers, rows, "Table 3: block mapping work distribution")


# ----------------------------------------------------------------------
# Table 4: LAP30 cluster-width sweep
# ----------------------------------------------------------------------
def table4_rows(
    widths=(2, 4, 8), procs=DEFAULT_PROCS, grain: int = 4, matrix: str = "LAP30"
) -> list[dict]:
    rows = []
    for w in widths:
        for p in procs:
            r = _block_result(matrix, p, grain, w)
            paper = paper_data.TABLE4.get(w, {}).get(p) if matrix == "LAP30" else None
            rows.append(
                {
                    "width": w,
                    "nprocs": p,
                    "total": r.traffic.total,
                    "mean": round(r.traffic.mean),
                    "work_mean": round(r.balance.mean),
                    "imbalance": r.balance.imbalance,
                    "paper": paper,
                }
            )
    return rows


def render_table4() -> str:
    headers = ["width", "P", "traffic total", "traffic mean", "work mean", "lambda",
               "paper total", "paper lambda"]
    rows = []
    for r in table4_rows():
        paper = r["paper"] or (None, None, None, None)
        rows.append([
            r["width"], r["nprocs"], r["total"], r["mean"],
            r["work_mean"], r["imbalance"], paper[0], paper[3],
        ])
    return render_table(headers, rows, "Table 4: variation with width for LAP30, g = 4")


# ----------------------------------------------------------------------
# Table 5: wrap mapping
# ----------------------------------------------------------------------
def table5_rows(procs=(1, 4, 16, 32)) -> list[dict]:
    rows = []
    for name in hb.names():
        for p in procs:
            r = _wrap_result(name, p)
            paper = paper_data.TABLE5.get(name, {}).get(p)
            rows.append(
                {
                    "matrix": name,
                    "nprocs": p,
                    "total": r.traffic.total,
                    "mean": round(r.traffic.mean),
                    "work_mean": round(r.balance.mean),
                    "imbalance": r.balance.imbalance,
                    "paper": paper,
                }
            )
    return rows


def render_table5() -> str:
    headers = ["matrix", "P", "traffic total", "traffic mean", "work mean", "lambda",
               "paper total", "paper lambda"]
    rows = []
    for r in table5_rows():
        paper = r["paper"] or (None, None, None, None)
        rows.append([
            r["matrix"], r["nprocs"], r["total"], r["mean"],
            r["work_mean"], r["imbalance"], paper[0], paper[3],
        ])
    return render_table(headers, rows, "Table 5: wrap mapping")


# ----------------------------------------------------------------------
# The paper's trade-off: block mapping against wrap
# ----------------------------------------------------------------------
def tradeoff_rows() -> list[dict]:
    """Block mapping (g=25) against wrap at P=32: the share of wrap's
    traffic the block scheme saves and both λ, measured next to the same
    quantities computed from the paper's Tables 2, 3 and 5."""
    procs = (32,)
    return [
        {
            "matrix": w["matrix"],
            "saving": 1 - b["total_g25"] / w["total"],
            "paper_saving": 1 - b["paper"][1] / w["paper"][0],
            "imbalance_block": lam["imbalance_g25"],
            "imbalance_wrap": w["imbalance"],
            "paper_imbalance_block": lam["paper"][2],
            "paper_imbalance_wrap": w["paper"][3],
        }
        for b, lam, w in zip(table2_rows(procs=procs), table3_rows(procs=procs),
                             table5_rows(procs=procs))
    ]


def render_tradeoff() -> str:
    headers = ["matrix", "saving", "paper saving", "lambda block",
               "lambda wrap", "paper lambda block", "paper lambda wrap"]
    rows = [
        [r["matrix"], f"{100 * r['saving']:.1f}%",
         f"{100 * r['paper_saving']:.1f}%", r["imbalance_block"],
         r["imbalance_wrap"], r["paper_imbalance_block"],
         r["paper_imbalance_wrap"]]
        for r in tradeoff_rows()
    ]
    return render_table(
        headers, rows,
        "Block mapping (g=25) vs wrap at P=32: traffic saved and lambda",
    )
