"""Experiment harness regenerating every table of the paper's evaluation.

Each ``tableN_rows`` function returns a list of dicts carrying both the
measured values and the paper's published values for the same cell, so
the CLI, the benchmarks and EXPERIMENTS.md all render from one source.
Tables 2-5 read their cells from the serial :mod:`repro.perf.sweep`,
the one engine of the (matrix, scheme, P, g, width) grid.
"""

from __future__ import annotations

from functools import lru_cache

from ..core.pipeline import PreparedMatrix, prepare
from ..obs.tables import render_table
from ..perf.sweep import SweepRecord, _sweep_serial, build_grid
from ..sparse import harwell_boeing as hb
from ..sparse import registry
from . import paper_data

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
def _cells(matrices, schemes, procs, grains, min_widths) -> dict[tuple, SweepRecord]:
    """The grid's serial sweep records, keyed ``(matrix, scheme, nprocs,
    grain, min_width)`` (``None`` partition parameters for wrap), cached
    per process.  The sweep runs on the :func:`prepared_matrix` objects,
    so the partitions it builds serve the sections that map through the
    pipeline too."""
    tasks = build_grid(matrices, schemes, procs, grains, min_widths)
    memo = {(m, "mmd"): prepared_matrix(m) for m in matrices}
    return {
        (r.matrix, r.scheme, r.nprocs, r.grain, r.min_width): r
        for r in _sweep_serial(tasks, None, memo)
    }


def block_cells(procs=DEFAULT_PROCS, grains=DEFAULT_GRAINS, min_width: int = 4):
    """The block cells of Tables 2 and 3 over the five paper matrices."""
    return _cells(tuple(hb.names()), ("block",), tuple(procs), tuple(grains), (min_width,))


def _work_mean(name: str, nprocs: int) -> int:
    """The mean work per processor: every scheme maps all of it."""
    return round(prepared_matrix(name).total_work / nprocs)


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
    cells = block_cells(procs, grains, min_width)
    rows = []
    for name in hb.names():
        for p in procs:
            lo = cells[name, "block", p, g_lo, min_width]
            hi = cells[name, "block", p, g_hi, min_width]
            paper = paper_data.TABLE2.get(name, {}).get(p)
            rows.append(
                {
                    "matrix": name,
                    "nprocs": p,
                    f"total_g{g_lo}": lo.traffic_total,
                    f"total_g{g_hi}": hi.traffic_total,
                    f"mean_g{g_lo}": round(lo.traffic_mean),
                    f"mean_g{g_hi}": round(hi.traffic_mean),
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
    cells = block_cells(procs, grains, min_width)
    rows = []
    for name in hb.names():
        for p in procs:
            paper = paper_data.TABLE3.get(name, {}).get(p)
            rows.append(
                {
                    "matrix": name,
                    "nprocs": p,
                    "work_mean": _work_mean(name, p),
                    f"imbalance_g{g_lo}": cells[name, "block", p, g_lo, min_width].imbalance,
                    f"imbalance_g{g_hi}": cells[name, "block", p, g_hi, min_width].imbalance,
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
    cells = _cells((matrix,), ("block",), tuple(procs), (grain,), tuple(widths))
    return [
        {"width": w, **_cell_row(
            cells[matrix, "block", p, grain, w],
            paper_data.TABLE4.get(w, {}).get(p) if matrix == "LAP30" else None)}
        for w in widths
        for p in procs
    ]


def _cell_row(r: SweepRecord, paper) -> dict:
    """The measured columns Tables 4 and 5 share, beside the paper's."""
    return {"nprocs": r.nprocs, "total": r.traffic_total, "mean": round(r.traffic_mean),
            "work_mean": _work_mean(r.matrix, r.nprocs), "imbalance": r.imbalance,
            "paper": paper}


def _render_cells(rows: list[dict], first: str, title: str) -> str:
    headers = [first, "P", "traffic total", "traffic mean", "work mean", "lambda",
               "paper total", "paper lambda"]
    body = []
    for r in rows:
        paper = r["paper"] or (None, None, None, None)
        body.append([
            r[first], r["nprocs"], r["total"], r["mean"],
            r["work_mean"], r["imbalance"], paper[0], paper[3],
        ])
    return render_table(headers, body, title)


def render_table4() -> str:
    return _render_cells(table4_rows(), "width", "Table 4: variation with width for LAP30, g = 4")


# ----------------------------------------------------------------------
# Table 5: wrap mapping
# ----------------------------------------------------------------------
def table5_rows(procs=(1, 4, 16, 32)) -> list[dict]:
    cells = _cells(tuple(hb.names()), ("wrap",), tuple(procs), (), ())
    return [
        {"matrix": name, **_cell_row(cells[name, "wrap", p, None, None],
                                     paper_data.TABLE5.get(name, {}).get(p))}
        for name in hb.names()
        for p in procs
    ]


def render_table5() -> str:
    return _render_cells(table5_rows(), "matrix", "Table 5: wrap mapping")


# ----------------------------------------------------------------------
# The paper's trade-off: block mapping against wrap
# ----------------------------------------------------------------------
def tradeoff_rows() -> list[dict]:
    """Block mapping (g=25) against wrap at P=32: the share of wrap's
    traffic the block scheme saves and both λ, measured next to the same
    quantities computed from the paper's Tables 2, 3 and 5, read off
    the P=32 rows of those tables."""
    def at32(rows):
        return [r for r in rows if r["nprocs"] == 32]

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
        for b, lam, w in zip(at32(table2_rows()), at32(table3_rows()),
                             at32(table5_rows()))
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
