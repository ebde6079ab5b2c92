"""Quantified paper-vs-measured comparison.

For every cell the paper publishes, compute the measured/published ratio
— the number EXPERIMENTS.md summarizes qualitatively.  Ratios near 1.0
mean the absolute numbers reproduce; the reproduction *target* (per the
calibration band) is the consistency of the ratios' direction, not 1.0
itself, since the inputs and the MMD tie-breaking differ.
"""

from __future__ import annotations

import statistics

from ..obs.tables import render_table
from .experiments import table2_rows, table3_rows, table5_rows

__all__ = ["comparison_headline", "comparison_rows", "render_comparison"]


def comparison_rows() -> list[dict]:
    """One row per published cell with the measured/published ratio."""
    out: list[dict] = []
    for r in table2_rows():
        paper = r["paper"]
        if paper is None:
            continue
        for idx, key in ((0, "total_g4"), (1, "total_g25")):
            out.append(
                {
                    "table": 2,
                    "matrix": r["matrix"],
                    "nprocs": r["nprocs"],
                    "quantity": f"traffic {key}",
                    "measured": r[key],
                    "paper": paper[idx],
                    "ratio": r[key] / paper[idx] if paper[idx] else None,
                }
            )
    for r in table3_rows():
        paper = r["paper"]
        if paper is None:
            continue
        for idx, key in ((1, "imbalance_g4"), (2, "imbalance_g25")):
            out.append(
                {
                    "table": 3,
                    "matrix": r["matrix"],
                    "nprocs": r["nprocs"],
                    "quantity": f"lambda {key}",
                    "measured": r[key],
                    "paper": paper[idx],
                    "ratio": r[key] / paper[idx] if paper[idx] else None,
                }
            )
    for r in table5_rows():
        paper = r["paper"]
        if paper is None or r["nprocs"] == 1:
            continue
        out.append(
            {
                "table": 5,
                "matrix": r["matrix"],
                "nprocs": r["nprocs"],
                "quantity": "wrap traffic",
                "measured": r["total"],
                "paper": paper[0],
                "ratio": r["total"] / paper[0] if paper[0] else None,
            }
        )
    return out


def comparison_headline(rows: list[dict] | None = None) -> str:
    """The count of published cells and the median measured/paper ratios."""
    if rows is None:
        rows = comparison_rows()
    ratios = [r["ratio"] for r in rows if r["ratio"] is not None]
    traffic = [r["ratio"] for r in rows if "traffic" in r["quantity"] and r["ratio"]]
    return (
        f"{len(ratios)} published cells compared; median measured/paper "
        f"ratio {statistics.median(ratios):.2f} "
        f"(traffic-only median {statistics.median(traffic):.2f})"
    )


def render_comparison() -> str:
    rows = comparison_rows()
    table_rows = [
        [r["table"], r["matrix"], r["nprocs"], r["quantity"],
         r["measured"], r["paper"],
         round(r["ratio"], 2) if r["ratio"] is not None else None]
        for r in rows
    ]
    return (
        render_table(
            ["table", "matrix", "P", "quantity", "measured", "paper", "ratio"],
            table_rows,
            "Measured vs published, cell by cell",
        )
        + "\n"
        + comparison_headline(rows)
    )
