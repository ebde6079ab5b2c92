"""Descriptive statistics of partitions and schedules."""

from __future__ import annotations

import numpy as np

from ..core.blocks import KINDS
from ..core.partitioner import Partition
from .tables import render_table

__all__ = ["partition_statistics", "render_partition_stats"]


def partition_statistics(partition: Partition) -> dict:
    """Summary numbers describing a partition: cluster census, unit-kind
    census, unit-size distribution and padding."""
    clusters = partition.clusters
    widths = (clusters.col_hi - clusters.col_lo + 1)[~clusters.is_column]
    sizes = partition.unit_work
    counts = np.bincount(partition.kind, minlength=len(KINDS)).tolist()
    kind_counts = {k.value: n for k, n in zip(KINDS, counts)}
    return {
        "n": partition.pattern.n,
        "nnz": partition.pattern.nnz,
        "clusters": len(clusters),
        "multi_column_clusters": len(widths),
        "max_cluster_width": int(widths.max()) if len(widths) else 1,
        "mean_cluster_width": float(np.mean(widths)) if len(widths) else 1.0,
        "units": partition.num_units,
        "units_by_kind": kind_counts,
        "unit_nnz_min": int(sizes.min()) if len(sizes) else 0,
        "unit_nnz_median": float(np.median(sizes)) if len(sizes) else 0.0,
        "unit_nnz_max": int(sizes.max()) if len(sizes) else 0,
        "empty_units": int((sizes == 0).sum()),
        "triangle_padding": clusters.total_triangle_padding(),
        "total_padding": clusters.total_padding(),
        "grain_triangle": partition.grain_triangle,
        "grain_rectangle": partition.grain_rectangle,
        "min_width": clusters.min_width,
    }


def render_partition_stats(partition: Partition, title: str = "") -> str:
    s = partition_statistics(partition)
    rows = [
        ["order n / nnz(L)", f"{s['n']} / {s['nnz']}"],
        ["clusters (multi-column)", f"{s['clusters']} ({s['multi_column_clusters']})"],
        ["max / mean cluster width",
         f"{s['max_cluster_width']} / {s['mean_cluster_width']:.1f}"],
        ["unit blocks", s["units"]],
        ["  columns / triangles / rectangles",
         f"{s['units_by_kind']['column']} / {s['units_by_kind']['triangle']} / "
         f"{s['units_by_kind']['rectangle']}"],
        ["unit nnz min / median / max",
         f"{s['unit_nnz_min']} / {s['unit_nnz_median']:.0f} / {s['unit_nnz_max']}"],
        ["empty units", s["empty_units"]],
        ["padding zeros (triangle / total)",
         f"{s['triangle_padding']} / {s['total_padding']}"],
        ["grain (tri / rect), min width",
         f"{s['grain_triangle']} / {s['grain_rectangle']}, {s['min_width']}"],
    ]
    return render_table(
        ["statistic", "value"],
        rows,
        title or "Partition statistics",
    )
