"""Regeneration of the paper's figures as text plots.

* Figure 1 is the element-level dependency diagram — its content is the
  update rule materialized by :func:`repro.symbolic.enumerate_updates`.
* Figure 2 shows the filled matrix of an MMD-ordered 5-point grid; we
  render the same thing as ASCII (the paper's caption says 41x41 for a
  5x5 grid, which is internally inconsistent — the grid size here is a
  parameter).
* Figure 3 shows a cluster partitioned into unit blocks.
* Figure 4 enumerates the ten dependency categories; we report how often
  each occurs in a real partitioned factor.
"""

from __future__ import annotations

import numpy as np

from ..core.clusters import find_clusters
from ..core.dependencies import CATEGORY_NAMES, classify_pair_updates
from ..core.partitioner import partition_factor
from ..core.pipeline import prepare
from ..obs.tables import render_table
from ..sparse import grid5, load

__all__ = ["figure1_ascii", "figure2_ascii", "figure3_ascii", "figure4_report"]


def figure1_ascii(n: int = 8, i: int = 6, j: int = 4, k: int = 2) -> str:
    """ASCII rendering of the paper's Figure 1: the element-level data
    dependencies of one Cholesky update, drawn on a dense lower triangle.

    Marks the target L[i,j] ('T'), its sources L[i,k] and L[j,k] ('S'),
    the diagonal used for the final scaling ('d'), and annotates the
    update rule.
    """
    if not (0 <= k < j <= i < n):
        raise ValueError("need 0 <= k < j <= i < n")
    from ..sparse.pattern import LowerPattern
    from ..symbolic.updates import enumerate_updates

    pat = LowerPattern.dense(n)
    ups = enumerate_updates(pat)
    # Confirm this update really exists in the enumeration.
    t = pat.element_id(i, j)
    found = False
    for idx in range(ups.num_pair_updates):
        if (
            int(ups.target[idx]) == t
            and int(ups.source_col[idx]) == k
            and int(pat.rowidx[ups.source_i[idx]]) == i
            and int(pat.rowidx[ups.source_j[idx]]) == j
        ):
            found = True
            break
    assert found, "update enumeration must contain the illustrated update"

    lines = [
        f"Figure 1: inter-element dependencies in Cholesky factorization "
        f"(n={n} dense)",
        f"update: L[{i},{j}] -= L[{i},{k}] * L[{j},{k}]; "
        f"scale: L[{i},{j}] /= L[{j},{j}]",
        "",
        "    " + "".join(f"{c:>2}" for c in range(n)),
    ]
    for r in range(n):
        row = []
        for c in range(r + 1):
            if (r, c) == (i, j):
                ch = "T"
            elif (r, c) in ((i, k), (j, k)):
                ch = "S"
            elif (r, c) == (j, j):
                ch = "d"
            else:
                ch = "."
            row.append(f"{ch:>2}")
        lines.append(f"{r:>3} " + "".join(row))
    lines += [
        "",
        "T = target element, S = source pair (column k), "
        "d = scaling diagonal",
    ]
    return "\n".join(lines)


def figure2_ascii(nx: int = 5, ny: int = 5, ordering: str = "mmd") -> str:
    """ASCII rendering of the filled matrix of an MMD-ordered 5-point grid.

    '#' marks an original nonzero of (permuted) A, '+' marks fill, '.'
    marks a structural zero.  Only the lower triangle is shown, as in
    the paper's Figure 2.
    """
    graph = grid5(nx, ny)
    prep = prepare(graph, ordering=ordering, name=f"grid5({nx},{ny})")
    pat = prep.pattern
    permuted = graph.permute(prep.perm)
    a_lower = permuted.lower()
    n = pat.n
    fill = pat.nnz - a_lower.nnz
    lines = [
        f"Figure 2: filled matrix of the {nx}x{ny} 5-point grid "
        f"(n={n}, nnz(A)={a_lower.nnz}, nnz(L)={pat.nnz}, fill={fill})",
        "'#' original nonzero, '+' fill, '.' zero; lower triangle only",
        "",
    ]
    dense_L = pat.to_dense_bool()
    dense_A = a_lower.to_dense_bool()
    for i in range(n):
        row = []
        for j in range(i + 1):
            if dense_A[i, j]:
                row.append("#")
            elif dense_L[i, j]:
                row.append("+")
            else:
                row.append(".")
        lines.append("".join(row))
    clusters = find_clusters(pat, min_width=2)
    strips = [(c.col_lo, c.col_hi) for c in clusters if not c.is_column]
    lines.append("")
    lines.append(f"clusters (min width 2): {len(clusters)} total, "
                 f"multi-column strips: {strips}")
    return "\n".join(lines)


def figure3_ascii(width: int = 9, depth: int = 16, grain: int = 4) -> str:
    """ASCII rendering of a partitioned cluster, as in Figure 3.

    Builds a synthetic dense cluster (a ``width``-wide dense triangle
    with two dense rectangles below, total ``depth`` rows), partitions
    it, and draws each position labelled by its unit block.
    """
    if depth < width + 2:
        raise ValueError("depth must exceed width + 2 to leave room for rectangles")
    n = depth + 1
    rows_list, cols_list = [], []
    gap = width + (depth - width) // 2  # a one-row gap splits the rectangles
    for c in range(width):
        for r in range(c, depth):
            if r == gap:
                continue
            rows_list.append(r)
            cols_list.append(c)
    # A final dense column ties the gap row and the tail into the pattern.
    for r in range(width, n):
        rows_list.append(r)
        cols_list.append(width)
    u = np.asarray(rows_list + list(range(n)), dtype=np.int64)
    v = np.asarray(cols_list + list(range(n)), dtype=np.int64)
    from ..sparse.pattern import LowerPattern

    pat = LowerPattern.from_entries(n, u, v)
    partition = partition_factor(pat, grain=grain, min_width=2)
    cluster = partition.clusters[0]
    label = {}
    letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
    for u_blk in partition.units_of_cluster(cluster.index):
        for e in u_blk.elements.tolist():
            label[e] = letters[u_blk.uid % len(letters)]
    lines = [
        f"Figure 3: cluster 0 (cols {cluster.col_lo}-{cluster.col_hi}) "
        f"partitioned with grain {grain}; letters mark unit blocks",
        "",
    ]
    cols_of = pat.element_cols()
    dense = {}
    for e in range(pat.nnz):
        dense[(int(pat.rowidx[e]), int(cols_of[e]))] = label.get(e, "?")
    for r in range(depth):
        line = []
        for c in range(min(r + 1, width + 1)):
            line.append(dense.get((r, c), "."))
        lines.append("".join(line))
    kinds = {}
    for u_blk in partition.units_of_cluster(cluster.index):
        kinds[letters[u_blk.uid % len(letters)]] = (
            f"{u_blk.kind.value} rows[{u_blk.row_lo},{u_blk.row_hi}] "
            f"cols[{u_blk.col_lo},{u_blk.col_hi}]"
        )
    lines.append("")
    for k in sorted(kinds):
        lines.append(f"  {k}: {kinds[k]}")
    return "\n".join(lines)


def figure4_report(matrix: str = "LAP30", grain: int = 25, min_width: int = 4) -> str:
    """Occurrence counts of the ten dependency categories in a real
    partitioned factor (plus category 0, the internal updates)."""
    prep = prepare(load(matrix), name=matrix)
    partition = partition_factor(prep.pattern, grain=grain, min_width=min_width)
    cats = classify_pair_updates(partition, prep.updates)
    vals, counts = np.unique(cats, return_counts=True)
    count_of = dict(zip(vals.tolist(), counts.tolist()))
    total = int(counts.sum())
    rows = []
    for cat in range(11):
        c = count_of.get(cat, 0)
        rows.append([cat, CATEGORY_NAMES[cat], c, 100.0 * c / total if total else 0.0])
    return render_table(
        ["cat", "description", "pair updates", "%"],
        rows,
        f"Figure 4: dependency categories in {matrix} (g={grain}, width={min_width})",
    )
