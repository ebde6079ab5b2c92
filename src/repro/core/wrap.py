"""The wrap-mapped column assignment baseline.

Column j (all of its factor elements) is assigned to processor
``j mod N`` — the "straightforward and widely used column-based
approach" the paper compares against.
"""

from __future__ import annotations

import numpy as np

from ..sparse.dtypes import as_processor_count
from ..sparse.pattern import LowerPattern
from .assignment import Assignment

__all__ = ["wrap_assignment", "block_cyclic_columns", "two_d_cyclic"]


def wrap_assignment(pattern: LowerPattern, nprocs: int) -> Assignment:
    """Wrap-around (cyclic) column mapping."""
    nprocs = as_processor_count(nprocs)
    cols = pattern.element_cols()
    return Assignment(
        scheme="wrap",
        nprocs=nprocs,
        pattern=pattern,
        owner_of_element=(cols % nprocs).astype(np.int64),
        proc_of_unit=(np.arange(pattern.n, dtype=np.int64) % nprocs),
    )


def block_cyclic_columns(pattern: LowerPattern, nprocs: int, block: int) -> Assignment:
    """Block-cyclic column mapping (ablation variant): columns are dealt
    to processors in contiguous blocks of ``block`` columns."""
    nprocs = as_processor_count(nprocs)
    block = as_processor_count(block, "block")
    cols = pattern.element_cols()
    proc_of_col = (np.arange(pattern.n, dtype=np.int64) // block) % nprocs
    return Assignment(
        scheme=f"block-cyclic({block})",
        nprocs=nprocs,
        pattern=pattern,
        owner_of_element=proc_of_col[cols],
        proc_of_unit=proc_of_col,
    )


def two_d_cyclic(pattern: LowerPattern, proc_rows: int, proc_cols: int) -> Assignment:
    """2-D cyclic element mapping on a ``proc_rows`` x ``proc_cols``
    processor grid: element (i, j) goes to processor
    ``(i mod pr) * pc + (j mod pc)``.

    The classic scalable mapping for dense and sparse factorizations
    (post-dating the paper); included as the modern comparison point in
    the mapping-family ablation.  There is no unit-level view: ownership
    cuts across columns.
    """
    proc_rows = as_processor_count(proc_rows, "proc_rows")
    proc_cols = as_processor_count(proc_cols, "proc_cols")
    rows = pattern.rowidx
    cols = pattern.element_cols()
    owner = (rows % proc_rows) * np.int64(proc_cols) + (cols % proc_cols)
    return Assignment(
        scheme=f"2d-cyclic({proc_rows}x{proc_cols})",
        nprocs=proc_rows * proc_cols,
        pattern=pattern,
        owner_of_element=owner.astype(np.int64),
    )
