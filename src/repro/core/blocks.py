"""Block types used by the partitioner.

Terminology follows the paper (§3):

* a **cluster** is a column or a strip of consecutive columns whose
  diagonal block is a dense triangle;
* within a multi-column cluster, the **dense blocks** are the diagonal
  triangle and the off-diagonal rectangles (maximal consecutive row
  runs);
* dense blocks are split into **unit blocks** — the schedulable units —
  each of which is a column, a (unit) triangle or a (unit) rectangle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

__all__ = ["BlockKind", "DenseBlock", "UnitBlock", "KINDS", "KIND_CODE", "UNIT_COLUMNS"]


class BlockKind(enum.Enum):
    COLUMN = "column"
    TRIANGLE = "triangle"
    RECTANGLE = "rectangle"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Integer code of each kind in the columnar unit table, and its inverse.
KINDS = (BlockKind.COLUMN, BlockKind.TRIANGLE, BlockKind.RECTANGLE)
KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}

#: Row layout of the unit table (:class:`repro.core.partitioner.Partition`
#: stores one int64 column per name).  The last four are the fields of
#: ``order_key`` that vary beyond the cluster id: dense-block index
#: within the cluster (0 = triangle, 1 + k = k-th rectangle), order
#: group within the block, and the row / column chunk indices.
UNIT_COLUMNS = (
    "kind", "parent_kind", "cluster", "col_lo", "col_hi", "row_lo", "row_hi",
    "block", "group", "ri", "ci",
)


@dataclass(frozen=True)
class DenseBlock:
    """A dense region of the factor before unit partitioning.

    Extents are inclusive.  For a TRIANGLE, ``row_lo == col_lo`` and
    ``row_hi == col_hi`` and the region is the lower-triangular part.
    For a COLUMN, ``col_lo == col_hi`` and the row extent spans the
    column's nonzeros (which need not be contiguous).
    """

    kind: BlockKind
    cluster: int
    col_lo: int
    col_hi: int
    row_lo: int
    row_hi: int

    def __post_init__(self) -> None:
        if self.col_lo > self.col_hi or self.row_lo > self.row_hi:
            raise ValueError("empty block extent")
        if self.kind is BlockKind.TRIANGLE and (
            self.row_lo != self.col_lo or self.row_hi != self.col_hi
        ):
            raise ValueError("triangle extents must coincide")
        if self.kind is BlockKind.COLUMN and self.col_lo != self.col_hi:
            raise ValueError("column block must have a single column")

    @property
    def width(self) -> int:
        return self.col_hi - self.col_lo + 1

    @property
    def height(self) -> int:
        return self.row_hi - self.row_lo + 1

    @property
    def area(self) -> int:
        """Geometric element count (padding zeros included)."""
        if self.kind is BlockKind.TRIANGLE:
            w = self.width
            return w * (w + 1) // 2
        return self.width * self.height

    def contains(self, row: int, col: int) -> bool:
        if not (self.col_lo <= col <= self.col_hi and self.row_lo <= row <= self.row_hi):
            return False
        if self.kind is BlockKind.TRIANGLE:
            return row >= col
        return True


@dataclass
class UnitBlock:
    """A schedulable unit: a column, unit triangle or unit rectangle.

    ``elements`` holds the factor element ids the unit owns (actual
    nonzeros only — padding zeros carry no work).  ``order_key`` encodes
    the paper's allocation order within the cluster; units are allocated
    in increasing ``order_key``.  A partition stores units as rows of
    :data:`UNIT_COLUMNS`; this class is the row view of one of them.
    """

    uid: int
    kind: BlockKind
    cluster: int
    col_lo: int
    col_hi: int
    row_lo: int
    row_hi: int
    elements: np.ndarray
    parent_kind: BlockKind = BlockKind.COLUMN
    order_key: tuple = field(default=())

    @property
    def width(self) -> int:
        return self.col_hi - self.col_lo + 1

    @property
    def height(self) -> int:
        return self.row_hi - self.row_lo + 1

    @property
    def area(self) -> int:
        if self.kind is BlockKind.TRIANGLE:
            w = self.width
            return w * (w + 1) // 2
        return self.width * self.height

    @property
    def nnz(self) -> int:
        return len(self.elements)

    @classmethod
    def from_row(cls, uid: int, row, elements: np.ndarray) -> "UnitBlock":
        """The unit whose :data:`UNIT_COLUMNS` values are ``row``."""
        kind, parent, cluster, col_lo, col_hi, row_lo, row_hi, *order = row
        return cls(
            uid, KINDS[kind], cluster, col_lo, col_hi, row_lo, row_hi, elements,
            KINDS[parent], (cluster, *order),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UnitBlock(uid={self.uid}, {self.kind.value}, cluster={self.cluster}, "
            f"cols=[{self.col_lo},{self.col_hi}], rows=[{self.row_lo},{self.row_hi}], "
            f"nnz={self.nnz})"
        )
