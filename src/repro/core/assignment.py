"""Assignment of factor elements to processors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.dtypes import as_processor_count
from ..sparse.pattern import LowerPattern
from .partitioner import Partition

__all__ = ["Assignment"]


@dataclass
class Assignment:
    """An owner-computes mapping of every factor element to a processor.

    ``owner_of_element[e]`` is the processor owning element id ``e`` (and
    therefore performing all updates targeting it).  ``proc_of_unit`` is
    the unit-level view the owners must follow — over the unit blocks of
    ``partition``, or over the columns without one — and the granularity
    the traffic layer counts at.
    """

    scheme: str
    nprocs: int
    pattern: LowerPattern
    owner_of_element: np.ndarray
    proc_of_unit: np.ndarray | None = None
    partition: Partition | None = None

    def __post_init__(self) -> None:
        self.nprocs = as_processor_count(self.nprocs)
        owners = self.owner_of_element
        if np.shape(owners) != (self.pattern.nnz,):
            raise ValueError("owner_of_element must have one entry per element")
        if len(owners) and (owners.min() < 0 or owners.max() >= self.nprocs):
            raise ValueError("element owner out of processor range")
        if self.proc_of_unit is not None:
            if self.partition is not None:
                unit_of_element = self.partition.unit_of_element
                n_units = self.partition.num_units
            else:
                unit_of_element, n_units = self.pattern.element_cols(), self.pattern.n
            if len(self.proc_of_unit) != n_units or not np.array_equal(
                owners, np.asarray(self.proc_of_unit)[unit_of_element]
            ):
                raise ValueError("owner_of_element must follow proc_of_unit")

    def elements_of(self, proc: int) -> np.ndarray:
        """Element ids owned by ``proc``."""
        return np.nonzero(self.owner_of_element == proc)[0]

    def units_of(self, proc: int) -> np.ndarray:
        if self.proc_of_unit is None:
            raise ValueError(f"{self.scheme} assignment has no unit-level view")
        return np.nonzero(self.proc_of_unit == proc)[0]
