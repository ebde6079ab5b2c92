"""Hot-spot analysis of the communication pattern.

The paper: "Wrap-mappings usually lead to processors communicating with
a large number of other processors leading to a large amount of data
traffic and possibly to hot-spots.  However, in block-based schemes,
most of the communication among blocks ... can mostly be confined to
small groups of processors."  These metrics quantify that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.assignment import Assignment
from ..core.traffic import communication_matrix
from ..symbolic.updates import UpdateSet

__all__ = ["HotspotProfile", "hotspot_profile"]


@dataclass(frozen=True)
class HotspotProfile:
    """Concentration statistics of a processor-pair traffic matrix."""

    matrix: np.ndarray

    @property
    def nprocs(self) -> int:
        return self.matrix.shape[0]

    @property
    def total(self) -> int:
        return int(self.matrix.sum())

    @property
    def active_pairs(self) -> int:
        """Ordered processor pairs with any traffic."""
        return int((self.matrix > 0).sum())

    @property
    def mean_partners(self) -> float:
        """Average number of distinct senders each processor reads from."""
        return float((self.matrix > 0).sum(axis=1).mean())

    @property
    def max_inbound(self) -> int:
        """Heaviest per-processor inbound volume (the hot spot)."""
        return int(self.matrix.sum(axis=1).max()) if self.total else 0

    @property
    def max_outbound(self) -> int:
        """Heaviest per-processor outbound volume (most-read owner)."""
        return int(self.matrix.sum(axis=0).max()) if self.total else 0

    @property
    def hotspot_factor(self) -> float:
        """max outbound / mean outbound — 1.0 is perfectly even demand.

        The 'outbound' direction is the contended one: many processors
        pulling from one owner is the hot spot the paper warns about.
        """
        if self.total == 0:
            return 1.0
        col_sums = self.matrix.sum(axis=0)
        return float(col_sums.max() / col_sums.mean())

    def pairs_for_fraction(self, fraction: float = 0.9) -> int:
        """Number of heaviest ordered pairs covering ``fraction`` of the
        traffic (smaller = more concentrated/local communication)."""
        if not (0.0 < fraction <= 1.0):
            raise ValueError("fraction must be in (0, 1]")
        if self.total == 0:
            return 0
        flat = np.sort(self.matrix.ravel())[::-1]
        cum = np.cumsum(flat)
        return int(np.searchsorted(cum, fraction * cum[-1])) + 1


def hotspot_profile(
    assignment: Assignment, updates: UpdateSet, include_scale: bool = True
) -> HotspotProfile:
    """Hot-spot profile of an assignment's communication matrix."""
    return HotspotProfile(
        communication_matrix(assignment, updates, include_scale=include_scale)
    )
