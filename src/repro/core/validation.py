"""Structural validators for partitions, dependency graphs and schedules.

These raise :class:`ValidationError` with a precise message on the first
violated invariant; they are cheap enough to run in production pipelines
and are exercised throughout the test suite.
"""

from __future__ import annotations

import numpy as np

from .assignment import Assignment
from .dependencies import DependencyInfo, topological_order
from .partitioner import Partition

__all__ = ["ValidationError", "validate_partition", "validate_assignment",
           "validate_dependencies"]


class ValidationError(AssertionError):
    """An invariant of the partitioning/scheduling pipeline is violated."""


def validate_partition(partition: Partition) -> None:
    """Check a partition's structural invariants.

    * every factor element lies inside the extents of the one unit
      that owns it;
    * units stay within their cluster's column range;
    * with zero tolerance 0, cluster triangles are fully dense.
    """
    pattern = partition.pattern
    try:
        partition.check_exact_cover()
    except AssertionError as exc:
        raise ValidationError(str(exc)) from exc
    cmap = partition.clusters.cluster_of_column
    cluster = partition.cluster_of_unit
    strays = np.flatnonzero(
        (cmap[partition.col_lo] != cluster) | (cmap[partition.col_hi] != cluster)
    )
    if len(strays):
        u = int(strays[0])
        raise ValidationError(
            f"unit {u} columns [{partition.col_lo[u]},{partition.col_hi[u]}] leave "
            f"cluster {cluster[u]}"
        )

    clusters = partition.clusters
    if clusters.zero_tolerance == 0.0:
        for i in np.flatnonzero(~clusters.is_column).tolist():
            lo, hi = int(clusters.col_lo[i]), int(clusters.col_hi[i])
            for c in range(lo, hi + 1):
                for r in range(c, hi + 1):
                    if not pattern.has(r, c):
                        raise ValidationError(
                            f"cluster {i} triangle has a hole "
                            f"at ({r},{c}) despite zero tolerance 0"
                        )


def validate_dependencies(deps: DependencyInfo) -> None:
    """Check the dependency graph: no self edges, edges unique, the
    graph acyclic, and independence consistent with the edge set."""
    edges = deps.edges
    if len(edges) and (edges[:, 0] == edges[:, 1]).any():
        raise ValidationError("self-dependency edge present")
    n_units = deps.partition.num_units
    keys = edges[:, 0] * np.int64(n_units) + edges[:, 1]
    if len(np.unique(keys)) != len(keys):
        raise ValidationError("duplicate dependency edges")
    try:
        topological_order(n_units, edges)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    has_pred = np.zeros(n_units, dtype=bool)
    has_pred[edges[:, 1]] = True
    if (deps.independent_units & has_pred).any():
        raise ValidationError("independent unit has predecessors")
    if (~deps.independent_units & ~has_pred).any():
        raise ValidationError("unit with no predecessors marked dependent")


def validate_assignment(assignment: Assignment) -> None:
    """Check an assignment: owners in range, and (for block schedules)
    element owners consistent with unit owners."""
    owners = assignment.owner_of_element
    if len(owners) and (owners.min() < 0 or owners.max() >= assignment.nprocs):
        raise ValidationError("element owner out of processor range")
    if assignment.partition is not None and assignment.proc_of_unit is not None:
        expected = assignment.proc_of_unit[assignment.partition.unit_of_element]
        if not np.array_equal(owners, expected):
            raise ValidationError("element owners disagree with unit owners")
        if (assignment.proc_of_unit < 0).any() or (
            assignment.proc_of_unit >= assignment.nprocs
        ).any():
            raise ValidationError("unit owner out of processor range")
