"""One-call drivers: matrix structure -> ordered -> partitioned ->
scheduled -> measured.

:class:`PreparedMatrix` caches the expensive, sweep-invariant stages
(ordering, symbolic factorization, update enumeration) and, per
partition parameter tuple, the processor-count-invariant partition
stage, so parameter sweeps over grain size / processor count / cluster
width re-use them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..machine.metrics import LoadBalance, load_balance
from ..obs import trace as obs
from ..machine.traffic import TrafficResult, data_traffic
from ..machine.work import processor_work, unit_work
from ..ordering import order as order_graph
from ..sparse.pattern import LowerPattern, SymmetricGraph
from ..symbolic.fill import SymbolicFactor, symbolic_cholesky
from ..symbolic.updates import UpdateSet, enumerate_updates
from .assignment import Assignment
from .dependencies import DependencyInfo, analyze_dependencies
from .partitioner import Partition, partition_factor
from .scheduler import SchedulerOptions, schedule_blocks
from .wrap import wrap_assignment

__all__ = [
    "PreparedMatrix",
    "PartitionedMatrix",
    "MappingResult",
    "prepare",
    "partition_prepared",
    "block_mapping",
    "block_mappings",
    "adaptive_block_mapping",
    "wrap_mapping",
    "wrap_mappings",
]


@dataclass
class PreparedMatrix:
    """A structure ordered and symbolically factored, ready for mapping
    experiments.

    The update set and every partition stage built from it are cached on
    the instance: :func:`partition_prepared` keeps one
    :class:`PartitionedMatrix` per ``(grain, min_width, zero_tolerance,
    grain_rectangle)`` it was called with, for as long as this object
    lives: that memory is the price of partitioning each tuple once.
    """

    name: str
    graph: SymmetricGraph
    perm: np.ndarray
    symbolic: SymbolicFactor
    _partitions: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def pattern(self) -> LowerPattern:
        return self.symbolic.pattern

    @cached_property
    def updates(self) -> UpdateSet:
        with obs.span("pipeline.enumerate_updates", matrix=self.name):
            out = enumerate_updates(self.pattern)
        obs.counter("pipeline.stage.enumerate_updates")
        obs.counter("pipeline.pair_updates", out.num_pair_updates)
        return out

    @property
    def factor_nnz(self) -> int:
        return self.pattern.nnz

    @property
    def total_work(self) -> int:
        return self.updates.total_work()


def prepare(graph: SymmetricGraph, ordering: str = "mmd", name: str = "") -> PreparedMatrix:
    """Order and symbolically factor a structure."""
    label = name or "matrix"
    with obs.span("pipeline.prepare", matrix=label, ordering=ordering):
        with obs.span("pipeline.order", matrix=label, ordering=ordering):
            perm = order_graph(graph, ordering)
        obs.counter("pipeline.stage.order")
        with obs.span("pipeline.symbolic", matrix=label):
            symbolic = symbolic_cholesky(graph, perm)
        obs.counter("pipeline.stage.symbolic")
    return PreparedMatrix(name=label, graph=graph, perm=np.asarray(perm), symbolic=symbolic)


@dataclass
class PartitionedMatrix:
    """A prepared matrix carried through the processor-count-invariant
    mapping stages.

    Partitioning, dependency analysis and per-unit work depend only on
    (structure, ordering, grain, min_width) — never on the processor
    count — so one ``PartitionedMatrix`` serves every ``nprocs`` cell of
    a sweep grid (see :func:`block_mappings`).
    """

    prepared: PreparedMatrix
    partition: Partition
    dependencies: DependencyInfo
    unit_work: np.ndarray
    grain: int
    min_width: int
    zero_tolerance: float = 0.0
    grain_rectangle: int | None = None

    @property
    def pattern(self) -> LowerPattern:
        return self.prepared.pattern

    @property
    def updates(self) -> UpdateSet:
        return self.prepared.updates


def partition_prepared(
    prepared: PreparedMatrix,
    grain: int = 4,
    min_width: int = 4,
    zero_tolerance: float = 0.0,
    grain_rectangle: int | None = None,
) -> PartitionedMatrix:
    """Run the nprocs-invariant stages once: partition + dependencies +
    unit work.  The result feeds :func:`block_mappings` for any number
    of processor counts, and is memoised on ``prepared``: a repeat call
    with the same parameters returns the same object and builds (and
    traces) nothing."""
    key = (grain, min_width, zero_tolerance, grain_rectangle)
    if key in prepared._partitions:
        return prepared._partitions[key]
    with obs.span("pipeline.partition", matrix=prepared.name, grain=grain):
        partition = partition_factor(
            prepared.pattern,
            grain=grain,
            min_width=min_width,
            zero_tolerance=zero_tolerance,
            grain_rectangle=grain_rectangle,
        )
    obs.counter("pipeline.stage.partition")
    updates = prepared.updates
    with obs.span("pipeline.dependencies", matrix=prepared.name):
        deps = analyze_dependencies(partition, updates)
    obs.counter("pipeline.stage.dependencies")
    prepared._partitions[key] = PartitionedMatrix(
        prepared=prepared,
        partition=partition,
        dependencies=deps,
        unit_work=unit_work(partition, updates),
        grain=grain,
        min_width=min_width,
        zero_tolerance=zero_tolerance,
        grain_rectangle=grain_rectangle,
    )
    return prepared._partitions[key]


@dataclass
class MappingResult:
    """Everything measured for one (matrix, scheme, parameters) cell."""

    prepared: PreparedMatrix
    assignment: Assignment
    traffic: TrafficResult
    balance: LoadBalance
    partition: Partition | None = None
    dependencies: DependencyInfo | None = None

    @property
    def scheme(self) -> str:
        return self.assignment.scheme

    @property
    def nprocs(self) -> int:
        return self.assignment.nprocs

    def summary(self) -> dict:
        """Flat dict of the paper's reported figures."""
        return {
            "matrix": self.prepared.name,
            "scheme": self.scheme,
            "nprocs": self.nprocs,
            "traffic_total": self.traffic.total,
            "traffic_mean": self.traffic.mean,
            "work_mean": self.balance.mean,
            "work_max": self.balance.max,
            "imbalance": self.balance.imbalance,
        }


def _measured(
    prepared: PreparedMatrix,
    assignment: Assignment,
    include_scale_traffic: bool,
    partition: Partition | None = None,
    dependencies: DependencyInfo | None = None,
) -> MappingResult:
    """The metrics stage every driver ends in: one assignment in, the
    paper's two quantities (distinct non-local fetches, work) out."""
    updates = prepared.updates
    with obs.span("pipeline.metrics", matrix=prepared.name):
        traffic = data_traffic(assignment, updates, include_scale=include_scale_traffic)
        balance = load_balance(processor_work(assignment, updates))
    obs.counter("pipeline.stage.metrics")
    return MappingResult(prepared, assignment, traffic, balance, partition, dependencies)


def block_mappings(
    partitioned: PartitionedMatrix,
    procs,
    options: SchedulerOptions | None = None,
    include_scale_traffic: bool = True,
) -> list[MappingResult]:
    """Measure the block mapping at every processor count in ``procs``.

    The nprocs-invariant stages (partition, dependencies, unit work)
    come precomputed on ``partitioned``; only the scheduler and the
    metrics run per processor count, and a cell's result does not
    depend on which other counts share the call.
    """
    procs = tuple(procs)
    prepared = partitioned.prepared
    results = []
    with obs.span(
        "pipeline.block_mappings",
        matrix=prepared.name,
        grain=partitioned.grain,
        cells=len(procs),
    ):
        for nprocs in procs:
            with obs.span("pipeline.schedule", matrix=prepared.name, nprocs=nprocs):
                assignment = schedule_blocks(
                    partitioned.partition,
                    partitioned.dependencies,
                    nprocs,
                    unit_work=partitioned.unit_work,
                    options=options,
                )
            obs.counter("pipeline.stage.schedule")
            results.append(
                _measured(
                    prepared,
                    assignment,
                    include_scale_traffic,
                    partitioned.partition,
                    partitioned.dependencies,
                )
            )
    return results


def block_mapping(
    prepared: PreparedMatrix,
    nprocs: int,
    grain: int = 4,
    min_width: int = 4,
    zero_tolerance: float = 0.0,
    grain_rectangle: int | None = None,
    options: SchedulerOptions | None = None,
    include_scale_traffic: bool = True,
) -> MappingResult:
    """Run the paper's block-based partitioner + scheduler and measure
    it: the :func:`block_mappings` group of one processor count."""
    with obs.span("pipeline.block_mapping", matrix=prepared.name, nprocs=nprocs, grain=grain):
        partitioned = partition_prepared(
            prepared, grain, min_width, zero_tolerance, grain_rectangle
        )
        return block_mappings(partitioned, (nprocs,), options, include_scale_traffic)[0]


def adaptive_block_mapping(
    prepared: PreparedMatrix,
    nprocs: int,
    grain: int = 4,
    min_width: int = 4,
    zero_tolerance: float = 0.0,
    options: SchedulerOptions | None = None,
    include_scale_traffic: bool = True,
) -> MappingResult:
    """Run the adaptive partitioner/scheduler (§3.2 parameter (a)):
    triangle partition counts limited by predecessor-processor counts,
    the static pipeline run to a fixed point.  The partition itself
    depends on the processor count, so there is no invariant prefix to
    share between cells."""
    from .adaptive import _fixed_point

    with obs.span("pipeline.adaptive_block_mapping", matrix=prepared.name, nprocs=nprocs, grain=grain):
        with obs.span("pipeline.adaptive_schedule", matrix=prepared.name, nprocs=nprocs):
            partition, deps, assignment = _fixed_point(
                prepared.pattern, prepared.updates, nprocs, grain, min_width,
                zero_tolerance, options,
            )
        obs.counter("pipeline.stage.partition")
        obs.counter("pipeline.stage.schedule")
        obs.counter("pipeline.stage.dependencies")
        return _measured(prepared, assignment, include_scale_traffic, partition, deps)


def wrap_mappings(
    prepared: PreparedMatrix,
    procs,
    include_scale_traffic: bool = True,
) -> list[MappingResult]:
    """Measure the wrap-mapped column baseline at every processor count
    in ``procs``."""
    procs = tuple(procs)
    results = []
    with obs.span("pipeline.wrap_mappings", matrix=prepared.name, cells=len(procs)):
        for nprocs in procs:
            assignment = wrap_assignment(prepared.pattern, nprocs)
            obs.counter("pipeline.stage.schedule")
            results.append(_measured(prepared, assignment, include_scale_traffic))
    return results


def wrap_mapping(
    prepared: PreparedMatrix,
    nprocs: int,
    include_scale_traffic: bool = True,
) -> MappingResult:
    """Run the wrap-mapped column baseline and measure it: the
    :func:`wrap_mappings` group of one processor count."""
    with obs.span("pipeline.wrap_mapping", matrix=prepared.name, nprocs=nprocs):
        return wrap_mappings(prepared, (nprocs,), include_scale_traffic)[0]
