"""Metrics for K assignments of one structure.

The paper's experimental grid measures one fixed structure under many
processor counts and mapping schemes.  What the cells share is memoised
where it is built — the source-sorted read list on the ``UpdateSet``,
the unit read index on the partition (:mod:`repro.machine.traffic`) —
so measuring K assignments is measuring each of them:
:func:`batched_metrics` is that loop, and a cell's figures cannot depend
on which other cells it is measured with.
"""

from __future__ import annotations

from ..obs import trace as obs
from ..symbolic.updates import UpdateSet
from .metrics import LoadBalance, load_balance
from .traffic import ReadIndex, TrafficResult, data_traffic
from .work import processor_work

__all__ = ["batched_metrics"]


def batched_metrics(
    updates: UpdateSet,
    assignments,
    read_index: ReadIndex | None = None,
    include_scale: bool = True,
) -> list[tuple[TrafficResult, LoadBalance]]:
    """Traffic and load balance for K assignments of one structure.

    All assignments must map the same pattern the updates were
    enumerated on; their processor counts may differ.  Each cell is a
    :func:`~repro.machine.traffic.data_traffic` call (``read_index``
    serves those on the element kernel) and a
    :func:`~repro.machine.work.processor_work` call.
    """
    assignments = list(assignments)
    with obs.span("machine.batched_metrics", cells=len(assignments)):
        obs.counter("machine.batched.cells", len(assignments))
        return [
            (
                data_traffic(a, updates, include_scale, read_index),
                load_balance(processor_work(a, updates)),
            )
            for a in assignments
        ]
