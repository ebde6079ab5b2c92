"""Metrics for K assignments of one structure.

The paper's experimental grid measures one fixed structure under many
processor counts and mapping schemes.  What the cells share is memoised
where it is built — the reader sequences on the ``UpdateSet``, of which
the element read index is a view, and the unit read index on the
partition (:mod:`repro.machine.traffic`) — so measuring K assignments
is measuring each of them: :func:`batched_metrics` is that loop, and a
cell's figures cannot depend on which other cells it is measured with.
"""

from __future__ import annotations

from ..obs import trace as obs
from ..symbolic.updates import ReadIndex, UpdateSet
from .metrics import LoadBalance, load_balance
from .traffic import TrafficResult, data_traffic
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
    :func:`~repro.machine.traffic.data_traffic` call and a
    :func:`~repro.machine.work.processor_work` call.  A ``read_index``
    handed in must be ``build_read_index(updates, include_scale)``: the
    element kernel reads the same sequences, and one built from another
    structure or flag is refused.
    """
    if read_index is not None and read_index.reader is not updates.reader_sequences[0]:
        raise ValueError(
            "read_index was not built from these updates: it is not a view of their "
            "reader sequences (a unit read index, or the element index of another UpdateSet)"
        )
    if read_index is not None and read_index.include_scale != include_scale:
        raise ValueError(
            f"read index was built with include_scale={read_index.include_scale}, "
            f"requested {include_scale}"
        )
    assignments = list(assignments)
    with obs.span("machine.batched_metrics", cells=len(assignments)):
        obs.counter("machine.batched.cells", len(assignments))
        return [
            (
                data_traffic(a, updates, include_scale),
                load_balance(processor_work(a, updates)),
            )
            for a in assignments
        ]
