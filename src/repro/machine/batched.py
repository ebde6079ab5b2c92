"""Batched multi-assignment metrics.

The paper's experimental grid measures one fixed structure under many
processor counts and mapping schemes.  The *source side* of every read
is identical across those cells, so the K evaluations share the
memoised read structures of :mod:`repro.machine.traffic` (a partition's
unit read index, the source-sorted read list) and each cell *is* a
:func:`~repro.machine.traffic.data_traffic` call, so the two paths
cannot disagree.  :func:`batched_traffic` takes raw owner arrays, which
carry no unit-level view: always the element kernel.  Working memory is
one cell's chunk at a time, bounded by ``chunk_reads`` whatever K is.

This module adds what a batch needs on top: validation of raw owner
arrays (the kernel trusts its owners), and the matching per-cell
load-balance pass.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..obs import trace as obs
from ..symbolic.updates import UpdateSet
from .metrics import LoadBalance, load_balance
from .traffic import ReadIndex, TrafficResult, data_traffic, element_read_index, fetch_counts

__all__ = [
    "batched_traffic",
    "batched_load_balance",
    "batched_metrics",
]


def _validated_inputs(
    updates: UpdateSet, owners, nprocs: Sequence[int]
) -> tuple[list[np.ndarray], list[int]]:
    """K owner arrays narrowed to int32 (processor ids are far below
    2^31), each checked against its own processor count."""
    owners = [np.asarray(o) for o in owners]
    nprocs = [int(p) for p in nprocs]
    if len(nprocs) != len(owners):
        raise ValueError("need one processor count per owner array")
    nnz = updates.pattern.nnz
    for k, (owner, p) in enumerate(zip(owners, nprocs)):
        if owner.shape != (nnz,):
            raise ValueError(
                f"owner array {k} has shape {owner.shape}, updates cover "
                f"{nnz} elements"
            )
        if p < 1:
            raise ValueError(f"owner array {k}: nprocs must be positive, got {p}")
        if nnz:
            # Checked before narrowing: an id past 2^31 would wrap into
            # range, and an id out of range would alias another source's
            # stamp-table slots and return a silently wrong count.
            lo, hi = owner.min(), owner.max()
            if lo < 0 or hi >= p:
                raise ValueError(
                    f"owner array {k} holds processor id "
                    f"{lo if lo < 0 else hi}, outside [0, {p})"
                )
    return [o.astype(np.int32, copy=False) for o in owners], nprocs


def batched_traffic(
    updates: UpdateSet,
    owners,
    nprocs: Sequence[int],
    read_index: ReadIndex | None = None,
    include_scale: bool = True,
    chunk_reads: int | None = None,
) -> list[TrafficResult]:
    """Distinct non-local fetches per processor for K owner arrays;
    value-identical to K :func:`~repro.machine.traffic.data_traffic`
    calls.

    ``owners`` holds K arrays of ``nnz`` processor ids and ``nprocs[k]``
    is the processor count of assignment k (the counts may differ across
    k).  ``read_index`` defaults to the one memoised on ``updates``.
    The read list is streamed in source-aligned chunks of at most
    ``chunk_reads`` reads and stamp-table slots (default
    :data:`~repro.machine.traffic.DEFAULT_CHUNK_READS`, overridable via
    ``$REPRO_BATCH_CHUNK_READS``); results are bit-identical at every
    chunk size.
    """
    owners, nprocs = _validated_inputs(updates, owners, nprocs)
    read_index = element_read_index(updates, include_scale, read_index)
    obs.counter("machine.batched.cells", len(owners))
    return [
        TrafficResult(fetch_counts(owner, p, read_index, chunk_reads=chunk_reads))
        for owner, p in zip(owners, nprocs)
    ]


def batched_load_balance(
    updates: UpdateSet, owners, nprocs: Sequence[int]
) -> list[LoadBalance]:
    """Owner-computes work distribution for K owner arrays; one weighted
    bincount per cell, value-identical to K :func:`processor_work` +
    :func:`load_balance` calls.

    The per-cell loop (rather than one bincount over a flattened
    ``(K, nnz)`` float64 broadcast) keeps the transient at ``nnz``
    doubles instead of ``K * nnz`` — the summation order within each
    cell is unchanged, so the results are bit-identical.
    """
    owners, nprocs = _validated_inputs(updates, owners, nprocs)
    ew = updates.element_work().astype(np.float64)
    return [
        load_balance(
            np.bincount(owner, weights=ew, minlength=p).astype(np.int64)
        )
        for owner, p in zip(owners, nprocs)
    ]


def batched_metrics(
    updates: UpdateSet,
    assignments,
    read_index: ReadIndex | None = None,
    include_scale: bool = True,
    chunk_reads: int | None = None,
) -> list[tuple[TrafficResult, LoadBalance]]:
    """Traffic and load balance for K assignments of one structure.

    All assignments must map the same pattern the updates were
    enumerated on; their processor counts may differ.  Each cell is a
    :func:`~repro.machine.traffic.data_traffic` call (``read_index``
    serves those on the element kernel, ``chunk_reads`` bounds the
    kernel's per-chunk working set, see :func:`batched_traffic`).
    """
    assignments = list(assignments)
    owners = [a.owner_of_element for a in assignments]
    nprocs = [a.nprocs for a in assignments]
    with obs.span("machine.batched_metrics", cells=len(assignments)):
        balance = batched_load_balance(updates, owners, nprocs)  # validates
        obs.counter("machine.batched.cells", len(assignments))
        traffic = [
            data_traffic(a, updates, include_scale, read_index, chunk_reads)
            for a in assignments
        ]
    return list(zip(traffic, balance))
