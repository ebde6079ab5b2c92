"""Run an SPMD function across simulated ranks (threads)."""

from __future__ import annotations

import threading

from ..obs import simtime
from ..obs import trace as obs
from .comm import CommWorld, MPSimError, _Aborted

__all__ = ["run_parallel"]


def run_parallel(
    fn,
    nprocs: int,
    *args,
    timeout: float | None = 60.0,
    drop_filter=None,
    **kwargs,
) -> list:
    """Execute ``fn(comm, *args, **kwargs)`` on ``nprocs`` ranks.

    Returns the per-rank return values in rank order.  Any rank raising
    an exception fails the whole run at once: the world is aborted, ranks
    blocked in a receive, probe or barrier wake up, and the root cause
    (the first exception, by rank, that is not such a wake-up) is
    re-raised with rank context.  ``timeout`` bounds both individual
    receives and the total join, converting deadlocks into errors.
    ``drop_filter`` injects message loss (see :class:`CommWorld`).

    When tracing is enabled, every message is stamped into a Lamport-clock
    :class:`~repro.obs.simtime.MessageLedger` and the whole run lands in
    the recorder as a ``SimRun`` (clock domain ``lamport``).
    """
    if nprocs < 1:
        raise ValueError("nprocs must be positive")
    world = CommWorld(nprocs, default_timeout=timeout, drop_filter=drop_filter)
    if obs.is_enabled():
        world.ledger = simtime.MessageLedger(nprocs)
    results: list = [None] * nprocs
    errors: list = [None] * nprocs

    def runner(rank: int) -> None:
        try:
            results[rank] = fn(world.comm(rank), *args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - propagated below
            errors[rank] = exc
            world.abort()

    threads = [
        threading.Thread(target=runner, args=(rank,), name=f"mpsim-rank-{rank}", daemon=True)
        for rank in range(nprocs)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
        if t.is_alive():
            raise MPSimError(f"{t.name} did not finish within {timeout}s (deadlock?)")
    failed = [(rank, exc) for rank, exc in enumerate(errors) if exc is not None]
    if failed:
        causes = [f for f in failed if not isinstance(f[1], _Aborted)]
        rank, exc = (causes or failed)[0]
        raise MPSimError(f"rank {rank} failed: {exc!r}") from exc
    if world.ledger is not None and world.ledger.messages:
        name = getattr(fn, "__name__", "mpsim")
        simtime.record_sim_run(world.ledger.to_sim_run(name=name))
    return results
