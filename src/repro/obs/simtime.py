"""Simulated-machine telemetry: the *sim-clock* domain.

The rest of :mod:`repro.obs` observes the reproduction pipeline on the
wall clock (spans, RSS, profiler samples).  This module observes the
*simulated machine* — the paper's actual subject — on its own clock
domain, in abstract machine time units:

* :class:`SimRun` — one simulated execution: per-unit start/finish/
  processor/stage records, a message ledger, and the analyses that
  answer the paper's questions (P×P communication matrices, per-link
  volumes, busy/wait/idle decomposition, critical-path extraction, λ
  attribution to stage × processor with top-k culprit blocks);
* :class:`MessageTable` — the message ledger as one struct-of-arrays
  table (src, dst, bytes, cause-block, send/recv sim-time);
* :class:`MessageLedger` — a Lamport-clock ledger for the executable
  :mod:`repro.mpsim` ranks, whose "simulated time" is logical (event
  counting) rather than the machine model's α/β cost model.

Emitters live next to the things they observe:
:func:`repro.machine.simulate.simulate_assignment` builds a
machine-model :class:`SimRun`; the numeric executors' stepper,
:func:`repro.mpsim.engine.gather_on_ranks`, attaches a
:class:`MessageLedger` to its ranks' endpoints.  Recorded runs land on
:class:`repro.obs.trace.Recorder.sim_runs` via
:func:`record_sim_run`, the one record of the simulated schedule:
:mod:`repro.obs.export` draws its units as Perfetto lanes and its
heaviest messages as flow arrows, and :mod:`repro.obs.report` renders
its manifest (comm heatmap, critical path, imbalance waterfall).
See ``docs/observability.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import trace as obs_trace

__all__ = [
    "MessageTable",
    "SimRun",
    "ProcTimes",
    "CriticalPath",
    "ImbalanceAttribution",
    "MessageLedger",
    "record_sim_run",
    "busy_grid",
    "ledger_run",
    "REASON_NONE",
    "REASON_PROC",
    "REASON_DEP",
    "REASON_MSG",
]

#: Why a unit started when it did (``SimRun.reason_kind``): nothing
#: bound it (it started at t=0), the processor was busy with an earlier
#: unit, a same-processor predecessor finished, or a message from
#: another processor arrived.
REASON_NONE = 0
REASON_PROC = 1
REASON_DEP = 2
REASON_MSG = 3

_REASON_NAMES = {
    REASON_NONE: "start",
    REASON_PROC: "proc-busy",
    REASON_DEP: "local-dep",
    REASON_MSG: "message",
}


class MessageTable:
    """A message ledger as parallel columns, one entry per message:
    int64 ``src``, ``dst``, ``nbytes``, ``cause`` and float64 ``send``,
    ``recv``, which :class:`SimRun` reduces directly.

    ``nbytes`` counts distinct elements carried (the paper's word-count
    traffic unit); ``cause`` is the unit block whose data the message
    carries (or a tag id for mpsim ledgers); ``recv`` is NaN for a
    message that was never delivered (fault injection).  The clock the
    times are on is the owning run's ``clock``."""

    def __init__(self, src=(), dst=(), nbytes=(), cause=(), send=(), recv=()):
        self.src, self.dst, self.nbytes, self.cause = (
            np.asarray(col, dtype=np.int64) for col in (src, dst, nbytes, cause)
        )
        self.send, self.recv = (
            np.asarray(col, dtype=np.float64) for col in (send, recv)
        )
        columns = (self.src, self.dst, self.nbytes, self.cause, self.send, self.recv)
        if len({len(col) for col in columns}) != 1:
            raise ValueError("message table columns differ in length")

    def __len__(self) -> int:
        return len(self.src)


@dataclass(frozen=True)
class ProcTimes:
    """Per-processor decomposition of the makespan: time computing,
    time stalled waiting for data/predecessors, and trailing idle time.
    ``busy + wait + idle == makespan`` per processor by construction."""

    busy: np.ndarray
    wait: np.ndarray
    idle: np.ndarray
    makespan: float


@dataclass(frozen=True)
class CriticalPath:
    """The chain of units that bounds the makespan.

    ``units`` is in execution order; ``edges[i]`` names why
    ``units[i+1]`` waited for ``units[i]`` (``proc-busy``,
    ``local-dep`` or ``message``).  ``length == makespan`` because each
    link is tight: every unit on the path started exactly when its
    predecessor released it."""

    units: np.ndarray
    edges: list[str]
    length: float
    compute: float
    wait: float


@dataclass(frozen=True)
class ImbalanceAttribution:
    """λ = W_max/W_ave − 1, decomposed by elimination stage.

    ``stage_rows[s]["excess"]`` is how much more work the peak
    processor ``proc`` did in stage ``s`` than the stage's mean — the
    rows sum to ``imbalance * mean_work`` exactly, so the waterfall
    reconstructs λ.  ``culprits`` are the top-k heaviest unit blocks on
    the peak processor."""

    imbalance: float
    proc: int
    work: np.ndarray
    mean_work: float
    stage_rows: list[dict]
    culprits: list[dict]


@dataclass
class SimRun:
    """One simulated execution of a schedule, on the simulated clock.

    Unit arrays are parallel (one entry per unit); a ledger-only run
    (an mpsim execution, ``clock="lamport"``) has empty unit arrays and
    supports only the message analyses."""

    name: str
    scheme: str
    nprocs: int
    makespan: float
    clock: str  # "machine" (α/β cost model) or "lamport" (mpsim)
    proc: np.ndarray
    stage: np.ndarray
    start: np.ndarray
    finish: np.ndarray
    work: np.ndarray
    kind: tuple[str, ...]
    reason: np.ndarray
    reason_kind: np.ndarray
    messages: MessageTable = field(default_factory=MessageTable)
    meta: dict = field(default_factory=dict)

    @property
    def n_units(self) -> int:
        return len(self.start)

    def _require_units(self, what: str) -> None:
        if not self.n_units:
            raise ValueError(
                f"{what} needs per-unit records; this {self.clock!r}-clock "
                "run carries only a message ledger"
            )

    # -- message analyses ----------------------------------------------
    def total_message_bytes(self) -> int:
        """Total ledger volume; for a machine-model run this bit-matches
        ``core.traffic.data_traffic(...).total`` (same dedup rule)."""
        return int(self.messages.nbytes.sum())

    def comm_matrix(self) -> np.ndarray:
        """C[p, q] = ledger bytes received by p from q, matching the
        orientation of :func:`repro.core.traffic.communication_matrix`."""
        out = np.zeros((self.nprocs, self.nprocs), dtype=np.int64)
        np.add.at(out, (self.messages.dst, self.messages.src), self.messages.nbytes)
        return out

    def link_volumes(self, top: int | None = None) -> list[tuple[int, int, int]]:
        """(src, dst, bytes) per used link, heaviest first."""
        m, n = self.messages, self.nprocs
        link, inverse = np.unique(m.src * n + m.dst, return_inverse=True)
        volume = np.zeros(len(link), dtype=np.int64)
        np.add.at(volume, inverse, m.nbytes)
        order = np.lexsort((link, -volume))[:top]
        link, volume = link[order], volume[order]
        return list(zip((link // n).tolist(), (link % n).tolist(), volume.tolist()))

    # -- timeline analyses ---------------------------------------------
    def proc_times(self) -> ProcTimes:
        """busy/wait/idle per processor; the three sum to the makespan."""
        self._require_units("proc_times")
        n = self.nprocs
        order = np.lexsort((self.finish, self.start, self.proc))
        proc, start, finish = self.proc[order], self.start[order], self.finish[order]
        first = np.append(True, proc[1:] != proc[:-1])
        # Gap before each unit: since the previous finish on its
        # processor, or since t=0 for the processor's first unit.
        gap = start - np.where(first, 0.0, np.concatenate(([0.0], finish[:-1])))
        # bincount adds in array order, i.e. in schedule order per
        # processor, so the float sums equal a sequential accumulation.
        wait = np.bincount(proc, weights=np.maximum(gap, 0.0), minlength=n)
        busy = np.bincount(proc, weights=finish - start, minlength=n)
        last = np.zeros(n, dtype=np.float64)
        ends = np.flatnonzero(np.append(first[1:], True))
        last[proc[ends]] = finish[ends]
        # Trailing idle is measured from the last finish, not derived
        # from busy+wait, so busy+wait+idle == makespan is a genuine
        # invariant of the simulation (pinned by tests).
        idle = self.makespan - last
        return ProcTimes(busy, wait, idle, self.makespan)

    def stage_work(self) -> tuple[np.ndarray, np.ndarray]:
        """(stage ids, W) with W[s, p] = work of stage s on processor p."""
        self._require_units("stage_work")
        stages, row = np.unique(self.stage, return_inverse=True)
        w = np.zeros((len(stages), self.nprocs), dtype=np.float64)
        np.add.at(w, (row, self.proc), self.work)
        return stages, w

    def critical_path(self) -> CriticalPath:
        """Walk start-reasons backwards from the makespan-defining unit.

        Every link is tight (a unit started the instant its reason
        released it), so the path telescopes to the makespan exactly."""
        self._require_units("critical_path")
        last = int(np.argmax(self.finish))
        chain = [last]
        edges: list[str] = []
        u = last
        for _ in range(self.n_units):
            k = int(self.reason_kind[u])
            if k == REASON_NONE:
                break
            prev = int(self.reason[u])
            edges.append(_REASON_NAMES[k])
            chain.append(prev)
            u = prev
        else:
            raise ValueError("critical-path walk did not terminate")
        chain.reverse()
        edges.reverse()
        units = np.asarray(chain, dtype=np.int64)
        compute = float(np.sum(self.finish[units] - self.start[units]))
        length = float(self.finish[last] - self.start[units[0]])
        return CriticalPath(units, edges, length, compute, length - compute)

    def imbalance(self, top_k: int = 5) -> ImbalanceAttribution:
        """Attribute λ to stage × processor, with top-k culprit blocks."""
        self._require_units("imbalance")
        w = np.bincount(self.proc, weights=self.work, minlength=self.nprocs)
        mean = float(w.mean()) if self.nprocs else 0.0
        lam = float(w.max() / mean - 1.0) if mean > 0 else 0.0
        p_star = int(np.argmax(w))
        stages, sw = self.stage_work()
        stage_mean, stage_max, peak = sw.mean(axis=1), sw.max(axis=1), sw[:, p_star]
        with np.errstate(divide="ignore", invalid="ignore"):
            lambda_s = np.where(stage_mean > 0, stage_max / stage_mean - 1.0, 0.0)
        rows = [
            {"stage": s, "excess": x, "peak_work": pk, "mean_work": mn,
             "max_work": mx, "lambda_s": ls}
            for s, x, pk, mn, mx, ls in zip(
                stages.tolist(), (peak - stage_mean).tolist(), peak.tolist(),
                stage_mean.tolist(), stage_max.tolist(), lambda_s.tolist(),
            )
        ]
        on_peak = np.flatnonzero(self.proc == p_star)
        heavy = on_peak[np.argsort(-self.work[on_peak], kind="stable")][:top_k]
        culprits = [{
            "uid": int(u),
            "stage": int(self.stage[u]),
            "kind": self.kind[u] if u < len(self.kind) else "?",
            "work": float(self.work[u]),
        } for u in heavy.tolist()]
        return ImbalanceAttribution(lam, p_star, w, mean, rows, culprits)

    # -- serialization ---------------------------------------------------
    def to_manifest(self, top_links: int = 30, path_cap: int = 200,
                    matrix_cap: int = 128) -> dict:
        """JSON-safe summary for the run registry / HTML report.

        The full P×P matrix is included up to ``matrix_cap`` processors
        (beyond that only the top links are kept); the critical path
        keeps its last ``path_cap`` units, each with the edge that
        released it (summary figures stay exact)."""
        doc: dict = {
            "name": self.name,
            "scheme": self.scheme,
            "nprocs": int(self.nprocs),
            "clock": self.clock,
            "makespan": float(self.makespan),
            "n_units": int(self.n_units),
            "n_messages": len(self.messages),
            "message_bytes": self.total_message_bytes(),
            "links": [
                {"src": s, "dst": d, "bytes": v}
                for s, d, v in self.link_volumes(top=top_links)
            ],
        }
        if self.nprocs <= matrix_cap:
            doc["comm_matrix"] = self.comm_matrix().tolist()
        if self.n_units:
            pt = self.proc_times()
            doc["proc_times"] = {
                "busy": [round(float(v), 6) for v in pt.busy],
                "wait": [round(float(v), 6) for v in pt.wait],
                "idle": [round(float(v), 6) for v in pt.idle],
            }
            cp = self.critical_path()
            cp_units = cp.units.tolist()
            first = max(len(cp_units) - path_cap, 0)
            doc["critical_path"] = {
                "length": cp.length,
                "compute": cp.compute,
                "wait": cp.wait,
                "n_units": len(cp_units),
                "truncated": len(cp_units) > path_cap,
                "units": [{
                    "uid": int(u),
                    "proc": int(self.proc[u]),
                    "stage": int(self.stage[u]),
                    "kind": self.kind[u] if u < len(self.kind) else "?",
                    "start": float(self.start[u]),
                    "finish": float(self.finish[u]),
                    "edge": ("start" if i == 0 else cp.edges[i - 1]),
                } for i, u in enumerate(cp_units[first:], first)],
            }
            att = self.imbalance()
            doc["imbalance"] = {
                "lambda": att.imbalance,
                "proc": att.proc,
                "mean_work": att.mean_work,
                "work": [float(v) for v in att.work],
                "stages": att.stage_rows,
                "culprits": att.culprits,
            }
        if self.meta:
            doc["meta"] = {k: _plain(v) for k, v in sorted(self.meta.items())}
        return doc


def _plain(value):
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def busy_grid(start, finish, proc, nprocs: int, width: int,
              makespan: float) -> np.ndarray:
    """Quantize unit intervals onto a (nprocs × width) busy raster.

    This is the single source of truth for Gantt-style rendering: the
    ASCII chart (:func:`repro.analysis.gantt.render_gantt`) and the
    report panels both consume it, so they can never disagree.  A unit
    with positive duration always covers at least one cell."""
    start = np.asarray(start, dtype=np.float64)
    finish = np.asarray(finish, dtype=np.float64)
    proc = np.asarray(proc, dtype=np.int64)
    if makespan <= 0:
        return np.zeros((nprocs, width), dtype=bool)
    scale = width / makespan
    lo = (start * scale).astype(np.int64)
    hi = np.maximum(np.ceil(finish * scale).astype(np.int64), lo + (finish > start))
    # Difference array per processor row: +1 where a unit's cells begin,
    # -1 just past where they end; cells with a positive running sum are
    # busy.  Column ``width`` absorbs the intervals that run off the end.
    row, cells = proc * (width + 1), nprocs * (width + 1)
    edge = np.bincount(row + np.minimum(lo, width), minlength=cells)
    edge -= np.bincount(row + np.minimum(hi, width), minlength=cells)
    return np.cumsum(edge.reshape(nprocs, width + 1), axis=1)[:, :width] > 0


def ledger_run(name: str, scheme: str, nprocs: int, makespan: float,
               messages: MessageTable, clock: str = "lamport",
               meta: dict | None = None) -> SimRun:
    """A :class:`SimRun` carrying only a message ledger (no unit records)."""
    empty_f = np.zeros(0, dtype=np.float64)
    empty_i = np.zeros(0, dtype=np.int64)
    return SimRun(
        name=name, scheme=scheme, nprocs=nprocs, makespan=float(makespan),
        clock=clock, proc=empty_i, stage=empty_i, start=empty_f,
        finish=empty_f, work=empty_f, kind=(), reason=empty_i,
        reason_kind=empty_i, meta=dict(meta or {}), messages=messages,
    )


class MessageLedger:
    """Lamport-clock message ledger for the mpsim executors.

    Each rank keeps a logical clock: a send ticks the sender's clock and
    stamps the message; a delivery advances the receiver's clock to
    ``max(local, send) + 1``.  The resulting ledger orders every message
    causally — a second clock domain ("lamport") distinct from both the
    wall clock and the machine model's α/β time.  Not locked: the
    stepper's one thread stamps every message."""

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        self.clock = [0] * nprocs
        # [src, dst, nbytes, cause, send, recv]; recv is NaN until delivered.
        self._msgs: list[list] = []

    def on_send(self, src: int, dst: int, nbytes: int, cause: int = -1) -> int:
        """Record a send; returns the message id to pass to ``on_recv``."""
        self.clock[src] += 1
        mid = len(self._msgs)
        self._msgs.append([src, dst, nbytes, cause, self.clock[src], math.nan])
        return mid

    def on_recv(self, mid: int) -> None:
        """Record delivery of message ``mid`` at the destination rank."""
        m = self._msgs[mid]
        t = max(self.clock[m[1]], m[4]) + 1
        self.clock[m[1]] = t
        m[5] = t

    @property
    def messages(self) -> MessageTable:
        return MessageTable(*zip(*self._msgs))

    def undelivered(self) -> int:
        """Messages sent but never received (dropped or still in flight)."""
        return sum(math.isnan(m[5]) for m in self._msgs)

    def to_sim_run(self, name: str, scheme: str = "mpsim") -> SimRun:
        makespan = float(max(self.clock, default=0))
        return ledger_run(name, scheme, self.nprocs, makespan,
                          self.messages, clock="lamport")


def record_sim_run(run: SimRun) -> None:
    """Append ``run`` to the active recorder (no-op when tracing is off)."""
    if not obs_trace.is_enabled():
        return
    obs_trace.get_recorder().add_sim_run(run)
