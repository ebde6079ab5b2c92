"""The six workloads of the end-to-end benchmark.

Each workload is an object with

* ``setup(seed, tmp, tr)``   — build the inputs from the seed and whatever
  the timed pass takes as given (all of it lands in ``setup_s``);
* ``before_pass()`` / ``after_pass()`` — untimed work around a pass;
* ``run_pass(tr)``           — one pass; returns ``(outputs, failed)``:
  the pass's exact outputs and how many of its ``ops_per_pass``
  operations failed a correctness check;
* ``extras(tr)``             — traced calls off the timed path.

With tracing off a pass calls what a user calls (``prepare``,
``block_mapping``, ``sweep`` ...).  With tracing on, the mapping
workloads do the same pass step by step through each layer's public
function, one span per call — ``repro.obs`` is never enabled.

Why these inputs: see README.md next to this file.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.analysis.explain import ExplainResult, explain_manifest, render_explain
from repro.core import (
    adaptive_schedule,
    analyze_dependencies,
    block_mapping,
    block_mappings,
    partition_factor,
    partition_prepared,
    prepare,
    schedule_blocks,
    wrap_assignment,
    wrap_mapping,
    wrap_mappings,
)
from repro.machine import (
    MachineModel,
    batched_metrics,
    build_read_index,
    data_traffic,
    load_balance,
    processor_work,
    simulate_assignment,
    unit_work,
)
from repro.mpsim import (
    distributed_block_cholesky,
    distributed_cholesky,
    distributed_cholesky_fanin,
)
from repro.numeric import sparse_cholesky
from repro.ordering import order
from repro.perf import PartitionCache, PrepareCache, sweep
from repro.perf.cache import cache_stats
from repro.sparse import PAPER_MATRICES, grid9, hex_mesh, load, social_graph, spd_from_graph
from repro.symbolic import enumerate_updates, symbolic_cholesky

GRAIN = 25
MIN_WIDTH = 4
CELL_PROCS = 16
GROUP_PROCS = (16, 64, 256, 1024)
SWEEP_GRID = dict(
    schemes=("block", "wrap"), procs=(4, 16, 32, 64, 256, 1024), grains=(4, 25)
)

# Sizes: "full" is what BENCHMARK.json's numbers are measured at (a pass
# of 0.5-1.2 s on a 2-core sandbox); "smoke" only proves the harness.
SIZES = {
    "full": {
        "mesh2d": {"side": 40},
        "network": {"n": 20000},
        "sweep": {"matrices": tuple(PAPER_MATRICES), **SWEEP_GRID},
        "simulate": {"length": 180, "nprocs": 64},
        "execute": {"matrix": "LAP30"},
    },
    "smoke": {
        "mesh2d": {"side": 8},
        "network": {"n": 300},
        "sweep": {
            "matrices": ("LAP30",),
            "schemes": ("block", "wrap"),
            "procs": (4, 16),
            "grains": (25,),
        },
        "simulate": {"length": 6, "nprocs": 4},
        "execute": {"grid": 8},
    },
}


def _cell(scheme: str, nprocs: int, traffic, balance) -> list:
    return [
        scheme,
        int(nprocs),
        int(traffic.total),
        int(traffic.max),
        int(balance.max),
        int(balance.total),
        float(balance.imbalance),
    ]


class Workload:
    one_cpu = False  # pin the child to a single CPU before set-up

    def __init__(self, name: str, size: dict):
        self.name = name
        self.size = size

    def before_pass(self) -> None:
        pass

    def after_pass(self) -> None:
        pass

    def extras(self, tr) -> None:
        pass


# ----------------------------------------------------------------------
# mesh2d / network: the mapping pipeline, per cell and batched
# ----------------------------------------------------------------------
class Mapping(Workload):
    """prepare -> updates; cell phase (block + wrap at P=16 through
    ``machine.traffic``); group phase (partition once, four processor
    counts per scheme through ``machine.batched``)."""

    ops_per_pass = 2 + 2 * len(GROUP_PROCS)

    def setup(self, seed: int, tmp: Path, tr) -> None:
        with tr.span("sparse.generate"):
            if self.name == "mesh2d":
                # Fixed structure: relabelling a grid changes MMD's
                # tie-breaking and with it the fill (and so time and
                # memory) by 5-8% from seed to seed, more than the
                # regression bounds.  See README "Seeds".
                self.graph = grid9(self.size["side"], self.size["side"])
            else:
                self.graph = social_graph(
                    self.size["n"], chords_per_node=0.8, max_len=64, seed=seed
                )

    def run_pass(self, tr):
        pattern, updates, partition, deps, cells = (
            self._stepwise(tr) if tr.on else self._as_called()
        )
        cell_phase, group_phase = cells[:2], cells[2:]
        at_cell_procs = [c for c in group_phase if c[1] == CELL_PROCS]
        # Cell-phase and group-phase figures at P=16 must agree exactly.
        failed = sum(1 for a, b in zip(cell_phase, at_cell_procs) if a != b)
        outputs = {
            "n": int(self.graph.n),
            "factor_nnz": int(pattern.nnz),
            "pair_updates": int(len(updates.target)),
            "units": int(partition.num_units),
            "dep_edges": int(len(deps.edges)),
            "cells": cells,
        }
        tr.count("symbolic.fill.factor_nnz", outputs["factor_nnz"])
        tr.count("symbolic.updates.pair_updates", outputs["pair_updates"])
        tr.count("core.partitioner.units", outputs["units"])
        tr.count("core.dependencies.edges", outputs["dep_edges"])
        tr.count("machine.traffic.elements", sum(c[2] for c in cell_phase))
        tr.count("machine.batched.cells", len(group_phase))
        return outputs, failed

    def _as_called(self):
        prep = prepare(self.graph, name=self.name)
        prep.updates
        block = block_mapping(prep, CELL_PROCS, grain=GRAIN)
        wrap = wrap_mapping(prep, CELL_PROCS)
        part = partition_prepared(prep, grain=GRAIN)
        results = [block, wrap]
        results += block_mappings(part, GROUP_PROCS)
        results += wrap_mappings(prep, GROUP_PROCS)
        cells = [_cell(r.scheme, r.nprocs, r.traffic, r.balance) for r in results]
        return prep.pattern, prep.updates, part.partition, part.dependencies, cells

    def _stepwise(self, tr):
        g = self.graph
        with tr.span("ordering.order"):
            perm = order(g, "mmd")
        with tr.span("symbolic.fill"):
            symbolic = symbolic_cholesky(g, perm)
        pattern = symbolic.pattern
        with tr.span("symbolic.updates"):
            updates = enumerate_updates(pattern)

        def partition_stage():
            with tr.span("core.partitioner"):
                partition = partition_factor(pattern, grain=GRAIN, min_width=MIN_WIDTH)
            with tr.span("core.dependencies"):
                deps = analyze_dependencies(partition, updates)
            with tr.span("machine.work"):
                work = unit_work(partition, updates)
            return partition, deps, work

        def schedule(partition, deps, work, nprocs):
            with tr.span("core.scheduler"):
                return schedule_blocks(partition, deps, nprocs, unit_work=work)

        def wrap(nprocs):
            with tr.span("core.wrap"):
                return wrap_assignment(pattern, nprocs)

        def measure_cell(assignment):
            with tr.span("machine.traffic"):
                traffic = data_traffic(assignment, updates)
            with tr.span("machine.work"):
                balance = load_balance(processor_work(assignment, updates))
            return _cell(assignment.scheme, assignment.nprocs, traffic, balance)

        def measure_group(assignments, read_index):
            with tr.span("machine.batched.metrics"):
                measured = batched_metrics(updates, assignments, read_index=read_index)
            return [
                _cell(a.scheme, a.nprocs, traffic, balance)
                for a, (traffic, balance) in zip(assignments, measured)
            ]

        # cell phase: what block_mapping / wrap_mapping do
        partition, deps, work = partition_stage()
        cells = [measure_cell(schedule(partition, deps, work, CELL_PROCS))]
        cells.append(measure_cell(wrap(CELL_PROCS)))
        # group phase: what partition_prepared / block_mappings /
        # wrap_mappings do
        partition, deps, work = partition_stage()
        blocks = [schedule(partition, deps, work, p) for p in GROUP_PROCS]
        with tr.span("machine.batched.read_index"):
            read_index = build_read_index(updates)
        tr.count("machine.batched.reads", int(read_index.num_reads))
        cells += measure_group(blocks, read_index)
        cells += measure_group([wrap(p) for p in GROUP_PROCS], read_index)
        return pattern, updates, partition, deps, cells


# ----------------------------------------------------------------------
# sweep_cold / sweep_warm: the table command, cache write and read path
# ----------------------------------------------------------------------
class Sweep(Workload):
    def __init__(self, name: str, size: dict):
        super().__init__(name, size)
        self.warm = name == "sweep_warm"
        self.matrices = size["matrices"]
        self.grid = {k: size[k] for k in ("schemes", "procs", "grains")}
        self.ops_per_pass = len(self.matrices) * (
            len(self.grid["procs"]) * (1 + len(self.grid["grains"]))
        )

    def _sweep(self, matrices, cache_dir, jobs: int = 1):
        return sweep(matrices, jobs=jobs, cache_dir=cache_dir, **self.grid)

    def setup(self, seed: int, tmp: Path, tr) -> None:
        # The five paper matrices in Table 1 order, whatever the seed: the
        # heap's high-water mark depends on the order they are mapped in,
        # and a seeded shuffle moved peak_rss_mb by 4% between seeds.
        self.root = tmp
        self.cache_dir = None
        self.expected = None
        if self.warm:
            self.cache_dir = Path(tempfile.mkdtemp(prefix="warm-", dir=tmp))
            # The prefill is a cold sweep; warm passes must reproduce it.
            self.expected = self._records(self._sweep(self.matrices, self.cache_dir))

    def before_pass(self) -> None:
        if not self.warm:
            self.cache_dir = Path(tempfile.mkdtemp(prefix="cold-", dir=self.root))

    def after_pass(self) -> None:
        if not self.warm:
            shutil.rmtree(self.cache_dir, ignore_errors=True)

    @staticmethod
    def _records(records) -> list:
        # The cold and the warm workload print the same fingerprint.
        return sorted(
            [
                r.matrix,
                r.scheme,
                int(r.nprocs),
                r.grain,
                int(r.traffic_total),
                int(r.work_max),
                float(r.imbalance),
                r.units,
            ]
            for r in records
        )

    def _cache_counters(self) -> dict:
        return cache_stats(self.cache_dir)["counters"]

    def run_pass(self, tr):
        before = self._cache_counters() if tr.on else {}
        with tr.span("perf.sweep"):
            records = self._sweep(self.matrices, self.cache_dir)
        rows = self._records(records)
        failed = 0
        if self.expected is not None:
            failed = sum(1 for a, b in zip(rows, self.expected) if a != b)
            failed += abs(len(rows) - len(self.expected))
        tr.count("perf.sweep.cells", len(rows))
        if tr.on:
            # stats.json counts over the directory's life: take this pass's share.
            after = self._cache_counters()
            for metric, kind in (("perf.cache.hits", "hit"), ("perf.cache.misses", "miss")):
                tr.count(
                    metric,
                    sum(
                        after.get(f"{layer}.{kind}", 0) - before.get(f"{layer}.{kind}", 0)
                        for layer in ("prepare", "partition")
                    ),
                )
        return {"records": rows}, failed

    def extras(self, tr) -> None:
        """Cache store/load per matrix, one adaptive schedule and one
        two-job sweep: none of them on the timed path."""
        scratch = Path(tempfile.mkdtemp(prefix="extras-", dir=self.root))
        prepare_bytes = partition_bytes = 0
        for name in self.matrices:
            graph = load(name)
            prepared = prepare(graph, name=name)
            partitioned = partition_prepared(prepared, grain=GRAIN)
            pcache, qcache = PrepareCache(scratch), PartitionCache(scratch)
            with tr.span("perf.cache.prepare.store"):
                path = pcache.store(graph, "mmd", prepared)
            prepare_bytes += path.stat().st_size
            with tr.span("perf.cache.prepare.load"):
                hit = pcache.load(graph, "mmd", name)
            assert hit is not None
            with tr.span("perf.cache.partition.store"):
                path = qcache.store(prepared, partitioned, "mmd")
            partition_bytes += path.stat().st_size
            with tr.span("perf.cache.partition.load"):
                hit = qcache.load(prepared, GRAIN, MIN_WIDTH, "mmd")
            assert hit is not None
        tr.count("perf.cache.prepare.bytes", prepare_bytes)
        tr.count("perf.cache.partition.bytes", partition_bytes)
        prepared = prepare(load("LAP30"), name="LAP30")
        updates = prepared.updates
        with tr.span("core.adaptive"):
            adaptive_schedule(prepared.pattern, updates, 16, grain=4)
        jobs2_dir = Path(tempfile.mkdtemp(prefix="jobs2-", dir=self.root))
        with tr.span("perf.sweep.jobs2"):
            self._sweep(self.matrices, jobs2_dir, jobs=2)
        shutil.rmtree(jobs2_dir, ignore_errors=True)
        shutil.rmtree(scratch, ignore_errors=True)


# ----------------------------------------------------------------------
# simulate: host time of the simulated machine and its analyses
# ----------------------------------------------------------------------
class Simulate(Workload):
    ops_per_pass = 4  # per scheme: one ledger run, one timeline-only run

    def setup(self, seed: int, tmp: Path, tr) -> None:
        rng = np.random.default_rng(seed)
        with tr.span("sparse.generate"):
            graph = hex_mesh(self.size["length"], 4, 4)
            # Fixed structure (see Mapping.setup); the seed draws the
            # machine's message latency and per-element cost instead,
            # which reorders events without changing how many there are.
            self.model = MachineModel(
                alpha=float(rng.integers(5, 21)), beta=float(rng.integers(1, 4))
            )
        nprocs = self.size["nprocs"]
        self.prep = prepare(graph, name=self.name)
        self.mappings = [
            block_mapping(self.prep, nprocs, grain=GRAIN),
            wrap_mapping(self.prep, nprocs),
        ]

    def run_pass(self, tr):
        updates = self.prep.updates
        failed = 0
        schemes = []
        units = messages = 0
        for res in self.mappings:
            args = dict(model=self.model, deps=res.dependencies, name=self.name)
            with tr.span("machine.simulate"):
                timeline, run = simulate_assignment(
                    res.assignment, updates, with_messages=True, **args
                )
            with tr.span("obs.simtime.analyses"):
                path = run.critical_path()
                times = run.proc_times()
                run.imbalance()
                comm = run.comm_matrix()
            with tr.span("obs.simtime.manifest"):
                run.to_manifest()
            with tr.span("analysis.explain.render"):
                result = ExplainResult(
                    matrix=self.name,
                    scheme=res.scheme,
                    nprocs=res.nprocs,
                    timeline=timeline,
                    run=run,
                    traffic_total=res.traffic.total,
                    traffic_max=res.traffic.max,
                    work_imbalance=float(res.balance.imbalance),
                )
                explain_manifest(result)
                render_explain(result)
            # timeline_only_s is the part of machine.simulate.busy_s spent
            # without the ledger (what the gantt and figure targets pay).
            with tr.span("machine.simulate"), tr.span("machine.simulate.timeline_only"):
                bare, _ = simulate_assignment(
                    res.assignment, updates, with_messages=False, **args
                )
            ledger_ok = (
                run.total_message_bytes() == res.traffic.total == int(comm.sum())
                and path.length == run.makespan
                and bool(np.all(times.busy + times.wait + times.idle == run.makespan))
            )
            failed += (not ledger_ok) + (bare.makespan != timeline.makespan)
            units += 2 * run.n_units
            messages += len(run.messages)
            schemes.append(
                {
                    "scheme": res.scheme,
                    "units": int(run.n_units),
                    "messages": len(run.messages),
                    "message_bytes": run.total_message_bytes(),
                    "makespan": float(run.makespan),
                    "critical_path_units": int(len(path.units)),
                }
            )
        tr.count("machine.simulate.units", units)
        tr.count("machine.simulate.messages", messages)
        tr.count("machine.simulate.makespan", schemes[0]["makespan"])
        tr.count("obs.simtime.critical_path_len", schemes[0]["critical_path_units"])
        return {"schemes": schemes}, failed


# ----------------------------------------------------------------------
# execute: numeric factorization on mpsim threads
# ----------------------------------------------------------------------
class Execute(Workload):
    ops_per_pass = 3
    nprocs = 2
    # mpsim ranks are threads that hand the interpreter lock to each other
    # at every message.  Spread over two CPUs a pass takes 1.4-1.9 s and
    # now and then 0.8 s, whichever way the kernel places the threads; on
    # one CPU it takes 0.75 s +-3%.  The steady mode is the one measured.
    one_cpu = True

    def setup(self, seed: int, tmp: Path, tr) -> None:
        with tr.span("sparse.generate"):
            if "matrix" in self.size:
                graph = load(self.size["matrix"])
            else:
                graph = grid9(self.size["grid"], self.size["grid"])
            values = spd_from_graph(graph, seed)
        self.prep = prepare(graph, name=self.name)
        self.a = values.permute(self.prep.perm)
        self.reference = sparse_cholesky(self.a, self.prep.symbolic)
        self.proc_of_col = np.arange(self.a.n) % self.nprocs
        self.block = block_mapping(self.prep, self.nprocs, grain=GRAIN)

    def extras(self, tr) -> None:
        with tr.span("numeric.cholesky"):
            again = sparse_cholesky(self.a, self.prep.symbolic)
        tr.count(
            "numeric.cholesky.max_abs_err",
            float(np.max(np.abs(again.values - self.reference.values))),
        )

    def run_pass(self, tr):
        pattern = self.prep.pattern
        block = self.block
        executors = {
            "mpsim.fanout": lambda: distributed_cholesky(
                self.a, pattern, self.proc_of_col, self.nprocs
            ),
            "mpsim.fanin": lambda: distributed_cholesky_fanin(
                self.a, pattern, self.proc_of_col, self.nprocs
            ),
            "mpsim.block": lambda: distributed_block_cholesky(
                self.a,
                block.partition,
                block.assignment,
                self.prep.updates,
                block.dependencies,
            ),
        }
        failed = 0
        outputs = {}
        for layer, run in executors.items():
            with tr.span(layer):
                factor, stats = run()
            failed += not np.allclose(
                factor.values, self.reference.values, rtol=0.0, atol=1e-10
            )
            messages = sum(s.messages_sent for s in stats)
            nbytes = sum(s.bytes_sent for s in stats)
            tr.count(f"{layer}.messages", messages)
            tr.count(f"{layer}.bytes", nbytes)
            outputs[layer] = {"messages": int(messages), "bytes": int(nbytes)}
        return outputs, failed


WORKLOADS = {
    "mesh2d": (Mapping, "mesh2d"),
    "network": (Mapping, "network"),
    "sweep_cold": (Sweep, "sweep"),
    "sweep_warm": (Sweep, "sweep"),
    "simulate": (Simulate, "simulate"),
    "execute": (Execute, "execute"),
}


def make(name: str, profile: str):
    cls, size_key = WORKLOADS[name]
    return cls(name, SIZES[profile][size_key])
