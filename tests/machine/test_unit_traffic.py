"""Traffic counted at the granularity ownership is defined at.

The unit read index (block schemes) and the column-prefix count (wrap,
block-cyclic) replace the element read index on the hot paths; both rest
on a structural fact, and both are pinned here against oracles that
share no code with them — ``traffic_oracle`` (a membership bitmap) and
``volume_oracle`` (a Python set of pairs), on generated structures:

* the convexity lemma: dropping own-unit reads and repeats of the
  predecessor from each source's readers in order leaves every cross-unit
  (reader unit, source element) pair exactly once, for every partition
  the partitioner or the adaptive scheduler can emit;
* the prefix formula, for *arbitrary* column owners;
* every scheduler's assignment measured over the unit index;
* a map that is not unit-convex keeps the stamp kernel.

Tier-1 runs Hypothesis' default example count, the CI kernel-identity
step ``--hypothesis-profile=full``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Assignment,
    adaptive_schedule,
    analyze_dependencies,
    block_cyclic_columns,
    partition_factor,
    prepare,
    schedule_affinity,
    schedule_blocks,
    schedule_lpt,
    two_d_cyclic,
    wrap_assignment,
)
from repro.core.dependencies import unit_dag, unit_read_index
from repro.machine import batched_metrics, build_read_index, data_traffic, unit_graph, unit_work
from repro.machine.traffic import (
    column_fetch_counts,
    fetch_counts,
    fetch_pairs,
    kernel_inputs,
)

from ..conftest import generated_graphs, traffic_oracle, volume_oracle

PROCS = (1, 2, 3, 16, 64)


@st.composite
def partitioned(draw):
    """(prepared matrix, partition) over every knob of the partitioner,
    or the adaptive scheduler's processor-count-dependent partition."""
    prep = prepare(draw(generated_graphs()), name="generated")
    grain = draw(st.sampled_from([1, 4, 25]))
    min_width = draw(st.sampled_from([1, 2, 4, 8]))
    zero_tolerance = draw(st.sampled_from([0.0, 0.2]))
    if draw(st.booleans()):
        partition, _ = adaptive_schedule(
            prep.pattern, prep.updates, draw(st.sampled_from(PROCS)),
            grain=grain, min_width=min_width, zero_tolerance=zero_tolerance,
        )
    else:
        partition = partition_factor(
            prep.pattern, grain=grain, min_width=min_width,
            zero_tolerance=zero_tolerance,
            grain_rectangle=draw(st.sampled_from([None, 1, 9])),
        )
    return prep, partition


def _sorted_pairs(reader, src) -> list:
    return sorted(zip(np.asarray(src).tolist(), np.asarray(reader).tolist()))


class TestConvexityLemma:
    @given(partitioned(), st.booleans())
    @settings(deadline=None)
    def test_adjacent_only_index_is_the_stamp_kernel_is_the_definition(
        self, drawn, include_scale
    ):
        prep, partition = drawn
        index = unit_read_index(partition, prep.updates, include_scale)
        assert index is unit_read_index(partition, prep.updates, include_scale)
        src, reader = index.reads()
        assert np.all(np.diff(src) >= 0)
        uoe, n_units = partition.unit_of_element, partition.num_units
        stamped = fetch_pairs(uoe, n_units, build_read_index(prep.updates, include_scale))
        assert _sorted_pairs(reader, src) == _sorted_pairs(*stamped)

        want = volume_oracle(uoe, prep.updates, include_scale)
        edges, volumes = unit_dag(partition, prep.updates, include_scale)
        assert edges.tolist() == sorted(map(list, want))
        assert volumes.tolist() == [want[u, v] for u, v in edges.tolist()]
        deps = analyze_dependencies(partition, prep.updates, include_scale)
        assert deps.edges is edges and deps.volumes is volumes

    @given(generated_graphs(), st.integers(1, 4), st.integers(1, 4), st.booleans())
    @settings(deadline=None)
    def test_a_map_that_is_not_unit_convex_keeps_the_stamp_path(
        self, graph, rows, cols, include_scale
    ):
        """2-D cyclic "units" meet a row in many runs: ``unit_graph``
        takes any labelling, so it must not assume adjacency."""
        prep = prepare(graph, name="generated")
        uoe = two_d_cyclic(prep.pattern, rows, cols).owner_of_element
        edges, volumes = unit_graph(uoe, prep.updates, rows * cols, include_scale)
        want = volume_oracle(uoe, prep.updates, include_scale)
        assert edges.tolist() == sorted(map(list, want))
        assert volumes.tolist() == [want[u, v] for u, v in edges.tolist()]


class TestColumnPrefix:
    @given(generated_graphs(), st.data(), st.booleans())
    @settings(deadline=None)
    def test_arbitrary_column_owners(self, graph, data, include_scale):
        prep = prepare(graph, name="generated")
        n = prep.pattern.n
        nprocs = data.draw(st.sampled_from([1, 2, 5, 16, n + 3]))
        seed = data.draw(st.integers(0, 2**16))
        proc_of_col = np.random.default_rng(seed).integers(0, nprocs, size=n)
        a = Assignment(
            "columns", nprocs, prep.pattern,
            proc_of_col[prep.pattern.element_cols()], proc_of_unit=proc_of_col,
        )
        want = traffic_oracle(a.owner_of_element, nprocs, prep.updates, include_scale)
        got = data_traffic(a, prep.updates, include_scale=include_scale)
        assert got.per_processor.dtype == np.int64
        np.testing.assert_array_equal(got.per_processor, want)
        np.testing.assert_array_equal(
            column_fetch_counts(prep.pattern, proc_of_col, nprocs), want
        )

    @given(generated_graphs(), st.sampled_from(PROCS), st.integers(1, 5))
    @settings(deadline=None)
    def test_wrap_and_block_cyclic(self, graph, nprocs, block):
        prep = prepare(graph, name="generated")
        cells = [
            wrap_assignment(prep.pattern, nprocs),
            block_cyclic_columns(prep.pattern, nprocs, block),
        ]
        for a, (traffic, _balance) in zip(cells, batched_metrics(prep.updates, cells)):
            np.testing.assert_array_equal(
                traffic.per_processor,
                traffic_oracle(a.owner_of_element, nprocs, prep.updates),
            )


class TestUnitIndexTraffic:
    @given(partitioned(), st.sampled_from(PROCS), st.booleans(), st.data())
    @settings(deadline=None)
    def test_every_scheduler(self, drawn, nprocs, include_scale, data):
        prep, partition = drawn
        updates = prep.updates
        scheduler = data.draw(st.sampled_from(["blocks", "lpt", "affinity", "adaptive"]))
        if scheduler == "adaptive":
            partition, a = adaptive_schedule(prep.pattern, updates, nprocs, grain=4)
        else:
            deps = analyze_dependencies(partition, updates)
            work = unit_work(partition, updates)
            if scheduler == "blocks":
                a = schedule_blocks(partition, deps, nprocs, unit_work=work)
            elif scheduler == "lpt":
                a = schedule_lpt(partition, nprocs, work)
            else:
                a = schedule_affinity(partition, deps, nprocs, updates, work)
        assert a.partition is partition
        want = traffic_oracle(a.owner_of_element, nprocs, updates, include_scale)
        got = data_traffic(a, updates, include_scale=include_scale)
        np.testing.assert_array_equal(got.per_processor, want)
        chunk_reads = data.draw(st.sampled_from([1, 7, 1000, 0]))
        chunked = fetch_counts(
            *kernel_inputs(a, updates, include_scale), chunk_reads=chunk_reads
        )
        np.testing.assert_array_equal(chunked, want)

    def test_a_unit_view_the_owners_do_not_follow_is_refused(self, prepared_grid):
        """The unit paths never look at ``owner_of_element`` on the
        reader side, so the constructor has to."""
        pattern, updates = prepared_grid.pattern, prepared_grid.updates
        partition = partition_factor(pattern, grain=4)
        good = schedule_blocks(partition, analyze_dependencies(partition, updates), 4)
        owner = good.owner_of_element.copy()
        owner[-1] = (owner[-1] + 1) % 4
        with pytest.raises(ValueError, match="follow proc_of_unit"):
            Assignment("block", 4, pattern, owner, good.proc_of_unit, partition)
        with pytest.raises(ValueError, match="follow proc_of_unit"):
            Assignment("block", 4, pattern, good.owner_of_element,
                       good.proc_of_unit[:-1], partition)
        wrap = wrap_assignment(pattern, 4)
        with pytest.raises(ValueError, match="follow proc_of_unit"):
            Assignment("wrap", 4, pattern, owner, proc_of_unit=wrap.proc_of_unit)
