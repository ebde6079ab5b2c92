"""The traffic kernel against an independent oracle, on generated
structures.

:func:`tests.conftest.traffic_oracle` is the paper's definition as a
membership bitmap, and :func:`tests.machine.oracles.stamp_fetches_oracle`
the per-read stamp loop; the kernel under test is the per-line pass of
the suffix lemma behind ``data_traffic``, ``batched_metrics``,
``communication_matrix`` and the simulated message ledger.  Structures
come from the seeded generator families at n <= 200, owner arrays from
every mapping family plus arrays with no unit structure at all.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Assignment,
    block_mapping,
    prepare,
    two_d_cyclic,
    wrap_assignment,
    wrap_mapping,
)
from repro.machine import (
    batched_metrics,
    communication_matrix,
    data_traffic,
    simulate_assignment,
)
from repro.machine.traffic import distinct_fetches, fetch_counts, fetch_pairs, kernel_inputs

from ..conftest import bare_owners, generated_graphs, traffic_oracle
from .oracles import stamp_fetches_oracle

CHUNKS = (1, 7, 1000, 0)


def _random_assignment(pattern, nprocs: int, seed: int) -> Assignment:
    owner = np.random.default_rng(seed).integers(0, nprocs, size=pattern.nnz)
    return Assignment("random", nprocs, pattern, owner.astype(np.int64))


@st.composite
def mapped_structures(draw):
    """(prepared matrix, assignment) with the assignment drawn from
    block, wrap, 2-D cyclic or unstructured random owners; processor
    counts include 1 and counts beyond nnz."""
    prep = prepare(draw(generated_graphs()), name="generated")
    nnz = prep.pattern.nnz
    nprocs = draw(st.sampled_from([1, 2, 3, 5, 16, 64, nnz + 3]))
    scheme = draw(st.sampled_from(["block", "wrap", "2d", "random"]))
    if scheme == "block":
        grain = draw(st.sampled_from([1, 4, 25]))
        assignment = block_mapping(prep, nprocs, grain=grain).assignment
    elif scheme == "wrap":
        assignment = wrap_assignment(prep.pattern, nprocs)
    elif scheme == "2d":
        rows = draw(st.integers(1, 4))
        assignment = two_d_cyclic(prep.pattern, rows, draw(st.integers(1, 4)))
    else:
        assignment = _random_assignment(
            prep.pattern, nprocs, draw(st.integers(0, 2**16))
        )
    return prep, assignment


class TestKernelMatchesOracle:
    @given(mapped_structures(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_data_traffic(self, mapped, include_scale):
        prep, a = mapped
        got = data_traffic(a, prep.updates, include_scale=include_scale)
        want = traffic_oracle(
            a.owner_of_element, a.nprocs, prep.updates, include_scale
        )
        assert got.per_processor.dtype == np.int64
        np.testing.assert_array_equal(got.per_processor, want)

    @given(mapped_structures(), st.booleans(), st.sampled_from(CHUNKS))
    @settings(max_examples=60, deadline=None)
    def test_every_chunk_size(self, mapped, include_scale, chunk_reads):
        prep, a = mapped
        want = traffic_oracle(
            a.owner_of_element, a.nprocs, prep.updates, include_scale
        )
        # Over the assignment's own index (the unit index for a block
        # cell) and, owners bare, over the element read list.
        for cell in (a, bare_owners(a)):
            inputs = kernel_inputs(cell, prep.updates, include_scale)
            got = fetch_counts(*inputs, chunk_reads=chunk_reads)
            np.testing.assert_array_equal(got, want)

    @given(generated_graphs(), st.integers(0, 2**16), st.sampled_from(CHUNKS))
    @settings(max_examples=30, deadline=None)
    def test_mixed_processor_counts_in_one_batch(self, graph, seed, chunk_reads):
        prep = prepare(graph, name="generated")
        nnz = prep.pattern.nnz
        cells = [
            bare_owners(wrap_assignment(prep.pattern, 1)),
            _random_assignment(prep.pattern, nnz + 1, seed),
            bare_owners(wrap_assignment(prep.pattern, 7)),
            _random_assignment(prep.pattern, 3, seed + 1),
        ]
        batch = batched_metrics(prep.updates, cells)
        for a, (traffic, _balance) in zip(cells, batch):
            want = traffic_oracle(a.owner_of_element, a.nprocs, prep.updates)
            np.testing.assert_array_equal(traffic.per_processor, want)
            got = fetch_counts(
                *kernel_inputs(a, prep.updates), chunk_reads=chunk_reads
            )
            np.testing.assert_array_equal(got, want)


class TestSuffixLemmaMatchesStampLoop:
    @given(
        generated_graphs(),
        st.sampled_from(["block", "bare-block", "wrap", "2d", "random"]),
        st.sampled_from([1, 2, 3, 16, 64]),
        st.booleans(),
        st.sampled_from(CHUNKS),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_pairs_and_counts(self, graph, scheme, nprocs, include_scale, chunk_reads, data):
        """The per-line pass gives the per-read stamp loop's pairs, as a
        set, at every chunk size, and the oracle's counts."""
        prep = prepare(graph, name="generated")
        if scheme in ("block", "bare-block"):
            grain = data.draw(st.sampled_from([1, 4, 25]))
            a = block_mapping(prep, nprocs, grain=grain).assignment
            a = bare_owners(a) if scheme == "bare-block" else a
        elif scheme == "wrap":
            a = wrap_assignment(prep.pattern, nprocs)
        elif scheme == "2d":
            a = two_d_cyclic(prep.pattern, data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4)))
        else:
            a = _random_assignment(prep.pattern, nprocs, data.draw(st.integers(0, 2**16)))
        inputs = kernel_inputs(a, prep.updates, include_scale)
        want = set(zip(*(x.tolist() for x in stamp_fetches_oracle(*inputs))))
        proc, src = fetch_pairs(*inputs)
        assert len(proc) == len(want)
        assert set(zip(proc.tolist(), src.tolist())) == want
        chunked = [
            pair for p, s in distinct_fetches(*inputs, chunk_reads=chunk_reads)
            for pair in zip(p.tolist(), s.tolist())
        ]
        assert len(chunked) == len(want) and set(chunked) == want
        np.testing.assert_array_equal(
            fetch_counts(*inputs, chunk_reads=chunk_reads),
            traffic_oracle(a.owner_of_element, a.nprocs, prep.updates, include_scale),
        )


class TestConsumersAgree:
    @given(mapped_structures(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_communication_matrix_rows_sum_to_traffic(self, mapped, include_scale):
        prep, a = mapped
        comm = communication_matrix(a, prep.updates, include_scale=include_scale)
        traffic = data_traffic(a, prep.updates, include_scale=include_scale)
        assert comm.shape == (a.nprocs, a.nprocs)
        assert not comm.diagonal().any()
        np.testing.assert_array_equal(comm.sum(axis=1), traffic.per_processor)

    @given(generated_graphs(), st.sampled_from([1, 2, 5, 16]), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_ledger_bytes_equal_traffic(self, graph, nprocs, block):
        prep = prepare(graph, name="generated")
        result = (
            block_mapping(prep, nprocs, grain=4) if block
            else wrap_mapping(prep, nprocs)
        )
        _timeline, run = simulate_assignment(
            result.assignment, prep.updates, deps=result.dependencies
        )
        assert run.total_message_bytes() == result.traffic.total
        np.testing.assert_array_equal(
            run.comm_matrix(),
            communication_matrix(result.assignment, prep.updates),
        )
