"""SPMD launcher."""

import sys
import threading
import time

import pytest

from repro.mpsim import CommWorld, MPSimError, run_parallel


class TestRunParallel:
    def test_results_in_rank_order(self):
        assert run_parallel(lambda c: c.rank * 10, 4) == [0, 10, 20, 30]

    def test_args_forwarded(self):
        def fn(comm, a, b=0):
            return a + b + comm.rank

        assert run_parallel(fn, 2, 5, b=1) == [6, 7]

    def test_exception_propagates_with_rank(self):
        def fn(comm):
            if comm.rank == 1:
                raise RuntimeError("boom")
            return comm.rank

        with pytest.raises(MPSimError, match="rank 1"):
            run_parallel(fn, 3)

    def test_nprocs_validated(self):
        with pytest.raises(ValueError):
            run_parallel(lambda c: None, 0)

    def test_single_rank(self):
        assert run_parallel(lambda c: c.size, 1) == [1]


class TestAbort:
    """A failing rank fails the run at once, under its own name."""

    @pytest.mark.parametrize("wait", ["recv", "probe", "barrier", "irecv"])
    def test_waiters_wake_and_the_root_cause_is_reported(self, wait):
        def fn(comm):
            if comm.rank == 2:
                raise RuntimeError("boom")
            if wait == "recv":
                comm.recv(2, tag=1)
            elif wait == "probe":
                comm.probe(2, tag=1)
            elif wait == "irecv":
                comm.irecv(2, tag=1).wait()
            else:
                comm.barrier()

        start = time.perf_counter()
        with pytest.raises(MPSimError, match="rank 2 failed.*boom") as err:
            run_parallel(fn, 3, timeout=30.0)
        assert time.perf_counter() - start < 1.0
        assert isinstance(err.value.__cause__, RuntimeError)

    def test_a_receive_entered_after_the_abort_does_not_wait(self):
        def fn(comm):
            if comm.rank == 0:
                raise RuntimeError("boom")
            time.sleep(0.05)  # rank 0 is long dead
            comm.recv(0)

        start = time.perf_counter()
        with pytest.raises(MPSimError, match="rank 0 failed.*boom"):
            run_parallel(fn, 2, timeout=30.0)
        assert time.perf_counter() - start < 1.0

    def test_queued_messages_are_still_delivered_after_an_abort(self):
        """The abort only ends waiting: what was sent before it is read."""
        world = CommWorld(2, default_timeout=30.0)
        world.comm(0).send("x", 1)
        world.abort()
        assert world.comm(1).recv(0) == "x"
        with pytest.raises(MPSimError, match="aborted"):
            world.comm(1).recv(0)

    def test_abort_under_contention(self):
        """More ranks than cores, a short switch interval, and a rank
        that dies mid-exchange at a different point each trial: the run
        always ends at once with the root cause and no thread left."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(24):
                def fn(comm, trial=trial):
                    for step in range(40):
                        if comm.rank == trial % comm.size and step == trial:
                            raise RuntimeError("boom")
                        comm.send(step, (comm.rank + 1) % comm.size, tag=step)
                        comm.recv((comm.rank - 1) % comm.size, tag=step)

                start = time.perf_counter()
                with pytest.raises(MPSimError, match=f"rank {trial % 8} failed.*boom"):
                    run_parallel(fn, 8, timeout=30.0)
                assert time.perf_counter() - start < 5.0
                assert not [
                    t for t in threading.enumerate() if t.name.startswith("mpsim-rank")
                ]
        finally:
            sys.setswitchinterval(interval)
