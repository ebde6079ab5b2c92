"""The recording core: spans, counters, gauges, scoped enabling."""

import threading

import pytest

from repro.obs import MessageTable, ledger_run, record_sim_run, trace


@pytest.fixture(autouse=True)
def _clean_state():
    """Every test starts and ends with tracing globally disabled."""
    assert not trace.is_enabled()
    yield
    assert not trace.is_enabled()


class TestSpans:
    def test_span_records_name_and_duration(self):
        with trace.enabled() as rec:
            with trace.span("work", matrix="LAP30"):
                pass
        (s,) = rec.spans
        assert s.name == "work"
        assert s.args == {"matrix": "LAP30"}
        assert s.end >= s.start
        assert s.error is None

    def test_spans_nest_with_depths(self):
        with trace.enabled() as rec:
            with trace.span("outer"):
                with trace.span("inner"):
                    pass
                with trace.span("inner2"):
                    pass
        by_name = {s.name: s for s in rec.spans}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        assert by_name["inner2"].depth == 1
        # Inner spans complete first and sit inside the outer interval.
        assert rec.spans[0].name == "inner"
        assert by_name["outer"].start <= by_name["inner"].start
        assert by_name["inner"].end <= by_name["outer"].end

    def test_span_survives_exception_and_reraises(self):
        with trace.enabled() as rec:
            with pytest.raises(RuntimeError):
                with trace.span("outer"):
                    with trace.span("boom"):
                        raise RuntimeError("kaput")
        by_name = {s.name: s for s in rec.spans}
        assert by_name["boom"].error == "RuntimeError"
        assert by_name["outer"].error == "RuntimeError"
        # The stack unwound fully: a following span is top-level again.
        with trace.enabled(rec):
            with trace.span("after"):
                pass
        assert {s.name: s.depth for s in rec.spans}["after"] == 0

    def test_threads_nest_independently(self):
        with trace.enabled() as rec:
            def worker():
                with trace.span("thread-span"):
                    pass

            with trace.span("main-span"):
                t = threading.Thread(target=worker)
                t.start()
                t.join()
        by_name = {s.name: s for s in rec.spans}
        # The worker's span is depth 0 in its own thread, not nested
        # under the main thread's open span.
        assert by_name["thread-span"].depth == 0
        assert by_name["thread-span"].thread != by_name["main-span"].thread


class TestDisabled:
    def test_disabled_emits_nothing(self, monkeypatch):
        rec = trace.Recorder()
        monkeypatch.setattr(trace, "_recorder", rec)
        with trace.span("work"):
            trace.counter("n", 5)
            trace.gauge("g", 1.5)
            trace.observe("h", 2.0)
            record_sim_run(ledger_run("r", "mpsim", 2, 0.0, MessageTable()))
        assert rec.is_empty()

    def test_disabled_span_is_shared_noop(self):
        assert trace.span("a") is trace.span("b")

    def test_enable_disable_roundtrip(self):
        assert not trace.is_enabled()
        with trace.enabled() as rec:
            assert trace.is_enabled()
            assert trace.get_recorder() is rec
        assert not trace.is_enabled()

    def test_enabled_context_restores_prior_state(self):
        with trace.enabled(trace.Recorder()) as outer:
            with trace.enabled() as inner:
                assert trace.get_recorder() is inner
                assert inner is not outer
            assert trace.is_enabled()
            assert trace.get_recorder() is outer
        assert not trace.is_enabled()


class TestScalars:
    def test_counters_accumulate(self):
        with trace.enabled() as rec:
            trace.counter("units")
            trace.counter("units", 4)
            trace.counter("zeros", 0)
        assert rec.counters == {"units": 5, "zeros": 0}

    def test_gauges_keep_last_value(self):
        with trace.enabled() as rec:
            trace.gauge("marker", 1)
            trace.gauge("marker", 7)
        assert rec.gauges == {"marker": 7}

    def test_timeline_events(self):
        """The simulated clock's timeline is the recorded sim runs, in
        recording order; the exporters draw their lanes from them."""
        runs = [ledger_run(name, "mpsim", 2, 0.0, MessageTable()) for name in "ab"]
        with trace.enabled() as rec:
            for run in runs:
                record_sim_run(run)
        assert rec.sim_runs == runs and not rec.is_empty()

    def test_recorder_keeps_six_stores(self):
        rec = trace.Recorder()
        stores = ("spans", "counters", "gauges", "histograms", "sim_runs",
                  "memory_samples")
        assert [name for name, value in vars(rec).items()
                if isinstance(value, (list, dict)) and not name.startswith("_")
                ] == list(stores)

    def test_counters_are_thread_safe(self):
        with trace.enabled() as rec:
            threads = [
                threading.Thread(
                    target=lambda: [trace.counter("hits") for _ in range(500)]
                )
                for _ in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        assert rec.counters["hits"] == 4000
