"""obs.memory: RSS sampling, span watermarks, and the enable switches."""

import time

import pytest

from repro import obs
from repro.obs.memory import (
    MemoryMonitor,
    deep_tracing_requested,
    memory_enabled,
    monitored,
    rss_bytes,
)
from repro.obs.trace import Recorder

pytestmark = pytest.mark.skipif(
    rss_bytes() is None, reason="RSS unreadable on this platform"
)


class TestSwitches:
    def test_enabled_by_default_where_rss_readable(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_MEM", raising=False)
        assert memory_enabled()

    @pytest.mark.parametrize("value", ["0", "off", "OFF"])
    def test_env_opt_out(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TRACE_MEM", value)
        assert not memory_enabled()

    def test_deep_mode_requested_only_by_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_MEM", raising=False)
        assert not deep_tracing_requested()
        monkeypatch.setenv("REPRO_TRACE_MEM", "deep")
        assert deep_tracing_requested()
        assert memory_enabled()  # deep is still enabled


class TestMonitor:
    def test_samples_land_on_recorder_timeline(self):
        rec = Recorder()
        monitor = MemoryMonitor(rec, interval=0.002)
        monitor.start()
        time.sleep(0.03)
        monitor.stop()
        assert len(rec.memory_samples) >= 2
        for t, rss in rec.memory_samples:
            assert t >= 0.0 and rss > 0
        assert rec.gauges["mem.rss_peak_mb"] > 0

    def test_stop_detaches_and_is_idempotent(self):
        rec = Recorder()
        monitor = MemoryMonitor(rec, interval=0.002).start()
        assert rec.memory is monitor
        monitor.stop()
        assert rec.memory is None
        monitor.stop()  # second stop must not raise

    def test_span_watermarks(self):
        rec = Recorder()
        with obs.enabled(rec), monitored(rec, interval=0.002):
            with obs.span("pipeline.symbolic"):
                blob = bytearray(8 * 1024 * 1024)  # force RSS movement
                time.sleep(0.01)
                del blob
        (span,) = rec.spans_named("pipeline.symbolic")
        assert span.args["mem_peak_mb"] > 0
        assert "mem_delta_mb" in span.args
        # Peak covers the whole window, so it can't be below the entry RSS.
        assert span.args["mem_peak_mb"] * 1024 * 1024 >= rec.memory_samples[0][1] * 0.5

    def test_short_span_still_gets_watermark(self):
        # Shorter than the sampling interval: entry/exit readings suffice.
        rec = Recorder()
        with obs.enabled(rec), monitored(rec, interval=60.0):
            with obs.span("blink"):
                pass
        (span,) = rec.spans_named("blink")
        assert span.args["mem_peak_mb"] > 0

    def test_deep_mode_attaches_alloc_delta(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_MEM", "deep")
        rec = Recorder()
        with obs.enabled(rec), monitored(rec, interval=0.01):
            with obs.span("alloc"):
                keep = [0] * 200_000
        (span,) = rec.spans_named("alloc")
        assert "mem_alloc_kb" in span.args
        assert span.args["mem_alloc_kb"] > 0
        del keep

    def test_monitored_yields_none_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_MEM", "off")
        rec = Recorder()
        with monitored(rec) as monitor:
            assert monitor is None
        assert rec.memory_samples == []

    def test_monitored_samples_nothing_while_tracing_is_off(self):
        # No recorder given and tracing off: the idle module recorder
        # must not collect samples that nothing will ever read.
        assert not obs.is_enabled()
        idle = obs.get_recorder()
        before = len(idle.memory_samples)
        for _ in range(2):
            with obs.monitored() as monitor:
                assert monitor is None
        assert len(idle.memory_samples) == before
        assert idle.memory is None

    def test_mark_since_window_peak(self):
        rec = Recorder()
        monitor = MemoryMonitor(rec, interval=60.0)
        monitor.start()
        mark = monitor.mark()
        # Inject a synthetic high-water sample inside the span window.
        spike = (rss_bytes() or 0) * 3
        rec.memory_samples.append((0.0, spike))
        args = monitor.since(mark)
        monitor.stop()
        assert args["mem_peak_mb"] == pytest.approx(spike / (1024 * 1024), rel=1e-3)
