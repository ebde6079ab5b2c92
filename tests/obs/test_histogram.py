"""obs.histogram: fixed log-bucket distributions and recorder wiring."""

import pytest

from repro import obs
from repro.obs.histogram import BASE, Histogram, bucket_bounds, bucket_index
from repro.obs.trace import Recorder


class TestBuckets:
    def test_value_lands_inside_its_bucket(self):
        for value in (0.001, 0.5, 1.0, 3.7, 1000.0, 1e9):
            lo, hi = bucket_bounds(bucket_index(value))
            assert lo <= value < hi or value == pytest.approx(lo)

    def test_bucket_width_under_twenty_percent(self):
        lo, hi = bucket_bounds(bucket_index(42.0))
        assert hi / lo == pytest.approx(BASE)
        assert (hi - lo) / lo < 0.20

    def test_bounds_are_fixed_never_data_dependent(self):
        # Two histograms fed different data must share bucket boundaries.
        assert bucket_index(7.0) == bucket_index(7.0)
        a, b = Histogram(), Histogram()
        a.observe(7.0)
        b.observe(7.0)
        assert a.buckets == b.buckets

    def test_nonpositive_goes_to_underflow(self):
        idx = bucket_index(0.0)
        assert idx == bucket_index(-5.0)
        assert bucket_bounds(idx) == (0.0, 0.0)


class TestHistogram:
    def test_exact_scalars(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == pytest.approx(16.0)
        assert h.mean == pytest.approx(4.0)
        assert h.min == 1.0 and h.max == 10.0

    def test_percentiles_within_one_bucket(self):
        h = Histogram()
        for i in range(1, 101):
            h.observe(float(i))
        # Estimates are geometric bucket midpoints clamped to [min, max];
        # one bucket is <20% wide so the estimate is within that.
        assert h.percentile(50) == pytest.approx(50.0, rel=0.20)
        assert h.percentile(90) == pytest.approx(90.0, rel=0.20)
        assert h.percentile(99) == pytest.approx(99.0, rel=0.20)
        assert h.percentile(0) == 1.0 and h.percentile(100) == 100.0

    def test_p99_separates_from_p50_under_skew(self):
        h = Histogram()
        for _ in range(99):
            h.observe(1.0)
        h.observe(1000.0)  # the straggler a mean would hide
        assert h.percentile(50) == pytest.approx(1.0, rel=0.20)
        assert h.percentile(99.5) > 100.0
        assert h.mean == pytest.approx(10.99, rel=0.01)

    def test_empty_histogram_is_safe(self):
        h = Histogram()
        assert h.mean == 0.0 and h.percentile(50) == 0.0
        assert h.summary()["count"] == 0


class TestRecorderObserve:
    def test_observe_records_named_histogram(self):
        rec = Recorder()
        with obs.enabled(rec):
            obs.observe("perf.sweep.unit_ms", 4.0)
            obs.observe("perf.sweep.unit_ms", 8.0)
        hist = rec.histograms["perf.sweep.unit_ms"]
        assert hist.count == 2 and hist.max == 8.0

    def test_observe_noop_when_disabled(self):
        obs.observe("ghost", 1.0)  # must not raise, must not record
        rec = Recorder()
        with obs.enabled(rec):
            pass
        assert rec.histograms == {}

    def test_summary_table_shows_percentiles(self):
        rec = Recorder()
        with obs.enabled(rec):
            for v in (1.0, 2.0, 50.0):
                obs.observe("perf.sweep.unit_ms", v)
        text = obs.summary_table(rec)
        assert "perf.sweep.unit_ms" in text
        assert "p99" in text or "p50" in text
