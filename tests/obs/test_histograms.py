"""Histogram bucket/percentile edge cases (satellite: exporter + boundary
tests for the latency/burst histograms)."""

import pytest

from repro import metrics
from repro.metrics import Histogram, LATENCY_BOUNDS


class TestBuckets:
    def test_boundary_value_lands_in_its_bucket(self):
        # Upper-inclusive (Prometheus ``le``): a value exactly on a bound
        # belongs to that bound's bucket.
        h = Histogram("h", (1.0, 2.0, 5.0))
        h.observe(2.0)
        assert h.counts == [0, 1, 0, 0]

    def test_value_above_last_bound_overflows(self):
        h = Histogram("h", (1.0, 2.0))
        h.observe(99.0)
        assert h.counts == [0, 0, 1]
        assert h.summary()["buckets"][-1] == {"le": None, "count": 1}

    def test_zero_lands_in_first_bucket(self):
        h = Histogram("h", (1.0, 2.0))
        h.observe(0.0)
        assert h.counts == [1, 0, 0]

    def test_bounds_must_be_sorted_and_nonempty(self):
        with pytest.raises(ValueError):
            Histogram("bad", ())
        with pytest.raises(ValueError):
            Histogram("bad", (2.0, 1.0))


class TestPercentiles:
    def test_empty_histogram(self):
        h = Histogram("h", (1.0,))
        assert h.percentile(0.5) == 0.0
        s = h.summary()
        assert s["count"] == 0 and s["min"] is None and s["max"] is None
        assert s["mean"] == 0.0

    def test_single_observation_is_every_percentile(self):
        # Clamping to the observed range: bucket interpolation must not
        # report a quantile the process never exhibited.
        h = Histogram("h", LATENCY_BOUNDS)
        h.observe(0.157)
        for f in (0.5, 0.9, 0.99):
            assert h.percentile(f) == pytest.approx(0.157)

    def test_overflow_percentile_reports_observed_max(self):
        h = Histogram("h", (1.0, 2.0))
        for v in (0.5, 1.5, 123.0):
            h.observe(v)
        assert h.percentile(0.99) == 123.0

    def test_monotone_and_within_range(self):
        h = Histogram("h", (1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000))
        for v in (1, 3, 3, 7, 40, 40, 41, 800):
            h.observe(v)
        p50, p90, p99 = (h.percentile(f) for f in (0.5, 0.9, 0.99))
        assert p50 <= p90 <= p99
        assert h.min <= p50 and p99 <= h.max

    def test_interpolation_inside_bucket(self):
        h = Histogram("h", (10.0, 20.0))
        # Four values in (10, 20]: p50 interpolates inside that bucket.
        for v in (12.0, 14.0, 16.0, 18.0):
            h.observe(v)
        assert 12.0 <= h.percentile(0.5) <= 18.0

    def test_copy_is_independent(self):
        h = Histogram("h", (1.0,))
        h.observe(0.5)
        clone = h.copy()
        h.observe(0.7)
        assert clone.total == 1 and h.total == 2


class TestClamped:
    def test_overflow_samples_increment_clamped(self):
        # Beyond the last bound, percentile interpolation collapses onto
        # the observed max; ``clamped`` counts how many samples live out
        # there so tail percentiles can be flagged as estimates.
        h = Histogram("h", (1.0, 2.0))
        for v in (0.5, 1.5, 3.0, 9.0):
            h.observe(v)
        assert h.clamped == 2
        assert h.summary()["clamped"] == 2

    def test_boundary_value_is_not_clamped(self):
        # Upper-inclusive buckets: the last bound itself still resolves.
        h = Histogram("h", (1.0, 2.0))
        h.observe(2.0)
        assert h.clamped == 0 and h.summary()["clamped"] == 0

    def test_copy_carries_clamped(self):
        h = Histogram("h", (1.0,))
        h.observe(5.0)
        clone = h.copy()
        h.observe(6.0)
        assert clone.clamped == 1 and h.clamped == 2


class TestRecorderIntegration:
    def test_observe_creates_and_reuses(self):
        rec = metrics.Recorder()
        with metrics.using(rec):
            metrics.observe("lat", 0.01)
            metrics.observe("lat", 0.02)
            hists = metrics.histograms()
        assert hists["lat"].total == 2

    def test_conflicting_bounds_rejected(self):
        rec = metrics.Recorder()
        with metrics.using(rec):
            metrics.histogram("x", (1.0, 2.0))
            with pytest.raises(ValueError):
                metrics.histogram("x", (3.0, 4.0))

    def test_reset_clears_histograms(self):
        rec = metrics.Recorder()
        with metrics.using(rec):
            metrics.observe("lat", 0.01)
            metrics.reset()
            assert metrics.histograms() == {}

    def test_export_json_includes_histograms(self):
        import json
        rec = metrics.Recorder()
        with metrics.using(rec):
            metrics.observe("lat", 0.2)
            doc = json.loads(metrics.export_json())
        assert doc["histograms"]["lat"]["count"] == 1
        assert any(b["le"] is None for b in doc["histograms"]["lat"]["buckets"])
