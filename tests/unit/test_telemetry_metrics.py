"""Unit tests for the service metrics registry
(:mod:`repro.instrument.telemetry.metrics`)."""

from __future__ import annotations

import pytest

from repro.instrument.telemetry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
)


class TestCounterAndGauge:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total", "help text")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_labeled_series_are_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("responses_total", "", ("status",))
        c.labels(status="ok").inc(2)
        c.labels(status="error").inc()
        assert c.labels(status="ok").value == 2
        assert c.labels(status="error").value == 1

    def test_label_names_validated(self):
        reg = MetricsRegistry()
        c = reg.counter("x_total", "", ("status",))
        with pytest.raises(ValueError):
            c.labels(wrong="ok")
        with pytest.raises(ValueError):
            c.inc()  # labeled metric requires .labels(...)

    def test_gauge_up_and_down(self):
        reg = MetricsRegistry()
        g = reg.gauge("queue_depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value == 4

    def test_reregistration_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a_total")
        with pytest.raises(ValueError):
            reg.gauge("a_total")
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1.0, 3.0))
        reg.counter("lbl", "", ("x",))
        with pytest.raises(ValueError):
            reg.counter("lbl", "", ("y",))


class TestHistogram:
    def test_bucket_boundaries_are_upper_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(0.1, 1.0, 10.0))
        cell = h.labels()
        for v in (0.1, 0.05):  # both land in (0, 0.1]
            cell.observe(v)
        cell.observe(0.5)  # (0.1, 1.0]
        cell.observe(100.0)  # overflow
        assert cell.counts == [2, 1, 0, 1]
        assert cell.total == 4

    def test_quantiles_within_one_bucket_of_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=DEFAULT_LATENCY_BUCKETS)
        cell = h.labels()
        values = [0.001, 0.002, 0.004, 0.02, 0.2, 2.0]
        for v in values:
            cell.observe(v)
        for q in (0.5, 0.95, 0.99):
            lo, hi = cell.quantile_bounds(q)
            exact = sorted(values)[
                max(0, int(-(-q * len(values) // 1)) - 1)
            ]
            assert lo < exact <= hi

    def test_quantile_of_empty_histogram_is_zero(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        assert h.quantile(0.99) == 0.0

    def test_overflow_reports_last_finite_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 2.0))
        h.observe(50.0)
        assert h.quantile(0.5) == 2.0


class TestSnapshotAndMerge:
    def _registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("reqs_total", "r", ("status",)).labels(
            status="ok"
        ).inc(3)
        reg.gauge("depth").set(7)
        h = reg.histogram("lat", "l", ("outcome",), buckets=(0.1, 1.0))
        h.labels(outcome="ok").observe(0.05)
        h.labels(outcome="ok").observe(0.5)
        return reg

    def test_snapshot_roundtrips_through_merge(self):
        snap = self._registry().snapshot()
        merged = MetricsRegistry()
        merged.merge(snap)
        merged.merge(snap)
        out = merged.snapshot()
        ok_row = out["reqs_total"]["series"][0]
        assert ok_row["value"] == 6
        lat_row = out["lat"]["series"][0]
        assert lat_row["count"] == 4
        assert lat_row["buckets"] == [2, 2, 0]
        # gauges take the max, not the sum
        assert out["depth"]["series"][0]["value"] == 7

    def test_merge_rejects_different_bucket_layout(self):
        reg = MetricsRegistry()
        reg.histogram("lat", "l", ("outcome",), buckets=(0.5,)).labels(
            outcome="ok"
        ).observe(0.1)
        with pytest.raises(ValueError):
            reg.merge(self._registry().snapshot())

    def test_snapshot_has_precomputed_percentiles(self):
        snap = self._registry().snapshot()
        row = snap["lat"]["series"][0]
        assert {"p50", "p95", "p99"} <= set(row)

    def test_snapshot_is_json_safe_and_sorted(self):
        import json

        snap = self._registry().snapshot()
        assert list(snap) == sorted(snap)
        json.dumps(snap)


class TestLabelFreeFastPath:
    def test_label_free_incs_never_build_a_label_key(self, monkeypatch):
        """A statistic and the service's ``service_requests_total`` are
        label-free counters: 1,000 ``inc`` calls on each validate no
        label set."""
        from types import SimpleNamespace

        from repro.instrument import get_statistic
        from repro.instrument.telemetry import metrics
        from repro.service.service import CompileService

        service = SimpleNamespace(metrics=MetricsRegistry())
        CompileService._init_instruments(service)
        requests = service.metrics.get("service_requests_total")
        statistic = get_statistic("test-owner", "fast-path")
        calls = []
        real = metrics._label_key
        monkeypatch.setattr(
            metrics,
            "_label_key",
            lambda *args: calls.append(args) or real(*args),
        )
        for counter in (statistic, requests):
            for _ in range(1000):
                counter.inc()
            assert calls == [], counter.name
        assert requests.value == 1000

    def test_flat_values_delta_and_merge(self):
        reg = MetricsRegistry()
        plain = reg.counter("plain_total")
        reg.counter("labelled_total", "", ("x",)).labels(x="a").inc()
        reg.gauge("depth").set(3)
        before = reg.counter_values()
        assert before == {"plain_total": 0}
        plain.inc(2)
        assert reg.delta_since(before) == {"plain_total": 2}
        reg.merge({"plain_total": 5, "new.stat": 1})
        assert reg.counter_values() == {"plain_total": 7, "new.stat": 1}

    def test_untouched_label_free_counter_has_no_series(self):
        reg = MetricsRegistry()
        reg.counter("idle_total", "never counted")
        assert reg.snapshot()["idle_total"]["series"] == []
        assert reg.render_prometheus().splitlines() == [
            "# HELP idle_total never counted",
            "# TYPE idle_total counter",
        ]


class TestPrometheusRendering:
    def test_text_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("reqs_total", "requests", ("status",)).labels(
            status="ok"
        ).inc(2)
        h = reg.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(9.0)
        text = reg.render_prometheus()
        assert "# TYPE reqs_total counter" in text
        assert 'reqs_total{status="ok"} 2' in text
        assert "# TYPE lat_seconds histogram" in text
        # cumulative buckets, le-labelled, +Inf equals the count
        assert 'lat_seconds_bucket{le="0.1"} 1' in text
        assert 'lat_seconds_bucket{le="1"} 2' in text
        assert 'lat_seconds_bucket{le="+Inf"} 3' in text
        assert "lat_seconds_count 3" in text
        assert text.endswith("\n")
