"""MetricsRegistry unit tests: instruments, labels, snapshots."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import NULL_METRICS, MetricsRegistry
from repro.telemetry.metrics import _render_key


class TestInstruments:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.counter("comm.bytes_on_network").inc(100)
        reg.counter("comm.bytes_on_network").inc(28)
        assert reg.counter("comm.bytes_on_network").value == 128

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("schedule.stages")
        g.set(3)
        g.set(7)
        assert g.value == 7

    def test_histogram_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("kernel.apply.seconds", k=4)
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        assert h.count == 3 and h.mean == 2.0
        summary = h.summary()
        assert {
            k: summary[k] for k in ("count", "sum", "min", "max", "mean")
        } == {"count": 3, "sum": 6.0, "min": 1.0, "max": 3.0, "mean": 2.0}
        # Quantile estimates are clamped into the observed range and
        # ordered; the top percentile lands on the max.
        assert 1.0 <= summary["p50"] <= summary["p95"] <= summary["p99"]
        assert summary["p99"] == 3.0

    def test_summary_key_order_is_deterministic(self):
        h = MetricsRegistry().histogram("h")
        h.observe(1.0)
        assert list(h.summary()) == [
            "count", "sum", "min", "max", "mean", "p50", "p95", "p99",
        ]

    def test_empty_histogram_summary(self):
        h = MetricsRegistry().histogram("h")
        summary = h.summary()
        assert summary["count"] == 0 and h.mean == 0.0
        assert summary["min"] is None and summary["max"] is None
        assert summary["p50"] == summary["p99"] == 0.0

    def test_quantiles_track_a_known_distribution(self):
        h = MetricsRegistry().histogram("h")
        for i in range(1, 101):
            h.observe(float(i))
        # Log-bucketed estimates carry ~9% relative error at base 2^0.25.
        assert h.quantile(0.5) == pytest.approx(50.0, rel=0.15)
        assert h.quantile(0.95) == pytest.approx(95.0, rel=0.15)
        assert h.quantile(0.0) == 1.0 or h.quantile(0.0) <= h.quantile(0.5)
        assert h.quantile(1.0) == 100.0

    def test_quantile_is_order_independent(self):
        a = MetricsRegistry().histogram("a")
        b = MetricsRegistry().histogram("b")
        values = [0.01, 5.0, 0.3, 2.5, 0.07, 9.0, 1.1]
        for v in values:
            a.observe(v)
        for v in reversed(values):
            b.observe(v)
        for q in (0.5, 0.95, 0.99):
            assert a.quantile(q) == b.quantile(q)

    def test_nonpositive_observations_share_underflow_bucket(self):
        h = MetricsRegistry().histogram("h")
        for v in (0.0, -1.0, 0.0, 4.0):
            h.observe(v)
        assert h.count == 4 and h.nonpositive == 3
        assert h.quantile(0.5) == -1.0  # min is the best estimate
        assert h.quantile(1.0) == 4.0

    def test_quantile_rejects_out_of_range(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestRegistry:
    def test_labels_create_distinct_instruments(self):
        reg = MetricsRegistry()
        reg.histogram("kernel.apply.seconds", k=2).observe(1.0)
        reg.histogram("kernel.apply.seconds", k=4).observe(2.0)
        assert len(reg) == 2
        assert reg.histogram("kernel.apply.seconds", k=2).count == 1

    def test_label_key_rendering_is_sorted(self):
        assert _render_key("m", {}) == "m"
        assert _render_key("m", {"b": 2, "a": 1}) == "m{a=1,b=2}"

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_snapshot_is_json_ready(self):
        reg = MetricsRegistry()
        reg.counter("comm.alltoall_steps").inc(3)
        reg.gauge("schedule.swaps").set(5)
        reg.histogram("op.seconds", kind="swap").observe(0.25)
        snap = reg.snapshot()
        assert snap["comm.alltoall_steps"] == 3
        assert snap["op.seconds{kind=swap}"]["count"] == 1
        json.dumps(snap)  # must serialize
        assert list(snap) == sorted(snap)

    def test_format_lists_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.histogram("b").observe(2.0)
        text = reg.format()
        assert "a: 1" in text
        assert "b: count=1 sum=2 mean=2" in text

    def test_disabled_registry_is_inert(self):
        assert NULL_METRICS.enabled is False
        c = NULL_METRICS.counter("anything")
        c.inc(10**9)
        NULL_METRICS.gauge("g").set(5)
        NULL_METRICS.histogram("h").observe(1.0)
        assert c.value == 0
        assert NULL_METRICS.snapshot() == {}
        assert len(NULL_METRICS) == 0
