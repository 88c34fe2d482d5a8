"""Prometheus text-format exposition: escaping, ordering, edge cases."""

from __future__ import annotations

from repro.telemetry.exposition import (
    CONTENT_TYPE,
    escape_label_value,
    parse_metric_key,
    prometheus_exposition,
    prometheus_name,
    render_prometheus,
)
from repro.telemetry.metrics import MetricsRegistry


class TestKeyParsing:
    def test_bare_name(self):
        assert parse_metric_key("comm.bytes_on_network") == (
            "comm.bytes_on_network",
            {},
        )

    def test_labels_round_trip(self):
        name, labels = parse_metric_key("op.seconds{k=4,kind=swap}")
        assert name == "op.seconds"
        assert labels == {"k": "4", "kind": "swap"}

    def test_empty_label_value_survives(self):
        # locktrack renders TrackedLock names that can be empty strings.
        name, labels = parse_metric_key("lock.acquire.count{name=}")
        assert name == "lock.acquire.count"
        assert labels == {"name": ""}


class TestNameMangling:
    def test_dots_become_underscores(self):
        assert prometheus_name("service.queue.depth") == "service_queue_depth"

    def test_leading_digit_prefixed(self):
        assert prometheus_name("0weird") == "_0weird"

    def test_already_valid_untouched(self):
        assert prometheus_name("plain_name:sub") == "plain_name:sub"


class TestLabelEscaping:
    def test_backslash_quote_newline(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_escaped_values_render_on_one_line(self):
        reg = MetricsRegistry()
        reg.counter("svc.hits", path='a"b\\c\nd').inc()
        page = prometheus_exposition(reg)
        assert page.count("\n") == page.rstrip("\n").count("\n") + 1
        assert 'path="a\\"b\\\\c\\nd"' in page


class TestRendering:
    def test_empty_registry_renders_empty(self):
        assert prometheus_exposition(MetricsRegistry()) == ""
        assert render_prometheus({}) == ""

    def test_content_type_is_version_0_0_4(self):
        assert "version=0.0.4" in CONTENT_TYPE

    def test_counter_gauge_types_from_instruments(self):
        reg = MetricsRegistry()
        reg.counter("svc.requests").inc(3)
        reg.gauge("svc.inflight").set(2)
        page = prometheus_exposition(reg)
        assert "# TYPE svc_requests counter" in page
        assert "# TYPE svc_inflight gauge" in page
        assert "svc_requests 3" in page
        assert "svc_inflight 2" in page

    def test_histogram_renders_as_summary(self):
        reg = MetricsRegistry()
        h = reg.histogram("svc.wait_seconds", tenant="alpha")
        for v in (0.1, 0.2, 0.4):
            h.observe(v)
        page = prometheus_exposition(reg)
        assert "# TYPE svc_wait_seconds summary" in page
        for q in ("0.5", "0.95", "0.99"):
            assert f'svc_wait_seconds{{tenant="alpha",quantile="{q}"}}' in page
        assert 'svc_wait_seconds_sum{tenant="alpha"}' in page
        assert 'svc_wait_seconds_count{tenant="alpha"} 3' in page

    def test_empty_label_value_renders(self):
        reg = MetricsRegistry()
        reg.counter("lock.acquire.count", name="").inc()
        assert 'lock_acquire_count{name=""} 1' in prometheus_exposition(reg)

    def test_two_scrapes_of_idle_registry_are_identical(self):
        reg = MetricsRegistry()
        reg.counter("svc.requests", tenant="b").inc()
        reg.counter("svc.requests", tenant="a").inc(2)
        reg.histogram("svc.wait_seconds").observe(1.0)
        reg.gauge("svc.depth").set(4)
        assert prometheus_exposition(reg) == prometheus_exposition(reg)

    def test_snapshot_vs_exposition_round_trip(self):
        # Rendering a snapshot dict directly equals rendering the live
        # registry, modulo instrument-derived TYPE lines.
        reg = MetricsRegistry()
        reg.counter("svc.requests").inc(7)
        reg.histogram("svc.wait_seconds").observe(0.5)
        from_snapshot = render_prometheus(reg.snapshot())
        live = prometheus_exposition(reg)
        strip = lambda page: [  # noqa: E731
            line for line in page.splitlines()
            if not line.startswith("# TYPE")
        ]
        assert strip(from_snapshot) == strip(live)

    def test_label_sets_ordered_deterministically(self):
        reg = MetricsRegistry()
        # Registration order deliberately scrambled vs label order.
        reg.counter("svc.requests", tenant="c").inc()
        reg.counter("svc.requests", tenant="a").inc()
        reg.counter("svc.requests", tenant="b").inc()
        lines = prometheus_exposition(reg).splitlines()
        tenants = [ln.split('"')[1] for ln in lines if 'tenant="' in ln]
        assert tenants == ["a", "b", "c"]

    def test_base_names_do_not_interleave(self):
        # 'op.seconds2' must not split the 'op.seconds' family even
        # though '{' sorts after alphanumerics in raw key order.
        reg = MetricsRegistry()
        reg.counter("op.seconds", kind="x").inc()
        reg.counter("op.seconds2").inc()
        reg.counter("op.seconds", kind="y").inc()
        lines = prometheus_exposition(reg).splitlines()
        type_lines = [ln for ln in lines if ln.startswith("# TYPE")]
        assert type_lines == [
            "# TYPE op_seconds counter",
            "# TYPE op_seconds2 counter",
        ]

    def test_special_float_values(self):
        page = render_prometheus(
            {"m.inf": float("inf"), "m.nan": float("nan")}
        )
        assert "m_inf +Inf" in page
        assert "m_nan NaN" in page

    def test_mixed_types_under_one_name_render_untyped(self):
        reg = MetricsRegistry()
        reg.counter("svc.thing", a="1").inc()
        reg.gauge("svc.thing", a="2").set(5)
        assert "# TYPE svc_thing untyped" in prometheus_exposition(reg)
