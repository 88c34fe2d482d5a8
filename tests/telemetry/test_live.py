"""ExpositionServer HTTP plane: /metrics, /healthz, /statusz."""

from __future__ import annotations

import asyncio
import json

from repro.telemetry.exposition import CONTENT_TYPE, prometheus_exposition
from repro.telemetry.live import ExpositionServer, http_get
from repro.telemetry.metrics import MetricsRegistry


async def _get(port, path):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, http_get, port, path)


def _serve(test_body, **server_kwargs):
    """Run an ExpositionServer on an ephemeral port around test_body."""

    async def runner():
        registry = server_kwargs.pop("registry", None)
        if registry is None:
            registry = MetricsRegistry()
        server = ExpositionServer(registry, **server_kwargs)
        port = await server.start(port=0)
        try:
            await test_body(server, port, registry)
        finally:
            await server.stop()

    asyncio.run(runner())


class TestEndpoints:
    def test_metrics_serves_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("svc.requests", tenant="alpha").inc(3)

        async def body(server, port, reg):
            status, text = await _get(port, "/metrics")
            assert status == 200
            assert text == prometheus_exposition(reg)
            assert 'svc_requests{tenant="alpha"} 3' in text

        _serve(body, registry=registry)

    def test_metrics_content_type(self):
        async def body(server, port, reg):
            status, content_type, text = await asyncio.get_running_loop() \
                .run_in_executor(None, server._respond, "/metrics")
            assert status == 200
            assert content_type == CONTENT_TYPE

        _serve(body)

    def test_healthz_ok_and_unhealthy(self):
        healthy = {"value": (True, "ok")}

        async def body(server, port, reg):
            status, text = await _get(port, "/healthz")
            assert (status, text.strip()) == (200, "ok")
            healthy["value"] = (False, "queue saturated")
            status, text = await _get(port, "/healthz")
            assert status == 503
            assert "queue saturated" in text

        _serve(body, health_provider=lambda: healthy["value"])

    def test_healthz_defaults_to_ok_without_provider(self):
        async def body(server, port, reg):
            status, _ = await _get(port, "/healthz")
            assert status == 200

        _serve(body)

    def test_statusz_serves_json(self):
        async def body(server, port, reg):
            status, text = await _get(port, "/statusz")
            assert status == 200
            assert json.loads(text) == {"tenants": {"alpha": {"queued": 1}}}

        _serve(
            body,
            status_provider=lambda: {"tenants": {"alpha": {"queued": 1}}},
        )

    def test_unknown_path_is_404(self):
        async def body(server, port, reg):
            status, _ = await _get(port, "/nope")
            assert status == 404

        _serve(body)

    def test_on_scrape_hook_runs_before_render(self):
        calls = []
        registry = MetricsRegistry()

        def refresh():
            calls.append(1)
            registry.gauge("svc.depth").set(len(calls))

        async def body(server, port, reg):
            status, text = await _get(port, "/metrics")
            assert status == 200 and "svc_depth 1" in text
            status, text = await _get(port, "/metrics")
            assert "svc_depth 2" in text

        _serve(body, registry=registry, on_scrape=refresh)

    def test_two_idle_scrapes_are_byte_identical(self):
        registry = MetricsRegistry()
        registry.counter("svc.requests", tenant="b").inc()
        registry.histogram("svc.wait_seconds", tenant="a").observe(0.5)

        async def body(server, port, reg):
            first = await _get(port, "/metrics")
            second = await _get(port, "/metrics")
            assert first == second

        _serve(body, registry=registry)

    def test_stop_closes_listener(self):
        async def runner():
            server = ExpositionServer(MetricsRegistry())
            port = await server.start(port=0)
            await server.stop()
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, http_get, port, "/metrics")
            except OSError:
                return
            raise AssertionError("server still accepting after stop()")

        asyncio.run(runner())
