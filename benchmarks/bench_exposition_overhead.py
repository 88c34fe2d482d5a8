"""Exposition overhead: scrape latency and serving-path cost.

Two questions about the live observability plane:

1. How long does one ``/metrics`` scrape take against a loaded registry
   (many tenants, thousands of histogram observations) — both the pure
   render and the full HTTP round trip?
2. What does running the exposition server *and actively scraping it*
   (every ~250 ms — 20-60x harder than a real scrape cadence) cost the
   serving path itself?  The acceptance bound: the same multi-tenant
   stress run with the plane enabled must stay within 1.05x of the
   disabled run.  The gate compares process CPU seconds — every cycle
   the plane burns counts, while single-core scheduler noise (this can
   run on a 1-CPU host where six threads share one core) does not;
   wall time is reported alongside for context.  OpenBLAS is held to
   one thread for the stress runs: its idle threads spin-wait between
   calls, CPU seconds that swung the ratio of one and the same code
   from 0.85 to 1.16 and that neither mode spends on the plane.
"""

from __future__ import annotations

import asyncio
import statistics
import threading
import time
from contextlib import contextmanager

from repro.circuit import generate_supremacy_circuit
from repro.kernels.apply import _openblas, blas_threads
from repro.service import JobSpec, ServiceConfig, SimulationService
from repro.telemetry import MetricsRegistry
from repro.telemetry.exposition import prometheus_exposition
from repro.telemetry.live import ExpositionServer, http_get


def _loaded_registry(tenants: int = 40, observations: int = 500):
    registry = MetricsRegistry()
    for t in range(tenants):
        tenant = f"tenant-{t:02d}"
        hist = registry.histogram("service.exec.seconds", tenant=tenant)
        for i in range(observations):
            hist.observe(0.001 * (i + 1))
        registry.counter(
            "service.jobs.completed", tenant=tenant
        ).inc(observations)
        registry.gauge("service.queue.depth", tenant=tenant).set(t)
    return registry


def _scrape_latencies(registry, rounds: int = 20) -> list[float]:
    async def scenario():
        loop = asyncio.get_running_loop()
        server = ExpositionServer(registry)
        port = await server.start(port=0)
        try:
            latencies = []
            for _ in range(rounds):
                start = time.perf_counter()
                status, _ = await loop.run_in_executor(
                    None, http_get, port, "/metrics"
                )
                assert status == 200
                latencies.append(time.perf_counter() - start)
            return latencies
        finally:
            await server.stop()

    return asyncio.run(scenario())


#: Interleaved rounds of each mode.  On a 2-vCPU host the CPU seconds
#: of one round swung 1.1-2.0 s and a scraped/unscraped pair 0.92-1.24x
#: (30 pairs, median 1.03x); the ratio of the best round of each mode
#: over 3-5 rounds failed the gate in about a third of the windows of
#: those pairs, that of 12-round totals in none.
STRESS_ROUNDS = 12


def _stress_specs() -> list[JobSpec]:
    """Serving-scale jobs: states big enough that kernels, not Python
    bookkeeping, dominate — the regime the 1.05x budget is about.

    Enough of them for a ~1.5 s run with ~6 scrapes: at 12 jobs (~0.45 s,
    ~2 scrapes) the CPU ratio of one and the same code spanned 0.88-1.10
    on a 2-vCPU host, so the gate failed at random."""
    specs = []
    for seed, (tenant, qubits, depth) in enumerate(
        [("alpha", 14, 10), ("beta", 15, 10), ("gamma", 16, 8)] * 12
    ):
        circuit = generate_supremacy_circuit(qubits, depth, seed=seed)
        specs.append(
            JobSpec(
                tenant=tenant,
                circuit=circuit,
                local_qubits=qubits - 2,
                shots=16,
                seed=seed,
                use_result_cache=False,
            )
        )
    return specs


@contextmanager
def _one_blas_thread():
    """OpenBLAS on one thread inside the block, as before it afterwards."""
    before, pin = blas_threads(), _openblas("set")
    if pin is None:
        yield
        return
    pin(1)
    try:
        yield
    finally:
        pin(before)


def _run_stress(specs, *, scrape: bool) -> tuple[float, float]:
    """(wall, cpu) seconds for the stress run, optionally under scraping."""

    async def scenario():
        service = SimulationService(ServiceConfig(max_workers=4))
        await service.start()
        exposition = scraper = None
        stop = threading.Event()
        if scrape:
            exposition = service.exposition_server()
            port = await exposition.start(port=0)

            def scrape_loop():
                while not stop.is_set():
                    try:
                        http_get(port, "/metrics")
                    except OSError:
                        return
                    stop.wait(0.25)

            scraper = threading.Thread(
                target=scrape_loop, name="bench-scraper"
            )
            scraper.start()
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            jobs = [await service.submit(spec) for spec in specs]
            await asyncio.gather(*(service.wait(job) for job in jobs))
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
        finally:
            stop.set()
            if exposition is not None:
                await exposition.stop()
            await service.shutdown()
        if scraper is not None:
            scraper.join()
        return elapsed, cpu

    return asyncio.run(scenario())


def bench_exposition_overhead(benchmark, report_writer, bench_record):
    registry = _loaded_registry()
    page = prometheus_exposition(registry)

    render_seconds = min(
        _timed(prometheus_exposition, registry) for _ in range(5)
    )
    http_latencies = _scrape_latencies(registry)
    http_median = statistics.median(http_latencies)

    specs = _stress_specs()
    # One long run per mode, cut into interleaved rounds so drift on a
    # shared host hits both equally; the gate compares their totals.
    baseline, scraped = [], []
    with _one_blas_thread():
        _run_stress(specs, scrape=False)  # warm plan + gather caches
        for _ in range(STRESS_ROUNDS):
            baseline.append(_run_stress(specs, scrape=False))
            scraped.append(_run_stress(specs, scrape=True))
    base_wall, base_cpu = map(statistics.fmean, zip(*baseline))
    scraped_wall, scraped_cpu = map(statistics.fmean, zip(*scraped))
    ratio = scraped_cpu / base_cpu

    rows = [
        f"loaded registry: {len(registry)} series, "
        f"{len(page)} bytes/page:",
        "",
        f"  render-only scrape      {render_seconds * 1e3:8.3f} ms",
        f"  HTTP round-trip scrape  {http_median * 1e3:8.3f} ms (median of "
        f"{len(http_latencies)})",
        "",
        f"{len(specs)}-job / 4-worker stress run, scraped every ~250 ms "
        "vs unscraped",
        f"(mean of {STRESS_ROUNDS} interleaved rounds, 1 BLAS thread; the 1.05x",
        "gate is on CPU seconds — wall time on a shared host is noise):",
        "",
        f"  unscraped  {base_wall:8.3f} s wall  {base_cpu:8.3f} s cpu",
        f"  scraped    {scraped_wall:8.3f} s wall  {scraped_cpu:8.3f} s cpu"
        f"  ({ratio:.3f}x cpu)",
        "",
        "pull-model gauges refresh only at scrape time and rendering",
        "runs on the loop while engine work sits on executor threads,",
        "so an active scraper must stay inside the 1.05x acceptance band",
    ]
    report_writer("exposition_overhead", rows)
    bench_record(
        "exposition_overhead",
        seconds=http_median,
        params={
            "series": len(registry),
            "page_bytes": len(page),
            "jobs": len(specs),
            "scrape_interval_seconds": 0.25,
            "rounds": STRESS_ROUNDS,
        },
        metrics={
            "render.seconds": render_seconds,
            "scrape.http.median_seconds": http_median,
            "stress.unscraped.wall_seconds": base_wall,
            "stress.unscraped.cpu_seconds": base_cpu,
            "stress.scraped.wall_seconds": scraped_wall,
            "stress.scraped.cpu_seconds": scraped_cpu,
            "stress.slowdown": ratio,
        },
    )

    assert ratio <= 1.05, (
        f"scraping cost the serving path {ratio:.3f}x CPU (> 1.05x budget)"
    )

    benchmark.pedantic(
        lambda: prometheus_exposition(registry), rounds=3, iterations=1
    )


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
