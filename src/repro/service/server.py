"""The :class:`SimulationService` orchestrator and its TCP front end.

The service runs on one asyncio event loop that owns all bookkeeping
(jobs table, fair queue, metrics); only :func:`execute_job` bodies leave
the loop, onto a bounded :class:`~concurrent.futures.ThreadPoolExecutor`
— so ``max_workers`` bounds concurrent engine runs while submissions,
cancellations and status queries stay responsive.  A submission flows::

    submit -> result-cache probe -> plan-cache get/compile
           -> admission (quota / memory / predicted-time)
           -> weighted-fair queue -> worker -> result cache + metrics

Per-tenant SLO metrics ride the telemetry registry:
``service.jobs.submitted{tenant=}``, ``...completed{tenant=}``,
``...rejected{reason=}``, ``...cancelled{tenant=}``,
``...failed{tenant=}``, queue-wait and execution-seconds histograms
(``service.queue.wait_seconds{tenant=}``,
``service.exec.seconds{tenant=}``), plus pull-model gauges refreshed at
read time (``service.queue.depth{tenant=}``, ``service.inflight``,
``service.uptime.seconds``).

The live observability plane hangs off the same instance: every status
change appends a ``transition`` record (tagged with the job's
``trace_id``) to the service's :class:`FlightRecorder`, the worker
threads stream per-op ``span`` records into the same ring, failed and
timed-out jobs dump a JSONL postmortem bundle to
``ServiceConfig.postmortem_dir``, and :meth:`SimulationService.
exposition_server` wires ``/metrics`` / ``/healthz`` / ``/statusz`` to
the registry, :meth:`SimulationService.health_view` and
:meth:`SimulationService.status_view`.

:func:`serve` exposes a service over a local JSON-lines TCP socket
(one JSON request per line, one JSON response per line) and
:func:`request` is the matching blocking client — the transport behind
``repro serve`` / ``repro submit``.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.service.admission import AdmissionController, AdmissionPolicy
from repro.service.cache import PlanCache, ResultCache
from repro.service.jobs import Job, JobCancelled, JobResult, JobSpec, JobStatus
from repro.service.queue import FairQueue
from repro.service.scheduler import execute_job
from repro.telemetry import MetricsRegistry
from repro.telemetry.live import ExpositionServer
from repro.telemetry.recorder import FlightRecorder

__all__ = ["ServiceConfig", "SimulationService", "request", "serve"]

#: Longest request line :func:`serve` reads (asyncio's default stream
#: limit); a longer one is answered with an error and the connection
#: closed.
MAX_FRAME_BYTES = 2**16


@dataclass(frozen=True)
class ServiceConfig:
    """Construction-time knobs of one service instance."""

    max_workers: int = 4
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    tenant_weights: dict[str, float] | None = None
    plan_cache_capacity: int = 64
    result_cache_capacity: int = 256
    #: When set, rebounds the process-wide GATHER_CACHE at startup.
    gather_cache_capacity: int | None = None
    collect_metrics: bool = True
    #: Ring capacity of the service's flight recorder.
    flight_recorder_capacity: int = 4096
    #: When set, failed / timed-out jobs dump a JSONL postmortem bundle
    #: (``<job_id>-<trace_id>.jsonl``) into this directory.
    postmortem_dir: str | None = None


class SimulationService:
    """Accepts, admission-controls and concurrently executes jobs."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = MetricsRegistry(enabled=self.config.collect_metrics)
        self.plans = PlanCache(capacity=self.config.plan_cache_capacity)
        self.results = ResultCache(
            capacity=self.config.result_cache_capacity
        )
        self.admission = AdmissionController(
            self.config.admission, metrics=self.metrics
        )
        self.queue = FairQueue(weights=self.config.tenant_weights)
        self.recorder = FlightRecorder(self.config.flight_recorder_capacity)
        self.jobs: dict[str, Job] = {}
        self._running: set[str] = set()
        self._seen_tenants: set[str] = set()
        self._started_monotonic: float | None = None
        self._next_id = 0
        self._executor: ThreadPoolExecutor | None = None
        self._workers: list[asyncio.Task] = []
        self._wakeup: asyncio.Condition | None = None
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the worker pool on the running event loop."""
        if self._workers:
            raise RuntimeError("service already started")
        if self.config.gather_cache_capacity is not None:
            from repro.kernels import GATHER_CACHE

            GATHER_CACHE.set_capacity(self.config.gather_cache_capacity)
        self._closing = False
        self._wakeup = asyncio.Condition()
        # One spare thread beyond the worker count: submission-time plan
        # compiles must never queue behind a fully busy job pool.
        self._executor = ThreadPoolExecutor(
            max_workers=self.config.max_workers + 1,
            thread_name_prefix="repro-service",
        )
        self._workers = [
            asyncio.create_task(self._worker(), name=f"service-worker-{i}")
            for i in range(self.config.max_workers)
        ]
        self._started_monotonic = time.monotonic()

    async def shutdown(self, *, drain: bool = True) -> None:
        """Stop the workers (after finishing queued work when *drain*)."""
        if drain:
            await self.drain()
        else:
            for job in list(self.queue.jobs()):
                self.queue.remove(job)
                self._finish_queued_cancel(job, "shutdown")
            for job_id in list(self._running):
                self.jobs[job_id].request_cancel("shutdown")
        self._closing = True
        async with self._wakeup:
            self._wakeup.notify_all()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers = []
        if self._executor is not None:
            executor = self._executor
            self._executor = None
            # Draining the worker threads blocks until in-flight jobs
            # finish; hand the join to a default-executor thread so the
            # loop (and any other service on it) stays responsive.
            await asyncio.get_running_loop().run_in_executor(
                None, executor.shutdown
            )

    async def drain(self) -> None:
        """Wait until every submitted job reaches a terminal state."""
        pending = [
            job.future
            for job in self.jobs.values()
            if job.future is not None and not job.future.done()
        ]
        if pending:
            await asyncio.gather(*pending)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _tenant_active(self, tenant: str) -> int:
        running = sum(
            1 for job_id in self._running if self.jobs[job_id].tenant == tenant
        )
        return self.queue.depth(tenant) + running

    async def submit(self, spec: JobSpec) -> Job:
        """Admit (or reject) *spec*; returns its :class:`Job` record.

        Never raises for policy outcomes — rejection, like completion,
        is a terminal status on the returned job.
        """
        if not self._workers:
            raise RuntimeError("service not started (call start())")
        loop = asyncio.get_running_loop()
        self._next_id += 1
        job = Job(
            job_id=f"job-{self._next_id:06d}",
            spec=spec,
            trace_id=spec.trace_id or uuid.uuid4().hex[:16],
        )
        job.future = loop.create_future()
        job.submitted_at = loop.time()
        self.jobs[job.job_id] = job
        self._seen_tenants.add(spec.tenant)
        self._record_transition(job)
        self.metrics.counter(
            "service.jobs.submitted", tenant=spec.tenant
        ).inc()

        if spec.use_result_cache:
            cached = self.results.get(spec.result_key())
            if cached is not None:
                self._finish(job, JobStatus.COMPLETED, cached)
                return job

        # Scheduling + compilation is CPU work; keep it off the loop.
        job.plan_entry = await loop.run_in_executor(
            self._executor, self.plans.get, spec
        )
        decision = self.admission.evaluate(
            job.plan_entry.schedule,
            queue_depth=len(self.queue),
            tenant_active=self._tenant_active(spec.tenant),
        )
        job.decision = decision
        if not decision.admitted:
            self._finish(
                job,
                JobStatus.REJECTED,
                JobResult(status=JobStatus.REJECTED, error=decision.reason),
            )
            return job

        job.status = JobStatus.QUEUED
        self._record_transition(job)
        self.queue.push(job, cost=decision.predicted_seconds)
        async with self._wakeup:
            self._wakeup.notify()
        return job

    async def wait(self, job: Job) -> JobResult:
        """Await the job's terminal :class:`JobResult`."""
        return await job.future

    def cancel(self, job_id: str, *, reason: str = "cancelled") -> bool:
        """Cancel a queued or running job; False when already terminal."""
        job = self.jobs.get(job_id)
        if job is None or job.done:
            return False
        if self.queue.remove(job):
            self._finish_queued_cancel(job, reason)
            return True
        job.request_cancel(reason)
        return True

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            async with self._wakeup:
                while not len(self.queue) and not self._closing:
                    await self._wakeup.wait()
                if self._closing and not len(self.queue):
                    return
                job = self.queue.pop()
            if job is None:
                continue
            if job.cancel_event.is_set():
                self._finish_queued_cancel(
                    job, job.cancel_reason or "cancelled"
                )
                continue
            await self._run_job(loop, job)

    async def _run_job(self, loop, job: Job) -> None:
        job.status = JobStatus.RUNNING
        self._record_transition(job)
        job.recorder = self.recorder
        self._running.add(job.job_id)
        job.started_at = loop.time()
        self.metrics.histogram(
            "service.queue.wait_seconds", tenant=job.tenant
        ).observe(job.started_at - job.submitted_at)
        timeout_handle = None
        if job.spec.timeout_seconds is not None:
            timeout_handle = loop.call_later(
                job.spec.timeout_seconds, job.request_cancel, "timeout"
            )
        try:
            result = await loop.run_in_executor(
                self._executor, execute_job, job
            )
        except JobCancelled:
            status = (
                JobStatus.TIMEOUT
                if job.cancel_reason == "timeout"
                else JobStatus.CANCELLED
            )
            result = JobResult(status=status, error=job.cancel_reason)
            self._finish(job, status, result)
        except Exception as exc:  # job code failed; service stays up
            result = JobResult(
                status=JobStatus.FAILED,
                error=f"{type(exc).__name__}: {exc}",
            )
            self._finish(job, JobStatus.FAILED, result)
        else:
            if job.spec.use_result_cache:
                self.results.put(job.spec.result_key(), result)
            self.metrics.histogram(
                "service.exec.seconds", tenant=job.tenant
            ).observe(result.wall_seconds)
            self._finish(job, JobStatus.COMPLETED, result)
        finally:
            if timeout_handle is not None:
                timeout_handle.cancel()
            self._running.discard(job.job_id)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _finish(self, job: Job, status: JobStatus, result: JobResult) -> None:
        job.status = status
        job.result = result
        result.trace_id = job.trace_id
        self._record_transition(job, error=result.error)
        try:
            job.finished_at = asyncio.get_running_loop().time()
        except RuntimeError:  # pragma: no cover - loop teardown
            pass
        key = {
            JobStatus.COMPLETED: "service.jobs.completed",
            JobStatus.CANCELLED: "service.jobs.cancelled",
            JobStatus.TIMEOUT: "service.jobs.cancelled",
            JobStatus.FAILED: "service.jobs.failed",
        }.get(status)
        if key is not None:
            self.metrics.counter(key, tenant=job.tenant).inc()
        if status in (JobStatus.FAILED, JobStatus.TIMEOUT) or (
            status is JobStatus.CANCELLED and job.cancel_reason == "shutdown"
        ):
            self.dump_postmortem(job)
        if job.future is not None and not job.future.done():
            job.future.set_result(result)

    def _finish_queued_cancel(self, job: Job, reason: str) -> None:
        job.request_cancel(reason)
        self._finish(
            job,
            JobStatus.CANCELLED,
            JobResult(status=JobStatus.CANCELLED, error=reason),
        )

    def _record_transition(self, job: Job, *, error: str | None = None) -> None:
        """Append the job's current state to the flight-recorder ring."""
        fields = {
            "trace_id": job.trace_id,
            "job_id": job.job_id,
            "tenant": job.tenant,
            "status": job.status.value,
        }
        if error is not None:
            fields["error"] = error
        self.recorder.record("transition", **fields)

    def dump_postmortem(self, job: Job) -> str | None:
        """Write the job's flight-recorder bundle; returns its path.

        The bundle is the ring filtered to the job's ``trace_id``:
        state transitions, op-attempt spans, and any lock events the
        tracker streamed in — one JSON object per line.  No-op without a
        configured ``postmortem_dir``.
        """
        directory = self.config.postmortem_dir
        if directory is None or not job.trace_id:
            return None
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{job.job_id}-{job.trace_id}.jsonl")
        self.recorder.dump_jsonl(path, trace_id=job.trace_id)
        return path

    # ------------------------------------------------------------------
    # Live observability plane
    # ------------------------------------------------------------------
    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start` (0.0 before the first start)."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _refresh_gauges(self) -> None:
        """Mirror queue/in-flight/uptime into the registry.

        Pull model: refreshed when something reads the metrics (a
        scrape, ``stats()``, ``/statusz``), never on the submit/dispatch
        hot path.  Tenants the service has ever seen keep their
        ``service.queue.depth`` gauge (zeroed when idle), so a scraper
        watches depth fall rather than the series vanishing.
        """
        if not self.metrics.enabled:
            return
        self.metrics.gauge("service.inflight").set(len(self._running))
        self.metrics.gauge("service.uptime.seconds").set(
            self.uptime_seconds()
        )
        for tenant in sorted(self._seen_tenants):
            self.metrics.gauge("service.queue.depth", tenant=tenant).set(
                self.queue.depth(tenant)
            )

    def health_view(self) -> tuple[bool, str]:
        """Liveness + saturation verdict for ``/healthz``."""
        if not self._workers or self._closing:
            return False, "no workers running"
        dead = sorted(
            task.get_name() for task in self._workers if task.done()
        )
        if dead:
            return False, f"dead workers: {', '.join(dead)}"
        depth = len(self.queue)
        limit = self.admission.policy.max_queue_depth
        if depth >= limit:
            return False, f"queue saturated ({depth}/{limit})"
        return True, f"ok workers={len(self._workers)} queued={depth}"

    def status_view(self) -> dict:
        """The ``/statusz`` JSON page: fairness, load, caches, uptime."""
        self._refresh_gauges()
        clocks = self.queue.clocks()
        tenants: dict[str, dict] = {}
        for tenant in sorted(self._seen_tenants):
            tenants[tenant] = {
                "queued": 0,
                "running": 0,
                "done": 0,
                "rejected": {},
                "virtual_clock": clocks.get(tenant, 0.0),
                "p95_queue_wait_seconds": self.metrics.histogram(
                    "service.queue.wait_seconds", tenant=tenant
                ).quantile(0.95),
            }
        for job in self.jobs.values():
            view = tenants.get(job.tenant)
            if view is None:  # pragma: no cover - tenants tracks jobs
                continue
            if job.status is JobStatus.QUEUED:
                view["queued"] += 1
            elif job.status is JobStatus.RUNNING:
                view["running"] += 1
            elif job.done:
                view["done"] += 1
            if job.status is JobStatus.REJECTED and job.result is not None:
                reason = job.result.error or "unknown"
                view["rejected"][reason] = view["rejected"].get(reason, 0) + 1
        return {
            "uptime_seconds": self.uptime_seconds(),
            "queue_depth": len(self.queue),
            "inflight": sorted(self._running),
            "tenants": tenants,
            "plan_cache": self.plans.stats(),
            "result_cache": self.results.stats(),
            "flight_recorder": self.recorder.stats(),
        }

    def exposition_server(self) -> ExpositionServer:
        """A live-plane HTTP server wired to this service.

        ``/metrics`` renders the service registry (gauges refreshed per
        scrape), ``/healthz`` maps :meth:`health_view` to 200/503, and
        ``/statusz`` serves :meth:`status_view` — start it on the
        service's event loop (``repro serve --metrics-port`` does).
        """
        return ExpositionServer(
            self.metrics,
            status_provider=self.status_view,
            health_provider=self.health_view,
            on_scrape=self._refresh_gauges,
        )

    def stats(self) -> dict:
        """JSON-ready service snapshot (the ``stats`` wire op)."""
        from repro.kernels import GATHER_CACHE

        self._refresh_gauges()
        by_status: dict[str, int] = {}
        for job in self.jobs.values():
            by_status[job.status.value] = (
                by_status.get(job.status.value, 0) + 1
            )
        return {
            "jobs": by_status,
            "queue_depth": len(self.queue),
            "running": len(self._running),
            "uptime_seconds": self.uptime_seconds(),
            "plan_cache": self.plans.stats(),
            "result_cache": self.results.stats(),
            "gather_cache": GATHER_CACHE.stats(),
            "flight_recorder": self.recorder.stats(),
            "metrics": self.metrics.snapshot(),
        }


# ----------------------------------------------------------------------
# JSON-lines TCP front end
# ----------------------------------------------------------------------
def _spec_from_wire(message: dict) -> JobSpec:
    from repro.circuit import circuit_from_text

    circuit = circuit_from_text(message["circuit"])
    return JobSpec(
        tenant=str(message.get("tenant", "default")),
        circuit=circuit,
        local_qubits=int(message["local_qubits"]),
        kmax=int(message.get("kmax", 5)),
        priority=int(message.get("priority", 0)),
        shots=int(message.get("shots", 0)),
        seed=int(message.get("seed", 0)),
        timeout_seconds=(
            float(message["timeout_seconds"])
            if message.get("timeout_seconds") is not None
            else None
        ),
        use_result_cache=bool(message.get("use_result_cache", True)),
        trace_id=(
            str(message["trace_id"])
            if message.get("trace_id") is not None
            else None
        ),
        pipeline=bool(message.get("pipeline", False)),
    )


def _job_view(job: Job) -> dict:
    view = {
        "job_id": job.job_id,
        "status": job.status.value,
        "trace_id": job.trace_id,
    }
    if job.result is not None:
        view["result"] = job.result.payload(job.spec.circuit.num_qubits)
    if job.decision is not None:
        view["predicted_seconds"] = job.decision.predicted_seconds
        view["state_bytes"] = job.decision.state_bytes
    return view


async def _handle_message(service: SimulationService, message) -> dict:
    if not isinstance(message, dict):
        return {"ok": False, "error": "request must be a JSON object"}
    op = message.get("op")
    if op == "submit":
        # Circuit parsing is CPU work proportional to the wire payload;
        # keep it off the loop like the plan compile it precedes.
        spec = await asyncio.get_running_loop().run_in_executor(
            service._executor, _spec_from_wire, message
        )
        job = await service.submit(spec)
        if message.get("wait", True) and not job.done:
            await service.wait(job)
        return {"ok": True, **_job_view(job)}
    if op == "status":
        job = service.jobs.get(message.get("job_id", ""))
        if job is None:
            return {"ok": False, "error": "unknown job_id"}
        return {"ok": True, **_job_view(job)}
    if op == "cancel":
        cancelled = service.cancel(
            message.get("job_id", ""),
            reason=message.get("reason", "cancelled"),
        )
        return {"ok": cancelled}
    if op == "stats":
        return {"ok": True, "stats": service.stats()}
    return {"ok": False, "error": f"unknown op {op!r}"}


async def serve(
    service: SimulationService,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Start the JSON-lines TCP front end for a started *service*."""

    async def handle(reader, writer):
        async def reply(response: dict) -> None:
            writer.write(json.dumps(response).encode() + b"\n")
            await writer.drain()

        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran MAX_FRAME_BYTES
                    await reply({
                        "ok": False,
                        "error": f"frame exceeds {MAX_FRAME_BYTES} bytes",
                    })
                    break
                if not line:
                    break
                try:
                    message = json.loads(line)
                    response = await _handle_message(service, message)
                except Exception as exc:
                    response = {
                        "ok": False,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                await reply(response)
        finally:
            writer.close()

    return await asyncio.start_server(handle, host, port, limit=MAX_FRAME_BYTES)


def request(host: str, port: int, message: dict, *, timeout: float = 300.0) -> dict:
    """Blocking one-shot client: send *message*, return the response."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(json.dumps(message).encode() + b"\n")
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            buf += chunk
    if not buf:
        raise ConnectionError(
            f"{host}:{port} closed the connection without a reply"
        )
    return json.loads(buf)
