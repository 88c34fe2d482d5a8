"""Async multi-tenant simulation job engine (the service layer).

The rest of the stack runs one circuit well; this package runs *many at
once* for many users.  A :class:`SimulationService` accepts typed
:class:`JobSpec` requests, admission-controls them against a
:class:`~repro.perfmodel.TimelineModel` price (memory footprint,
predicted seconds, queue depth, per-tenant quotas), orders the admitted
jobs with a weighted-fair multi-tenant queue, and executes them
concurrently on a bounded worker pool — every job running through the
one canonical :class:`~repro.runtime.ExecutionEngine` op loop, which
records each job's op spans into a per-job tracer, so results stay
bit-exact with serial execution and each job carries its
determinism-anchoring trace ``signature()``.

Cross-request reuse is the point: a :class:`PlanCache` shares schedules
and compiled :class:`~repro.plan.CompiledProgram`\\ s between requests
keyed on :meth:`Circuit.content_hash() <repro.circuit.Circuit.content_hash>`,
a :class:`ResultCache` returns finished results without re-execution,
and the process-wide :data:`~repro.kernels.GATHER_CACHE` (now
thread-safe) serves diagonal factors to every worker thread.  Per-tenant
SLO metrics (``service.jobs.completed{tenant=}``, queue-wait
histograms, admission rejections) ride the existing
:mod:`repro.telemetry` registry.

``repro serve`` exposes the engine over a local JSON-lines TCP socket;
``repro submit`` is its client.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
)
from repro.service.cache import PlanCache, PlanEntry, ResultCache
from repro.service.jobs import (
    Job,
    JobCancelled,
    JobResult,
    JobSpec,
    JobStatus,
    state_fingerprint,
)
from repro.service.queue import FairQueue
from repro.service.scheduler import CancelLayer, execute_job
from repro.service.server import (
    ServiceConfig,
    SimulationService,
    request,
    serve,
)

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionPolicy",
    "CancelLayer",
    "FairQueue",
    "Job",
    "JobCancelled",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "PlanCache",
    "PlanEntry",
    "ResultCache",
    "ServiceConfig",
    "SimulationService",
    "execute_job",
    "request",
    "serve",
    "state_fingerprint",
]
