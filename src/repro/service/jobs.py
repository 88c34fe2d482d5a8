"""Typed simulation jobs: specs, lifecycle states and results.

A :class:`JobSpec` is the immutable request a tenant submits; a
:class:`Job` is the service's mutable record of one submission moving
through the lifecycle::

    PENDING -> QUEUED -> RUNNING -> COMPLETED
        \\-> REJECTED        \\-> CANCELLED | TIMEOUT | FAILED

``REJECTED`` is the admission controller refusing the job before it ever
queues; ``CANCELLED``/``TIMEOUT`` ride the same cooperative mechanism (a
:class:`threading.Event` the in-engine
:class:`~repro.service.scheduler.CancelLayer` polls at op boundaries).

A :class:`JobResult` carries the determinism anchors the rest of the
repo is built on: the sha256 fingerprint of the final statevector bytes
and the trace ``signature()`` (plus its digest), so bit-exactness of a
concurrent run against a serial reference is a simple equality check.
"""

from __future__ import annotations

import enum
import hashlib
import threading
from dataclasses import dataclass, field

from repro.circuit import Circuit
from repro.distributed import DistributedState

__all__ = [
    "Job",
    "JobCancelled",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "TERMINAL_STATUSES",
    "signature_digest",
    "state_fingerprint",
]


class JobStatus(str, enum.Enum):
    """Lifecycle state of a submitted job."""

    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    REJECTED = "rejected"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"
    FAILED = "failed"


#: States a job never leaves.
TERMINAL_STATUSES = frozenset(
    {
        JobStatus.COMPLETED,
        JobStatus.REJECTED,
        JobStatus.CANCELLED,
        JobStatus.TIMEOUT,
        JobStatus.FAILED,
    }
)


class JobCancelled(Exception):
    """Raised inside the engine when a job's cancel event is set."""


@dataclass(frozen=True)
class JobSpec:
    """One tenant's immutable simulation request.

    ``priority`` orders jobs *within* a tenant (higher first, FIFO among
    equals); fairness *across* tenants is the queue's weighted-fair
    scheduling, so one tenant cannot starve another with high
    priorities.  ``use_result_cache=False`` opts a request out of the
    completed-result cache (e.g. throughput benchmarking).
    """

    tenant: str
    circuit: Circuit
    local_qubits: int
    kmax: int = 5
    priority: int = 0
    shots: int = 0
    seed: int = 0
    timeout_seconds: float | None = None
    use_result_cache: bool = True
    #: Client-minted correlation id (``repro submit`` puts one on the
    #: wire); the service mints one when absent.  Deliberately excluded
    #: from plan_key/result_key — trace identity never splits caches.
    trace_id: str | None = None
    #: Execute with a :class:`~repro.runtime.PipelineLayer` (shard I/O
    #: overlapped with compute).  Excluded from plan_key/result_key:
    #: pipelined and serial runs are bit-identical, so their results may
    #: share a cache entry.
    pipeline: bool = False

    def plan_key(self) -> tuple:
        """Key under which requests share one schedule + compiled plan."""
        return (self.circuit.content_hash(), self.local_qubits, self.kmax)

    def result_key(self) -> tuple:
        """Key under which finished results are shared across requests."""
        return (*self.plan_key(), self.shots, self.seed)


def state_fingerprint(state) -> str:
    """sha256 hex digest of the final state's amplitude bytes, logical order.

    *state* is a :class:`~repro.statevector.StateVector`, whose buffer is
    hashed in place, or a :class:`~repro.distributed.DistributedState`,
    whose shards are streamed in bounded chunks: the same digest without
    gathering (and copying) the whole state.
    """
    digest = hashlib.sha256()
    if isinstance(state, DistributedState):
        chunks = state.logical_chunks()
    else:
        chunks = (state.data,)  # always C-contiguous
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def signature_digest(signature) -> str:
    """sha256 hex digest of a trace ``signature()`` event list."""
    h = hashlib.sha256()
    for event in signature:
        h.update(repr(event).encode("utf-8"))
    return h.hexdigest()


@dataclass
class JobResult:
    """Terminal outcome of one job.

    ``signature`` is the full timing-free trace identity (kept in-process
    for parity tests); only its ``signature_digest`` goes over the wire.
    ``from_cache`` marks results served by the
    :class:`~repro.service.cache.ResultCache` without execution.
    """

    status: JobStatus
    fingerprint: str | None = None
    signature: list | None = None
    signature_digest: str | None = None
    wall_seconds: float = 0.0
    from_cache: bool = False
    samples: dict[int, int] | None = None
    error: str | None = None
    #: Correlation id of the job that produced this result.  Stamped by
    #: the service at finish time, so a cache-served result carries the
    #: *requesting* job's id, not the original producer's.
    trace_id: str | None = None

    def payload(self, num_qubits: int | None = None) -> dict:
        """JSON-ready summary (the wire/CLI view of this result)."""
        samples = None
        if self.samples is not None:
            width = num_qubits or 0
            samples = {
                format(outcome, f"0{width}b"): count
                for outcome, count in sorted(self.samples.items())
            }
        return {
            "status": self.status.value,
            "fingerprint": self.fingerprint,
            "signature_digest": self.signature_digest,
            "wall_seconds": self.wall_seconds,
            "from_cache": self.from_cache,
            "samples": samples,
            "error": self.error,
            "trace_id": self.trace_id,
        }


@dataclass
class Job:
    """The service's mutable record of one submission."""

    job_id: str
    spec: JobSpec
    #: End-to-end correlation id: spec-supplied or service-minted at
    #: submit; threads through spans, flight-recorder records and the
    #: response payload.
    trace_id: str = ""
    status: JobStatus = JobStatus.PENDING
    result: JobResult | None = None
    #: Admission verdict (set before queueing; None for cache hits).
    decision: object | None = None
    #: Event-loop timestamps (``loop.time()`` domain).
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    #: Cooperative cancellation: polled by CancelLayer at op boundaries.
    cancel_event: threading.Event = field(default_factory=threading.Event)
    cancel_reason: str | None = None
    #: Resolved with the JobResult when the job reaches a terminal state.
    future: object | None = None
    #: Plan-cache entry the worker executes (set at admission).
    plan_entry: object | None = None
    #: Flight recorder the worker streams op attempts into (service-set;
    #: rides the job so monkeypatched execute_job fakes keep their
    #: one-argument signature).
    recorder: object | None = None
    #: Queue bookkeeping (set by FairQueue.push).
    queue_cost: float = 0.0

    @property
    def tenant(self) -> str:
        """The owning tenant (quota and fairness unit)."""
        return self.spec.tenant

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.status in TERMINAL_STATUSES

    def request_cancel(self, reason: str = "cancelled") -> None:
        """Ask a queued/running job to stop (first reason wins)."""
        if self.cancel_reason is None:
            self.cancel_reason = reason
        self.cancel_event.set()
