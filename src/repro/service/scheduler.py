"""Job execution on the canonical engine: the worker-thread half.

:func:`execute_job` is the synchronous body the service's worker pool
runs inside a thread: it replays the job's shared compiled plan through
one :class:`~repro.runtime.ExecutionEngine` that records the job's op
spans into a per-job tracer (the trace signature is the determinism
anchor) and carries a :class:`CancelLayer` (cooperative
cancellation/timeout at op boundaries), then reduces the final state to
the result payload — fingerprint, trace signature, optional bitstring
samples.

Nothing here touches the event loop; shared mutable state is limited to
the thread-safe plan/gather caches, which is what makes N of these
running concurrently bit-exact with running them serially.
"""

from __future__ import annotations

import time

from repro.runtime import ExecutionEngine
from repro.runtime.layers import FlightRecorderLayer, RuntimeLayer
from repro.service.jobs import (
    Job,
    JobCancelled,
    JobResult,
    JobStatus,
    signature_digest,
    state_fingerprint,
)
from repro.statevector import sample_counts
from repro.telemetry.runtime import Telemetry

__all__ = ["CancelLayer", "execute_job"]


class CancelLayer(RuntimeLayer):
    """Aborts a run when the job's cancel event is set.

    Polled in ``before_op``: cancellation/timeout takes effect at the
    next op boundary, never mid-kernel, so a cancelled job tears down
    with its state machine consistent (and without needing the retry
    machinery — :class:`~repro.service.jobs.JobCancelled` is not a
    fault, it escapes the engine directly).
    """

    def __init__(self, job: Job) -> None:
        self._job = job

    def before_op(self, ctx, unit) -> None:
        if self._job.cancel_event.is_set():
            raise JobCancelled(self._job.cancel_reason or "cancelled")


def execute_job(job: Job, recorder=None) -> JobResult:
    """Run one admitted job to completion (worker-thread body).

    Raises :class:`JobCancelled` when the job was cancelled or timed
    out mid-run; any other exception is the job failing.  When the
    service passes its :class:`~repro.telemetry.recorder.FlightRecorder`,
    a :class:`~repro.runtime.FlightRecorderLayer` streams this run's op
    attempts into the ring tagged with the job's ``trace_id``.

    The extra layer records only — trace ``signature()`` parity with a
    run without it is an invariant the observability tests pin.
    """
    spec = job.spec
    entry = job.plan_entry
    start = time.perf_counter()
    if recorder is None:
        recorder = job.recorder
    layers = [CancelLayer(job)]
    if recorder is not None:
        layers.append(
            FlightRecorderLayer(recorder, trace_id=job.trace_id or None)
        )
    if spec.pipeline:
        from repro.runtime import PipelineLayer

        layers.append(
            PipelineLayer(recorder=recorder, trace_id=job.trace_id or None)
        )
    root_attrs = {"job_id": job.job_id, "tenant": spec.tenant}
    if job.trace_id:
        root_attrs["trace_id"] = job.trace_id
    engine = ExecutionEngine(
        entry.program,
        layers=layers,
        telemetry=Telemetry.spans_only(),
        root_attrs=root_attrs,
    )
    run = engine.run()
    # Hashed straight from the shards: only sampling needs the whole
    # state gathered into one vector.
    fingerprint = state_fingerprint(run.state)
    samples = None
    if spec.shots:
        samples = sample_counts(
            run.state.to_statevector(), spec.shots, seed=spec.seed
        )
    signature = run.trace.signature()
    return JobResult(
        status=JobStatus.COMPLETED,
        fingerprint=fingerprint,
        signature=signature,
        signature_digest=signature_digest(signature),
        wall_seconds=time.perf_counter() - start,
        samples=samples,
    )
