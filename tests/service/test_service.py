"""SimulationService lifecycle: admission, cancellation, concurrency.

The deterministic lifecycle tests (cancel/timeout/failure/quota) swap
:func:`execute_job` for a controllable fake so they never race the real
engine; the mid-run cancellation test and the concurrency stress test
run the real engine — the latter asserts bit-exact fingerprint and
trace-signature parity between concurrent and serial execution.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.runtime import ExecutionEngine
from repro.runtime.layers import RuntimeLayer
from repro.service import (
    AdmissionPolicy,
    CancelLayer,
    Job,
    JobCancelled,
    JobResult,
    JobStatus,
    PlanCache,
    ServiceConfig,
    SimulationService,
    execute_job,
)
from repro.telemetry import Telemetry

import repro.service.server as server_module


async def _until(predicate, *, timeout: float = 5.0) -> None:
    """Poll *predicate* on the loop until true (or fail the test)."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        if loop.time() > deadline:
            pytest.fail("condition not reached within timeout")
        await asyncio.sleep(0.001)


class _FakeExecute:
    """execute_job stand-in: blocks until released or cancelled."""

    def __init__(self, error: Exception | None = None) -> None:
        self.release = threading.Event()
        self.started: list[str] = []
        self.error = error

    def __call__(self, job: Job) -> JobResult:
        self.started.append(job.job_id)
        if self.error is not None:
            raise self.error
        while True:
            if job.cancel_event.is_set():
                raise JobCancelled(job.cancel_reason or "cancelled")
            if self.release.wait(0.002):
                return JobResult(
                    status=JobStatus.COMPLETED,
                    fingerprint=f"fake-{job.job_id}",
                )


class TestLifecycle:
    def test_submit_runs_to_completion(self, run_async, make_spec):
        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=2))
            await service.start()
            try:
                job = await service.submit(make_spec("acme"))
                result = await service.wait(job)
            finally:
                await service.shutdown()
            return service, job, result

        service, job, result = run_async(scenario())
        assert job.status is JobStatus.COMPLETED
        assert result.status is JobStatus.COMPLETED
        assert result.fingerprint
        assert result.signature
        assert result.wall_seconds > 0
        assert not result.from_cache
        snapshot = service.metrics.snapshot()
        assert snapshot["service.jobs.submitted{tenant=acme}"] == 1
        assert snapshot["service.jobs.completed{tenant=acme}"] == 1
        assert (
            snapshot["service.queue.wait_seconds{tenant=acme}"]["count"] == 1
        )

    def test_second_identical_submit_hits_result_cache(
        self, run_async, make_spec
    ):
        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=1))
            await service.start()
            try:
                first = await service.wait(
                    await service.submit(make_spec(shots=32, seed=11))
                )
                second_job = await service.submit(
                    make_spec(shots=32, seed=11)
                )
                second = await service.wait(second_job)
            finally:
                await service.shutdown()
            return service, first, second

        service, first, second = run_async(scenario())
        assert not first.from_cache
        assert second.from_cache
        assert second.fingerprint == first.fingerprint
        assert second.samples == first.samples
        # Only the first submission actually executed.
        snapshot = service.metrics.snapshot()
        assert snapshot["service.exec.seconds{tenant=default}"]["count"] == 1
        assert service.results.stats()["hits"] == 1

    def test_plan_shared_across_result_cache_misses(
        self, run_async, make_spec
    ):
        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=2))
            await service.start()
            try:
                jobs = [
                    await service.submit(make_spec(seed=s, shots=8))
                    for s in (1, 2, 3)
                ]
                await asyncio.gather(*(service.wait(j) for j in jobs))
            finally:
                await service.shutdown()
            return service

        service = run_async(scenario())
        # Distinct seeds miss the result cache but share one plan.
        assert service.plans.stats() == {
            "hits": 2,
            "misses": 1,
            "hit_rate": 2 / 3,
            "entries": 1,
            "capacity": 64,
        }

    def test_submit_before_start_raises(self, run_async, make_spec):
        async def scenario():
            await SimulationService().submit(make_spec())

        with pytest.raises(RuntimeError, match="not started"):
            run_async(scenario())


class TestAdmission:
    def test_rejection_is_a_terminal_status(self, run_async, make_spec):
        async def scenario():
            policy = AdmissionPolicy(max_predicted_seconds=0.0)
            service = SimulationService(
                ServiceConfig(max_workers=1, admission=policy)
            )
            await service.start()
            try:
                job = await service.submit(make_spec())
                result = await service.wait(job)
            finally:
                await service.shutdown()
            return job, result

        job, result = run_async(scenario())
        assert job.status is JobStatus.REJECTED
        assert result.status is JobStatus.REJECTED
        assert result.error == "predicted_time"
        assert job.decision is not None and not job.decision.admitted

    def test_tenant_quota_counts_queued_and_running(
        self, run_async, make_spec, monkeypatch
    ):
        fake = _FakeExecute()
        monkeypatch.setattr(server_module, "execute_job", fake)

        async def scenario():
            policy = AdmissionPolicy(max_tenant_active=1)
            service = SimulationService(
                ServiceConfig(max_workers=1, admission=policy)
            )
            await service.start()
            try:
                first = await service.submit(
                    make_spec("acme", use_result_cache=False)
                )
                await _until(lambda: first.status is JobStatus.RUNNING)
                blocked = await service.submit(
                    make_spec("acme", use_result_cache=False)
                )
                other = await service.submit(
                    make_spec("rival", use_result_cache=False)
                )
                fake.release.set()
                await service.wait(first)
                await service.wait(other)
            finally:
                fake.release.set()
                await service.shutdown()
            return first, blocked, other

        first, blocked, other = run_async(scenario())
        assert first.status is JobStatus.COMPLETED
        # Same tenant is over quota; a different tenant is not.
        assert blocked.status is JobStatus.REJECTED
        assert blocked.result.error == "tenant_quota"
        assert other.status is JobStatus.COMPLETED


class TestCancellation:
    def test_cancel_queued_job_never_runs(
        self, run_async, make_spec, monkeypatch
    ):
        fake = _FakeExecute()
        monkeypatch.setattr(server_module, "execute_job", fake)

        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=1))
            await service.start()
            try:
                running = await service.submit(
                    make_spec(use_result_cache=False)
                )
                await _until(lambda: running.status is JobStatus.RUNNING)
                queued = await service.submit(
                    make_spec(use_result_cache=False, seed=1)
                )
                assert queued.status is JobStatus.QUEUED
                assert service.cancel(queued.job_id, reason="operator")
                result = await service.wait(queued)
                fake.release.set()
                await service.wait(running)
            finally:
                fake.release.set()
                await service.shutdown()
            return service, queued, result

        service, queued, result = run_async(scenario())
        assert queued.status is JobStatus.CANCELLED
        assert result.error == "operator"
        assert fake.started == [
            j.job_id
            for j in service.jobs.values()
            if j.status is JobStatus.COMPLETED
        ]

    def test_cancel_running_job_mid_run(
        self, run_async, make_spec, monkeypatch
    ):
        fake = _FakeExecute()
        monkeypatch.setattr(server_module, "execute_job", fake)

        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=1))
            await service.start()
            try:
                job = await service.submit(make_spec(use_result_cache=False))
                await _until(lambda: job.status is JobStatus.RUNNING)
                assert service.cancel(job.job_id)
                result = await service.wait(job)
            finally:
                fake.release.set()
                await service.shutdown()
            return service, job, result

        service, job, result = run_async(scenario())
        assert job.status is JobStatus.CANCELLED
        assert result.status is JobStatus.CANCELLED
        snapshot = service.metrics.snapshot()
        assert snapshot["service.jobs.cancelled{tenant=default}"] == 1

    def test_cancel_terminal_job_is_false(self, run_async, make_spec):
        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=1))
            await service.start()
            try:
                job = await service.submit(make_spec())
                await service.wait(job)
                return service.cancel(job.job_id), service.cancel("nope")
            finally:
                await service.shutdown()

        done, unknown = run_async(scenario())
        assert done is False
        assert unknown is False

    def test_timeout_maps_to_timeout_status(
        self, run_async, make_spec, monkeypatch
    ):
        fake = _FakeExecute()
        monkeypatch.setattr(server_module, "execute_job", fake)

        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=1))
            await service.start()
            try:
                job = await service.submit(
                    make_spec(use_result_cache=False, timeout_seconds=0.02)
                )
                result = await service.wait(job)
            finally:
                fake.release.set()
                await service.shutdown()
            return job, result

        job, result = run_async(scenario())
        assert job.status is JobStatus.TIMEOUT
        assert result.error == "timeout"

    def test_non_drain_shutdown_cancels_everything(
        self, run_async, make_spec, monkeypatch
    ):
        fake = _FakeExecute()
        monkeypatch.setattr(server_module, "execute_job", fake)

        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=1))
            await service.start()
            running = await service.submit(make_spec(use_result_cache=False))
            await _until(lambda: running.status is JobStatus.RUNNING)
            queued = await service.submit(
                make_spec(use_result_cache=False, seed=1)
            )
            await service.shutdown(drain=False)
            return running, queued

        running, queued = run_async(scenario())
        assert queued.status is JobStatus.CANCELLED
        assert queued.result.error == "shutdown"
        assert running.status is JobStatus.CANCELLED
        assert running.result.error == "shutdown"


class TestFailure:
    def test_job_failure_keeps_the_service_up(
        self, run_async, make_spec, monkeypatch
    ):
        fake = _FakeExecute(error=RuntimeError("kernel exploded"))
        monkeypatch.setattr(server_module, "execute_job", fake)

        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=1))
            await service.start()
            try:
                bad = await service.submit(make_spec(use_result_cache=False))
                await service.wait(bad)
                fake.error = None
                fake.release.set()
                good = await service.submit(
                    make_spec(use_result_cache=False, seed=1)
                )
                await service.wait(good)
            finally:
                await service.shutdown()
            return service, bad, good

        service, bad, good = run_async(scenario())
        assert bad.status is JobStatus.FAILED
        assert "kernel exploded" in bad.result.error
        assert good.status is JobStatus.COMPLETED
        snapshot = service.metrics.snapshot()
        assert snapshot["service.jobs.failed{tenant=default}"] == 1


class _TripAfter(RuntimeLayer):
    """Sets the job's cancel event after *n* completed ops."""

    def __init__(self, job: Job, n: int) -> None:
        self._job = job
        self._n = n
        self._seen = 0

    def after_op(self, ctx, unit) -> None:
        self._seen += 1
        if self._seen >= self._n:
            self._job.request_cancel("tripped")


class TestCancelLayer:
    """Real-engine cancellation at an op boundary (no fakes)."""

    def test_pre_set_event_aborts_before_first_op(self, make_spec):
        plans = PlanCache()
        spec = make_spec(use_result_cache=False)
        job = Job(job_id="j", spec=spec, plan_entry=plans.get(spec))
        job.request_cancel("early")
        with pytest.raises(JobCancelled, match="early"):
            execute_job(job)

    def test_mid_run_trip_aborts_at_op_boundary(self, make_spec):
        plans = PlanCache()
        spec = make_spec(use_result_cache=False)
        job = Job(job_id="j", spec=spec, plan_entry=plans.get(spec))
        engine = ExecutionEngine(
            job.plan_entry.program,
            # Three units: the product prefix, a swap, a cluster.
            layers=[_TripAfter(job, 2), CancelLayer(job)],
            telemetry=Telemetry.spans_only(),
        )
        with pytest.raises(JobCancelled, match="tripped"):
            engine.run()
        assert job.cancel_reason == "tripped"


class TestConcurrencyParity:
    def test_concurrent_results_are_bit_exact_vs_serial(
        self, run_async, make_spec
    ):
        """12 jobs / 4 workers / 3 tenants vs the same specs run serially.

        The acceptance anchor: concurrent execution over the shared
        plan and gather caches must be bit-for-bit identical — state
        fingerprint, sample counts and full trace signature per job.
        """
        specs = [
            make_spec(
                tenant,
                qubits=qubits,
                depth=depth,
                local_qubits=qubits - 2,
                seed=seed,
                shots=16,
                use_result_cache=False,
            )
            for seed, (tenant, qubits, depth) in enumerate(
                [
                    ("alpha", 9, 8),
                    ("beta", 10, 8),
                    ("gamma", 11, 6),
                ]
                * 4
            )
        ]

        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=4))
            await service.start()
            try:
                jobs = [await service.submit(spec) for spec in specs]
                results = await asyncio.gather(
                    *(service.wait(job) for job in jobs)
                )
            finally:
                await service.shutdown()
            return jobs, results

        jobs, concurrent = run_async(scenario())
        assert all(j.status is JobStatus.COMPLETED for j in jobs)

        plans = PlanCache()
        for spec, result in zip(specs, concurrent):
            job = Job(job_id="serial", spec=spec, plan_entry=plans.get(spec))
            serial = execute_job(job)
            assert result.fingerprint == serial.fingerprint
            assert result.samples == serial.samples
            assert result.signature == serial.signature
            assert result.signature_digest == serial.signature_digest


class TestPipelinedJobs:
    def test_pipelined_job_matches_serial(self, run_async, make_spec):
        """spec.pipeline only changes execution timing, never the result
        — which is why it is excluded from plan_key/result_key."""

        async def scenario():
            service = SimulationService(ServiceConfig(max_workers=1))
            await service.start()
            try:
                serial = await service.submit(
                    make_spec(use_result_cache=False)
                )
                piped = await service.submit(
                    make_spec(use_result_cache=False, pipeline=True)
                )
                results = [
                    await service.wait(serial),
                    await service.wait(piped),
                ]
            finally:
                await service.shutdown()
            return results

        serial, piped = run_async(scenario())
        assert serial.status is JobStatus.COMPLETED
        assert piped.status is JobStatus.COMPLETED
        assert not piped.from_cache
        assert piped.fingerprint == serial.fingerprint
        assert piped.signature == serial.signature
        assert piped.signature_digest == serial.signature_digest

    def test_pipeline_shares_cache_keys(self, make_spec):
        serial = make_spec()
        piped = make_spec(pipeline=True)
        assert piped.plan_key() == serial.plan_key()
        assert piped.result_key() == serial.result_key()

    def test_pipeline_parsed_from_wire(self, make_spec):
        from repro.circuit import circuit_to_text
        from repro.service.server import _spec_from_wire

        wire = {
            "circuit": circuit_to_text(make_spec().circuit),
            "local_qubits": 7,
        }
        assert _spec_from_wire(wire).pipeline is False
        assert _spec_from_wire({**wire, "pipeline": True}).pipeline is True


class TestFingerprint:
    @pytest.mark.parametrize("qubits,local_qubits", [(10, 6), (13, 9)])
    def test_streamed_digest_equals_gathered(
        self, qubits, local_qubits, monkeypatch
    ):
        """Hashing the shards chunk by chunk gives the digest of the
        gathered state's bytes, whatever the layout (after swaps global
        qubits sit at low logical positions, so a chunk spans ranks) and
        whatever the chunk size."""
        import hashlib

        import numpy as np

        import repro.distributed.state as state_module
        from repro.circuit import generate_supremacy_circuit
        from repro.distributed import DistributedSimulator
        from repro.scheduling import SchedulerConfig, schedule_circuit
        from repro.service import state_fingerprint
        from repro.util.bits import extract_bits

        circuit = generate_supremacy_circuit(qubits, 12, seed=3)
        schedule = schedule_circuit(
            circuit, SchedulerConfig(local_qubits=local_qubits, kmax=4, seed=1)
        )
        assert schedule.num_swaps >= 1
        state = DistributedSimulator(qubits, local_qubits).run_schedule(
            schedule
        ).state
        # Oracle: scatter each rank's shard to the logical index of every
        # physical amplitude.
        expected = np.empty(1 << qubits, dtype=state.storage.dtype)
        offsets = np.arange(1 << local_qubits, dtype=np.int64)
        for r in range(state.num_ranks):
            logical = extract_bits(
                (r << local_qubits) | offsets, state.bit_of_qubit
            )
            expected[logical] = state.storage.get(r)
        want = hashlib.sha256(expected.tobytes()).hexdigest()
        for chunk_qubits in (1, 4, qubits + 3):
            monkeypatch.setattr(state_module, "_CHUNK_QUBITS", chunk_qubits)
            gathered = state.to_statevector()
            assert np.array_equal(gathered.data, expected)
            assert state_fingerprint(state) == want
            assert state_fingerprint(gathered) == want

    def test_job_fingerprint_is_gathered_state_digest(self, make_spec):
        """execute_job hashes the shards; the result is the digest of the
        state vector a bare engine run gathers."""
        import hashlib

        spec = make_spec(shots=8, use_result_cache=False)
        entry = PlanCache().get(spec)
        result = execute_job(Job(job_id="fp", spec=spec, plan_entry=entry))
        run = ExecutionEngine(entry.program).run()
        want = hashlib.sha256(
            run.state.to_statevector().data.tobytes()
        ).hexdigest()
        assert result.fingerprint == want
        assert sum(result.samples.values()) == 8
