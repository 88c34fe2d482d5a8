"""Pipelined execution: composition, parity, metrics, cleanup.

The :class:`~repro.runtime.PipelineLayer` only moves storage I/O in time
— it never changes a byte of state, a span, or a ``GATHER_CACHE``
counter.  These tests pin that contract against every
layer combination and both storage backends.
"""

import itertools
import threading

import numpy as np
import pytest

from repro.distributed.state import DistributedState
from repro.kernels.tables import GATHER_CACHE
from repro.plan import PlanConfig
from repro.runtime import (
    CheckpointLayer,
    ExecutionEngine,
    PipelineLayer,
    SanitizerLayer,
)
from repro.statevector.outofcore import OutOfCoreStateVector
from repro.staticcheck import ShardSanitizer
from repro.telemetry import FlightRecorder, Telemetry

from tests.runtime.conftest import N, L, small_schedule


def _no_pipeline_threads():
    return not any(
        t.name.startswith("repro-pipeline") for t in threading.enumerate()
    )


def _run_piped(
    schedule,
    ckpt_dir,
    *,
    trace,
    sanitize,
    checkpoint,
    state=None,
    depth=2,
    plan_config=None,
):
    """One engine run with a pipeline layer plus the requested subset."""
    layers = []
    telemetry = Telemetry.enabled() if trace else None
    layers.append(PipelineLayer(depth=depth))
    if checkpoint:
        layers.append(CheckpointLayer(ckpt_dir, every=3))
    if sanitize:
        layers.append(SanitizerLayer(ShardSanitizer()))
    engine = ExecutionEngine(
        schedule, plan_config=plan_config, layers=layers, telemetry=telemetry
    )
    return engine.run(state=state)


class TestPipelineComposition:
    """ISSUE acceptance: --pipeline composes with every other layer."""

    @pytest.mark.parametrize(
        "refuse,trace,sanitize,checkpoint",
        list(itertools.product([False, True], repeat=4)),
    )
    def test_matches_reference(
        self, tmp_path, schedule, reference, refuse, trace, sanitize, checkpoint
    ):
        # Both plan configurations: refusion on (the default) and off.
        config = None if refuse else PlanConfig(fusion_kmax=0)
        result = _run_piped(
            schedule,
            tmp_path / "ckpt",
            trace=trace,
            sanitize=sanitize,
            checkpoint=checkpoint,
            plan_config=config,
        )
        amps = result.state.to_statevector().data
        bare = ExecutionEngine(schedule, plan_config=config).run()
        assert np.array_equal(amps, bare.state.to_statevector().data)
        if refuse:
            assert np.array_equal(amps, reference)
        assert _no_pipeline_threads()

    def test_signature_parity_with_serial(self, tmp_path, schedule):
        serial = ExecutionEngine(schedule, telemetry=Telemetry.enabled()).run()
        piped = _run_piped(
            schedule,
            tmp_path / "ckpt",
            trace=True,
            sanitize=False,
            checkpoint=False,
        )
        assert piped.trace.signature() == serial.trace.signature()

    def test_plan_cache_counters_unchanged(self, schedule):
        """A pipelined run reports exactly the serial hit/miss stream."""

        def counters(pipelined):
            GATHER_CACHE.clear()
            layers = [PipelineLayer(depth=3)] if pipelined else []
            ExecutionEngine(schedule, layers=layers).run()
            stats = GATHER_CACHE.stats()
            return stats["hits"], stats["misses"], stats["bytes_saved"]

        assert counters(False) == counters(True)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            PipelineLayer(depth=0)

    def test_metrics_exposed(self, tmp_path, schedule):
        telemetry = Telemetry.enabled()
        layers = [PipelineLayer(depth=2)]
        ExecutionEngine(schedule, layers=layers, telemetry=telemetry).run()
        snapshot = telemetry.metrics.snapshot()
        assert snapshot.get("pipeline.depth") == 2

    def test_flight_recorder_events(self, tmp_path, schedule):
        recorder = FlightRecorder(capacity=512)
        layer = PipelineLayer(depth=2, recorder=recorder, trace_id="tid-1")
        ExecutionEngine(schedule, layers=[layer]).run()
        events = recorder.snapshot(kinds=("pipeline",))
        assert events
        names = {e["event"] for e in events}
        assert "armed" in names
        assert "finalized" in names
        assert all(e["trace_id"] == "tid-1" for e in events)

    def test_no_thread_leak_after_failure(self, schedule):
        class Boom(Exception):
            pass

        from repro.runtime.layers import RuntimeLayer

        class FailOnce(RuntimeLayer):
            def before_op(self, ctx, unit):
                if unit.index == 2:
                    raise Boom()

        layers = [PipelineLayer(depth=2), FailOnce()]
        with pytest.raises(Boom):
            ExecutionEngine(schedule, layers=layers).run()
        assert _no_pipeline_threads()


class TestOutOfCoreParity:
    """Satellite: disk-backed vs in-memory, with and without pipeline,
    produce bit-identical states and trace signatures across 10 seeds."""

    @pytest.mark.parametrize("seed", range(10))
    def test_seed_parity(self, tmp_path, seed):
        schedule = small_schedule(seed)

        def run(disk, pipelined, tag):
            state = None
            if disk:
                state = OutOfCoreStateVector(
                    N,
                    L,
                    tmp_path / tag,
                    init=getattr(schedule, "initial_state", "zero"),
                    initial_global_qubits=schedule.initial_global_qubits
                    or None,
                )
            layers = [PipelineLayer(depth=2)] if pipelined else []
            result = ExecutionEngine(
                schedule, layers=layers, telemetry=Telemetry.enabled()
            ).run(state=state)
            amps = result.state.to_statevector().data.copy()
            signature = result.trace.signature()
            if disk:
                state.close()
            return amps, signature

        base_amps, base_sig = run(False, False, "ref")
        for disk, pipelined in [(False, True), (True, False), (True, True)]:
            amps, signature = run(disk, pipelined, f"d{disk}-p{pipelined}")
            assert np.array_equal(amps, base_amps), (seed, disk, pipelined)
            assert signature == base_sig, (seed, disk, pipelined)
        assert _no_pipeline_threads()


class TestPipelineDiskOverlap:
    def test_disk_runs_use_background_io(self, tmp_path, schedule):
        state = OutOfCoreStateVector(
            N,
            L,
            tmp_path / "shards",
            init=getattr(schedule, "initial_state", "zero"),
            initial_global_qubits=schedule.initial_global_qubits or None,
        )
        layer = PipelineLayer(depth=2)
        ExecutionEngine(schedule, layers=[layer]).run(state=state)
        io_stats = state.storage.io_stats
        assert io_stats["read_aheads"] > 0
        assert io_stats["exchange_prefetched_pairs"] > 0
        # on_run_end drained: every file written was fsynced, synchronously.
        assert io_stats["sync_flushes"] >= state.num_ranks
        assert io_stats["async_syncs"] == 0
        stats = layer.stats()
        assert stats["stores_behind"] == io_stats["shard_stores"]
        assert stats["load_stall_seconds"] >= 0.0
        # Disarmed by finalize: serial mode again, staging buffers freed.
        assert state.storage._pipeline is None
        assert not state.storage._buffers
        state.close()
        assert _no_pipeline_threads()

    def test_load_stalls_become_ring_events(self, tmp_path, schedule):
        """A read-ahead the main thread has to wait for is recorded."""
        import time

        from repro.distributed import DiskShards

        class SlowLoads(DiskShards):
            def _load(self, file_index, buffer):
                time.sleep(0.002)
                return super()._load(file_index, buffer)

        storage = SlowLoads(1 << (N - L), 1 << L, tmp_path / "shards")
        recorder = FlightRecorder(capacity=512)
        layer = PipelineLayer(depth=2, recorder=recorder)
        with storage:
            ExecutionEngine(
                schedule,
                layers=[layer],
                state_factory=lambda: DistributedState.for_schedule(
                    schedule, storage=storage
                ),
            ).run()
        stalls = [
            e for e in recorder.snapshot(kinds=("pipeline",))
            if e["event"] == "load_stall"
        ]
        assert stalls
        assert layer.stats()["load_stall_seconds"] == pytest.approx(
            sum(e["seconds"] for e in stalls)
        )
        assert _no_pipeline_threads()
