"""Stage-major out-of-core execution: ``DiskShards`` defers a stage's
kernels and streams every shard through RAM once per stage.

The contract, pinned here: the deferral is invisible (bit-exact with the
eager in-memory backend under every layer stack, read-your-writes for
every reader), the I/O is one load and one store per shard per *stage*,
no writer in ``DistributedState`` bypasses ``sweep``, and failed or short
I/O and failing deferred kernels are loud and attributable.
"""

import errno
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.apply as kernels
from repro.circuit import generate_supremacy_circuit
from repro.distributed import (
    DiskShards,
    DistributedState,
    InMemoryShards,
    ShardIOError,
)
from repro.distributed.checkpoint import CheckpointManager
from repro.gates import Gate
from repro.plan import PlanConfig, plan_for
from repro.resilience import FaultPlan, FaultSpec
from repro.runtime import (
    CheckpointLayer,
    ExecutionEngine,
    FaultLayer,
    PipelineLayer,
    RetryPolicy,
    SanitizerLayer,
)
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.staticcheck import ShardSanitizer
from repro.telemetry import Telemetry
from repro.telemetry.spans import verify_nesting
from tests.conftest import sweep_ranks


def _schedule(n, l, kmax, seed, *, depth=10):
    circuit = generate_supremacy_circuit(n, depth, seed=seed)
    return schedule_circuit(
        circuit, SchedulerConfig(local_qubits=l, kmax=kmax, seed=seed + 1)
    )


def _disk(n, l, directory):
    return DiskShards(1 << (n - l), 1 << l, directory)


def _shards(state):
    return [np.array(state.storage.get(r)) for r in range(state.num_ranks)]


def _double(shard):
    shard *= 2


# ----------------------------------------------------------------------
# (a) differential: DiskShards vs InMemoryShards under every layer subset
# ----------------------------------------------------------------------
#: (n, l, kmax), every kernel narrower than a shard: a k == l kernel
#: rounds differently in the in-memory backend's whole-block sweep (one
#: GEMM over all shards) than shard by shard, on any backend.
SHAPES = [(7, 4, 2), (8, 5, 3), (8, 4, 3), (9, 5, 4)]


def _run(schedule, storage, workdir, *, fusion_kmax, depth, trace, sanitize,
         checkpoint_every, crash):
    """One engine run of *schedule* on *storage* under the layer subset."""
    factory = lambda: DistributedState.for_schedule(  # noqa: E731
        schedule, storage=storage
    )
    config = PlanConfig(fusion_kmax=fusion_kmax)
    telemetry = Telemetry.enabled() if trace else None
    layers = []
    if depth:
        layers.append(PipelineLayer(depth=depth))
    if checkpoint_every or crash:
        layers.append(
            CheckpointLayer(
                CheckpointManager(workdir / "ckpt"),
                every=checkpoint_every,
                resume=crash,
                state_factory=factory,
            )
        )
    policy = None
    if crash:
        # Crash before a kernel unit in the middle of a stage, once.
        units = ExecutionEngine(schedule, plan_config=config).units
        victims = [u for u in units[1:] if not u.is_swap]
        victim = victims[len(victims) // 2]
        layers.append(
            FaultLayer(
                FaultPlan(
                    seed=1,
                    faults=(FaultSpec(op_index=victim.op_index, kind="crash"),),
                )
            )
        )
        policy = RetryPolicy()
    if sanitize:
        layers.append(SanitizerLayer(ShardSanitizer()))
    result = ExecutionEngine(
        schedule,
        plan_config=config,
        layers=layers,
        policy=policy,
        state_factory=factory,
        telemetry=telemetry,
        sleep=lambda seconds: None,
    ).run()
    if crash:
        assert result.report.restarts == 1
    if trace:
        assert verify_nesting(telemetry.tracer.spans, tolerance=1e-9) == []
    signature = result.trace.signature() if trace else None
    return result.state, signature


class TestDiskEqualsMemory:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        shape=st.sampled_from(SHAPES),
        fusion_kmax=st.sampled_from([0, 2, 3, 4]),
        depth=st.sampled_from([0, 1, 2, 3]),
        trace=st.booleans(),
        sanitize=st.booleans(),
        checkpoint_every=st.sampled_from([0, 2, 5]),
        crash=st.booleans(),
    )
    def test_bit_exact_under_every_layer_subset(
        self, seed, shape, fusion_kmax, **layers
    ):
        n, l, kmax = shape
        fusion_kmax = min(fusion_kmax, l - 1)
        schedule = _schedule(n, l, kmax, seed)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "mem").mkdir()
            (tmp / "disk").mkdir()
            memory = InMemoryShards(1 << (n - l), 1 << l)
            want, want_signature = _run(
                schedule, memory, tmp / "mem", fusion_kmax=fusion_kmax, **layers
            )
            with _disk(n, l, tmp / "disk" / "shards") as disk:
                got, got_signature = _run(
                    schedule, disk, tmp / "disk", fusion_kmax=fusion_kmax,
                    **layers
                )
                assert got.layout == want.layout
                for mine, theirs in zip(_shards(got), _shards(want)):
                    assert np.array_equal(mine, theirs)
                assert got_signature == want_signature
                assert got.stats == want.stats
                # The pipeline layer's finalize frees the staging buffers.
                assert len(disk._buffers) == (0 if layers["depth"] else 1)


# ----------------------------------------------------------------------
# (b) the claim as exact counts
# ----------------------------------------------------------------------
class TestOneLoadOneStorePerStage:
    @pytest.mark.parametrize("depth", [0, 2])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_io_is_per_stage_not_per_op(self, tmp_path, seed, depth):
        n, l = 9, 5
        schedule = _schedule(n, l, 3, seed, depth=14)
        swaps, ranks = schedule.num_swaps, 1 << (n - l)
        assert swaps >= 1
        layers = [PipelineLayer(depth=depth)] if depth else []
        with _disk(n, l, tmp_path) as disk:
            engine = ExecutionEngine(schedule, layers=layers)
            assert len(engine.units) > swaps + 1
            engine.run(state=DistributedState.for_schedule(schedule, storage=disk))
            stats = disk.io_stats
            assert stats["flushes"] == swaps + 1
            assert stats["shard_stores"] == ranks * (swaps + 1)
            # The initial state is written, never read.
            assert stats["shard_loads"] == ranks * swaps
            exchanged = (
                stats["bytes_written"] - stats["shard_stores"] * disk.shard_bytes
            )
            assert 0 < exchanged <= swaps * ranks * disk.shard_bytes
            assert exchanged == (
                stats["bytes_read"] - stats["shard_loads"] * disk.shard_bytes
            )

    def test_flush_span_and_metrics(self, tmp_path):
        n, l = 8, 5
        schedule = _schedule(n, l, 3, 4)
        telemetry = Telemetry.enabled()
        with _disk(n, l, tmp_path) as disk:
            state = DistributedState.for_schedule(schedule, storage=disk)
            ExecutionEngine(schedule, telemetry=telemetry).run(state=state)
            stats = dict(disk.io_stats)
        spans = telemetry.tracer.spans
        assert verify_nesting(spans, tolerance=1e-9) == []
        flushes = [s for s in spans if s.name == "storage.stage_flush"]
        assert len(flushes) == stats["flushes"]
        assert sum(s.attrs["bytes_written"] for s in flushes) == (
            stats["shard_stores"] * disk.shard_bytes
        )
        assert all(s.attrs["files"] == 8 and s.attrs["kernels"] > 0 for s in flushes)
        snapshot = telemetry.metrics.snapshot()
        assert snapshot["storage.write.bytes"] >= sum(
            s.attrs["bytes_written"] for s in flushes
        )
        assert any(key.startswith("storage.flush.seconds") for key in snapshot)


    def test_pooled_flush_span_and_io(self, tmp_path, monkeypatch):
        """Forced onto the pool, a flush still loads and stores each file
        once per stage, and its span says how many threads it ran on."""
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        n, l = 9, 5
        schedule = _schedule(n, l, 3, 0, depth=14)
        ranks, stages = 1 << (n - l), schedule.num_swaps + 1
        telemetry = Telemetry.enabled()
        with _disk(n, l, tmp_path) as disk:
            ExecutionEngine(schedule, telemetry=telemetry).run(
                state=DistributedState.for_schedule(schedule, storage=disk)
            )
            stats = dict(disk.io_stats)
        threads = kernels.split_threads(ranks, 1)
        flushes = [
            s for s in telemetry.tracer.spans if s.name == "storage.stage_flush"
        ]
        assert [s.attrs["threads"] for s in flushes] == [threads] * stages
        assert stats["pooled_flushes"] == (stages if threads > 1 else 0)
        assert stats["flushes"] == stages
        assert stats["shard_stores"] == ranks * stages
        assert stats["shard_loads"] == ranks * (stages - 1)


# ----------------------------------------------------------------------
# (c) no writer bypasses sweep
# ----------------------------------------------------------------------
class NoGetShards(DiskShards):
    """A ``DiskShards`` whose ``get`` is off limits while ``armed``."""

    forbid_get = False

    def get(self, rank):
        if self.forbid_get:
            raise AssertionError(f"get({rank}) called from an op path")
        return super().get(rank)


class TestEveryWriterGoesThroughSweep:
    def test_full_schedule_never_calls_get(self, tmp_path):
        n, l = 9, 5
        schedule = _schedule(n, l, 4, 2, depth=14)
        assert schedule.num_swaps and any(
            {op.qubits[j] for j in op.gate.controls}
            & schedule.stages[op.stage].global_qubits
            for op in plan_for(schedule).ops if op.gate is not None
        )
        reference = ExecutionEngine(schedule).run().state.to_statevector()
        with NoGetShards(1 << (n - l), 1 << l, tmp_path) as disk:
            disk.forbid_get = True
            state = DistributedState.for_schedule(schedule, storage=disk)
            ExecutionEngine(schedule).run(state=state)
            disk.forbid_get = False
            # (allclose: the schedule has k == l kernels, see SHAPES.)
            assert state.to_statevector().allclose(reference, atol=1e-12)

    @pytest.mark.parametrize(
        "gate",
        [
            Gate("x", (7,)),  # monomial, global only: pure renumbering
            Gate("cnot", (7, 2)),  # monomial, global control, local target
            Gate("y", (6,)),  # monomial with phases on a global qubit
            Gate("cz", (6, 7)),  # diagonal, global only
            Gate("cz", (1, 7)),  # diagonal, mixed
            Gate("h", (2,)),  # dense local
            Gate("h", (6,)),  # dense global: staging swaps + exchange
        ],
        ids=lambda g: f"{g.name}{g.qubits}",
    )
    def test_each_gate_path(self, tmp_path, gate):
        n, l = 8, 5
        want = DistributedState(n, l, init="plus")
        want.apply_gate(Gate("t", (3,)))
        want.apply_gate(gate, auto_swap=True)
        with NoGetShards(1 << (n - l), 1 << l, tmp_path) as disk:
            disk.forbid_get = True
            got = DistributedState(n, l, storage=disk, init="plus")
            got.apply_gate(Gate("t", (3,)))
            got.apply_gate(gate, auto_swap=True)
            got.flush()
            disk.forbid_get = False
            assert got.layout == want.layout
            for mine, theirs in zip(_shards(got), _shards(want)):
                assert np.array_equal(mine, theirs)


# ----------------------------------------------------------------------
# (d) read-your-writes
# ----------------------------------------------------------------------
class TestReadYourWrites:
    N, L = 8, 5

    def _pair(self, tmp_path):
        """The same ops applied eagerly and left pending on disk,
        a relabel (monomial gate on a global qubit) among them."""
        states = (
            DistributedState(self.N, self.L, init="plus"),
            DistributedState(
                self.N, self.L, init="plus",
                storage=_disk(self.N, self.L, tmp_path / "shards"),
            ),
        )
        for state in states:
            state.apply_gate(Gate("h", (1,)))
            state.apply_gate(Gate("t", (6,)))
            state.apply_gate(Gate("x", (7,)))
            state.apply_gate(Gate("cnot", (6, 0)))
        assert states[1].storage._pending
        assert states[1].storage.io_stats["flushes"] == 0
        return states

    @pytest.mark.parametrize(
        "read",
        [
            lambda s: np.array(s.storage.get(5)),
            lambda s: s.norm(),
            lambda s: s.shard_checksums(),
            lambda s: s.to_statevector().data,
        ],
        ids=["get", "norm", "shard_checksums", "to_statevector"],
    )
    def test_readers_see_every_enqueued_op(self, tmp_path, read):
        eager, deferred = self._pair(tmp_path)
        assert np.array_equal(read(deferred), read(eager))
        assert not deferred.storage._pending
        deferred.storage.close()

    def test_checkpoint_sees_every_enqueued_op(self, tmp_path):
        eager, deferred = self._pair(tmp_path)
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(deferred, next_op_index=4)
        restored, next_op = manager.load()
        assert next_op == 4
        assert restored.layout == eager.layout
        assert np.array_equal(
            restored.to_statevector().data, eager.to_statevector().data
        )
        deferred.storage.close()

    def test_close_runs_pending_and_reopen_finds_it(self, tmp_path):
        eager, deferred = self._pair(tmp_path)
        slot = deferred.storage._file_of_rank[2]
        deferred.storage.close()
        reopened = _disk(self.N, self.L, tmp_path / "shards")
        assert np.array_equal(reopened.get(slot), eager.storage.get(2))
        reopened.close()

    def test_set_replaces_what_was_pending(self, tmp_path):
        with DiskShards(4, 8, tmp_path) as disk:
            sweep_ranks(disk, lambda r: _double)
            data = np.arange(8, dtype=np.complex128)
            disk.set(1, data)
            assert np.array_equal(disk.get(1), data)

    def test_set_after_failed_attempt_does_not_replay(self, tmp_path):
        """A restart restores shards with ``set``: kernels left pending by
        the failed attempt must not run on the restored data."""

        def boom(shard):
            raise RuntimeError("kernel failure")

        with DiskShards(4, 8, tmp_path) as disk:
            sweep_ranks(disk, lambda r: boom if r == 2 else _double)
            with pytest.raises(RuntimeError):
                disk.flush()
            assert sorted(disk._pending) == [2, 3]
            restored = np.arange(8, dtype=np.complex128)
            for rank in range(4):
                disk.set(rank, restored + rank)
            assert not disk._pending
            for rank in range(4):
                assert np.array_equal(disk.get(rank), restored + rank)

    def test_fresh_initial_state_drops_stale_pending(self, tmp_path):
        with DiskShards(4, 8, tmp_path) as disk:
            sweep_ranks(disk, lambda r: _double)
            state = DistributedState(5, 3, storage=disk, init="plus")
            assert all(len(p) == 1 for p in disk._pending.values())
            assert state.norm() == pytest.approx(1.0)
            assert disk.io_stats["shard_loads"] == 0

    def test_writes_through_get_are_seen_by_later_sweeps(self, tmp_path):
        with DiskShards(2, 8, tmp_path) as disk:
            disk.get(1)[:] = np.arange(8)
            sweep_ranks(disk, lambda r: _double)
            assert np.array_equal(disk.get(1), 2 * np.arange(8))
            assert np.array_equal(disk.get(0), np.zeros(8))


# ----------------------------------------------------------------------
# failed and short I/O, failing deferred kernels
# ----------------------------------------------------------------------
class TestLoudAttributableFailures:
    def test_truncated_shard_file(self, tmp_path):
        disk = DiskShards(4, 8, tmp_path)
        for rank in range(4):
            disk.set(rank, np.ones(8, dtype=np.complex128))
        os.truncate(tmp_path / "shard_000002.dat", 40)
        sweep_ranks(disk, lambda r: _double)
        with pytest.raises(ShardIOError) as excinfo:
            disk.flush()
        message = str(excinfo.value)
        assert "rank 2" in message and "shard_000002.dat" in message
        assert "short preadv at offset 0: expected 128 bytes, got 40" in message
        # Files 0 and 1 went through; 2 and 3 keep their pending kernels.
        assert sorted(disk._pending) == [2, 3]
        raw = np.fromfile(tmp_path / "shard_000001.dat", dtype=np.complex128)
        assert np.array_equal(raw, np.full(8, 2))

    def test_unlinked_shard_file(self, tmp_path):
        disk = DiskShards(4, 8, tmp_path)
        (tmp_path / "shard_000001.dat").unlink()
        sweep_ranks(disk, lambda r: _double)
        with pytest.raises(ShardIOError) as excinfo:
            disk.flush()
        assert isinstance(excinfo.value.__cause__, FileNotFoundError)
        assert "rank 1" in str(excinfo.value)
        assert "shard_000001.dat" in str(excinfo.value)
        assert len(disk._pending) == 4

    def test_short_exchange_read(self, tmp_path):
        disk = DiskShards(4, 8, tmp_path)
        os.truncate(tmp_path / "shard_000003.dat", 16)
        with pytest.raises(ShardIOError, match="rank 3"):
            disk.exchange_blocks(2)

    @pytest.mark.parametrize("depth", [0, 2])
    def test_kernel_raising_on_rank_3_of_8(self, tmp_path, depth):
        def kernel_of_rank(rank):
            def kernel(shard):
                if rank == 3:
                    raise FloatingPointError("bad amplitude")
                shard += 1

            return kernel

        disk = DiskShards(8, 8, tmp_path)
        with ThreadPoolExecutor(max_workers=1) as pool:
            if depth:
                disk.arm_pipeline(pool, depth=depth)
            sweep_ranks(disk, lambda r: _double, label="first")
            sweep_ranks(disk, kernel_of_rank, label="dense k=2 bits=[0, 1]")
            with pytest.raises(FloatingPointError) as excinfo:
                disk.flush()
            disk.disarm_pipeline()
        (note,) = excinfo.value.__notes__
        assert "'dense k=2 bits=[0, 1]'" in note
        assert "rank 3" in note and "shard_000003.dat" in note
        # No half-applied shard was written: 0..2 are done, 3..7 pending
        # in full and untouched on disk.
        assert sorted(disk._pending) == [3, 4, 5, 6, 7]
        assert all(len(disk._pending[f]) == 2 for f in disk._pending)
        raw = np.fromfile(tmp_path / "shard_000003.dat", dtype=np.complex128)
        assert np.array_equal(raw, np.zeros(8))
        assert np.array_equal(
            np.fromfile(tmp_path / "shard_000002.dat", dtype=np.complex128),
            np.ones(8),
        )

    @pytest.mark.parametrize("flush", ["serial", "armed", "pooled"])
    @pytest.mark.parametrize("failure", ["ENOSPC", "zero"])
    def test_failed_store_names_rank_file_and_offset(
        self, tmp_path, monkeypatch, flush, failure
    ):
        """A ``pwrite`` of file 2 that raises ENOSPC, or writes half the
        shard and then nothing, fails the flush with the rank, file and
        offset; the file keeps its whole pending list."""
        disk = DiskShards(4, 8, tmp_path)
        for rank in range(4):
            disk.set(rank, np.full(8, rank + 1, dtype=np.complex128))
        sweep_ranks(disk, lambda r: _double, label="first")
        sweep_ranks(disk, lambda r: _double, label="second")
        real, victim = os.pwrite, disk._fd(2)

        def pwrite(fd, data, offset):
            if fd != victim:
                return real(fd, data, offset)
            if failure == "ENOSPC":
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real(fd, data[:64], offset) if offset == 0 else 0

        monkeypatch.setattr(os, "pwrite", pwrite)
        if flush == "pooled":
            monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        with ThreadPoolExecutor(max_workers=1) as pool:
            if flush == "armed":
                disk.arm_pipeline(pool, depth=2)
            with pytest.raises(ShardIOError) as excinfo:
                disk.flush()
            disk.disarm_pipeline()
        message = str(excinfo.value)
        assert "rank 2" in message and "shard_000002.dat" in message
        if failure == "ENOSPC":
            assert "pwrite at offset 0" in message
            assert excinfo.value.__cause__.errno == errno.ENOSPC
        else:
            assert "short pwrite at offset 0: expected 128 bytes, got 64" in message
        assert [label for _, label, _ in disk._pending[2]] == ["first", "second"]
        monkeypatch.setattr(os, "pwrite", real)
        disk._pending.clear()
        disk.close()

    def test_engine_failure_names_the_op(self, tmp_path):
        """End to end: a deferred kernel failing at the stage flush still
        points at its op and rank."""
        n, l = 8, 5
        with _disk(n, l, tmp_path) as disk:
            state = DistributedState(n, l, storage=disk, init="plus")
            state.apply_gate(Gate("h", (0,)))
            bad = np.full((2, 2), np.nan)[:1]  # wrong shape: kernel raises
            sweep_ranks(
                state.storage,
                lambda r: (lambda shard: shard.reshape(bad.shape)),
                label="broken k=1 bits=[0]",
            )
            with pytest.raises(ValueError) as excinfo:
                state.norm()
            assert "broken k=1 bits=[0]" in excinfo.value.__notes__[0]
            disk._pending.clear()


class TestContextManagers:
    def test_out_of_core_state_vector_closes(self, tmp_path):
        from repro.statevector.outofcore import OutOfCoreStateVector

        with OutOfCoreStateVector(6, 4, tmp_path) as state:
            state.apply_gate(Gate("h", (0,)))
            assert state.storage._pending
        assert not state.storage._pending
        assert not state.storage._fds
        raw = np.fromfile(tmp_path / "shard_000000.dat", dtype=np.complex128)
        assert raw[0] == pytest.approx(2 ** -0.5)

    def test_sparse_creation_and_adoption(self, tmp_path):
        first = DiskShards(2, 1 << 12, tmp_path)
        path = tmp_path / "shard_000000.dat"
        assert path.stat().st_size == first.shard_bytes
        assert path.stat().st_blocks * 512 < first.shard_bytes  # sparse
        first.set(1, np.full(1 << 12, 3, dtype=np.complex128))
        first.close()
        adopted = DistributedState(
            13, 12, storage=DiskShards(2, 1 << 12, tmp_path), init=None
        )
        assert adopted.storage.get(1)[7] == 3
        adopted.storage.close()
        # A file of the wrong size is recreated as zeros.
        os.truncate(path, 100)
        again = DiskShards(2, 1 << 12, tmp_path)
        assert path.stat().st_size == again.shard_bytes
        assert not np.any(again.get(0))
        again.close()
