"""Tests for checkpoint/restart of distributed runs."""

import numpy as np
import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DiskShards, DistributedSimulator, DistributedState
from repro.distributed.checkpoint import CheckpointManager
from repro.distributed.storage import ShardStorage
from repro.plan import plan_for
from repro.resilience import FaultPlan, FaultSpec, RankCrashError, swap_op_indices
from repro.runtime import (
    CheckpointLayer,
    ExecutionEngine,
    FaultLayer,
    RuntimeLayer,
)
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.statevector import Simulator

N, L = 10, 7


class Killed(RuntimeError):
    """The injected node failure."""


class KillBefore(RuntimeLayer):
    """Raises :class:`Killed` before the engine unit of index *unit_index*."""

    def __init__(self, unit_index):
        self.unit_index = unit_index

    def before_op(self, ctx, unit):
        if unit.index == self.unit_index:
            raise Killed(f"killed before op {unit.op_index}")


@pytest.fixture
def workload():
    circ = generate_supremacy_circuit(N, 10, seed=9)
    sched = schedule_circuit(circ, SchedulerConfig(local_qubits=L, kmax=4, seed=2))
    ref = Simulator(N).run(circ).state
    return sched, ref


def run_checkpointed(mgr, sched, *, every=8, kill_before=None, resume=False):
    """Run *sched*, checkpointing into *mgr* every *every* ops.

    ``kill_before`` raises :class:`Killed` before the engine unit of that
    index; ``resume`` continues from the checkpoint in *mgr*.
    """
    layers = [CheckpointLayer(mgr, every=every, resume=resume)]
    if kill_before is not None:
        layers.append(KillBefore(kill_before))
    return DistributedSimulator(N, L).run_schedule(sched, layers=layers).state


def units_of(sched):
    """The engine's units: one per plan op, but one for the product
    prefix (here all of the first stage's ops)."""
    return ExecutionEngine(sched).units


def first_op_of(sched, unit_index):
    """Schedule-op index at which engine unit *unit_index* starts."""
    return units_of(sched)[unit_index].op_index


class TestCheckpointManager:
    def test_run_without_failure(self, tmp_path, workload):
        sched, ref = workload
        mgr = CheckpointManager(tmp_path)
        state = run_checkpointed(mgr, sched, every=4)
        assert state.to_statevector().allclose(ref, atol=1e-9)
        assert mgr.has_checkpoint()

    def test_failure_then_resume(self, tmp_path, workload):
        """The headline property: kill mid-run, resume, identical result."""
        sched, ref = workload
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(Killed):
            run_checkpointed(mgr, sched, every=3, kill_before=3)
        state = run_checkpointed(mgr, sched, every=3, resume=True)
        assert state.to_statevector().allclose(ref, atol=1e-9)

    def test_resume_restores_statistics(self, tmp_path, workload):
        sched, _ = workload
        mgr = CheckpointManager(tmp_path)
        clean = run_checkpointed(
            CheckpointManager(tmp_path / "clean"), sched, every=0
        )
        with pytest.raises(Killed):
            run_checkpointed(mgr, sched, every=2, kill_before=3)
        resumed = run_checkpointed(mgr, sched, resume=True)
        assert resumed.stats.alltoall_steps == clean.stats.alltoall_steps
        assert resumed.kernel_cost.total_calls == clean.kernel_cost.total_calls
        assert resumed.kernel_cost.total_flops == clean.kernel_cost.total_flops

    def test_checkpoint_roundtrip_preserves_layout(self, tmp_path, workload):
        sched, _ = workload
        mgr = CheckpointManager(tmp_path)
        # Fail right after the first swap so the layout is non-trivial.
        swap_unit = next(
            i for i, unit in enumerate(units_of(sched)) if unit.is_swap
        )
        with pytest.raises(Killed):
            run_checkpointed(mgr, sched, every=1, kill_before=swap_unit + 1)
        state, next_op = mgr.load()
        assert sorted(state.bit_of_qubit) == list(range(N))
        assert next_op == first_op_of(sched, swap_unit + 1)

    def test_load_without_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(tmp_path).load()

    def test_resume_from_every_op_index(self, tmp_path, workload):
        """Mid-program coverage: kill before *every* plan unit, resume,
        and demand the final state is bit-exact — not merely close —
        since the replay runs identical kernels on identical
        checkpointed amplitudes."""
        sched, _ = workload
        reference = DistributedSimulator(N, L).run_schedule(sched).state
        ref_data = reference.to_statevector().data
        for stop in range(len(units_of(sched))):
            mgr = CheckpointManager(tmp_path / f"stop{stop}")
            with pytest.raises(Killed):
                run_checkpointed(mgr, sched, every=1, kill_before=stop)
            if stop == 0:
                assert not mgr.has_checkpoint()
            else:
                _, next_op = mgr.load()
                assert next_op == first_op_of(sched, stop)
            resumed = run_checkpointed(mgr, sched, every=1, resume=True)
            assert np.array_equal(
                resumed.to_statevector().data, ref_data
            ), f"resume before unit {stop} not bit-exact"

    def test_multiple_failures(self, tmp_path, workload):
        """Crash-loop resilience: fail, resume-and-fail-again, finish."""
        sched, ref = workload
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(Killed):
            run_checkpointed(mgr, sched, every=2, kill_before=1)
        _, first_stop = mgr.load()
        assert first_stop < len(list(sched.operations()))
        # Second crash, two units further along.
        with pytest.raises(Killed):
            run_checkpointed(mgr, sched, every=2, kill_before=3, resume=True)
        _, second_stop = mgr.load()
        assert second_stop > first_stop
        final = run_checkpointed(mgr, sched, every=2, resume=True)
        assert final.to_statevector().allclose(ref, atol=1e-9)

    def test_folded_checkpoint_index_fails_loudly(self, tmp_path, workload):
        """A checkpoint at an op the plan folds into a fused unit cannot
        be resumed; the error names the index."""
        sched, _ = workload
        fused = next(op for op in plan_for(sched).ops if op.num_sources > 1)
        folded = fused.sources[1].op_index
        mgr = CheckpointManager(tmp_path)
        mgr.save(DistributedState.for_schedule(sched), folded)
        with pytest.raises(ValueError, match=f"op index {folded} falls inside"):
            run_checkpointed(mgr, sched, resume=True)


@pytest.mark.parametrize("backend", ["memory", "disk"])
def test_crashed_plan_run_resumes_in_fresh_engine(tmp_path, workload, backend):
    """A plan run crashes mid-schedule; a fresh engine resumes it from the
    checkpoint and ends byte for byte on the uninterrupted run_schedule."""
    sched, _ = workload
    uninterrupted = DistributedSimulator(N, L).run_schedule(sched).state
    stores = []

    def fresh_state():
        storage = None
        if backend == "disk":
            storage = DiskShards(
                1 << (N - L), 1 << L, tmp_path / f"shards{len(stores)}"
            )
            stores.append(storage)
        return DistributedState.for_schedule(sched, storage=storage)

    mgr = CheckpointManager(tmp_path / "ckpt")
    crash = FaultPlan(
        faults=(FaultSpec(op_index=swap_op_indices(sched)[-1], kind="crash"),)
    )
    with pytest.raises(RankCrashError):
        ExecutionEngine(
            sched,
            layers=[CheckpointLayer(mgr, every=2), FaultLayer(crash)],
            state_factory=fresh_state,
        ).run()
    assert mgr.has_checkpoint()
    _, next_op = mgr.load()
    assert 0 < next_op < len(list(sched.operations()))

    resumed = ExecutionEngine(
        sched,
        layers=[
            CheckpointLayer(
                mgr, every=2, resume=True, state_factory=fresh_state
            )
        ],
        state_factory=fresh_state,
    ).run().state
    try:
        if backend == "disk":
            assert resumed.storage is stores[-1]
        assert np.array_equal(
            resumed.to_statevector().data,
            uninterrupted.to_statevector().data,
        )
        assert resumed.stats.bytes_on_network == (
            uninterrupted.stats.bytes_on_network
        )
    finally:
        for storage in stores:
            storage.close()


def test_load_runs_no_init_fill(tmp_path, monkeypatch):
    """``load`` sets every shard of its default vessel, so that vessel
    has no init to fill: a resume writes the state once, and still ends
    on the uninterrupted run's bytes."""
    n, l = 12, 8
    circ = generate_supremacy_circuit(n, 12, seed=4)
    sched = schedule_circuit(circ, SchedulerConfig(local_qubits=l, kmax=4, seed=5))
    uninterrupted = DistributedSimulator(n, l).run_schedule(sched).state
    fills = []
    real = ShardStorage._materialize

    def spy(self, *, overwrites=False):
        if self.pending and not overwrites:
            fills.append(self.fresh_init)
        return real(self, overwrites=overwrites)

    mgr = CheckpointManager(tmp_path)
    swap_unit = next(u for u in ExecutionEngine(sched).units if u.is_swap)
    with pytest.raises(Killed):
        DistributedSimulator(n, l).run_schedule(
            sched,
            layers=[CheckpointLayer(mgr, every=1), KillBefore(swap_unit.index + 1)],
        )
    monkeypatch.setattr(ShardStorage, "_materialize", spy)
    state, _ = mgr.load()
    assert fills == [] and state.fresh_init is None
    resumed = DistributedSimulator(n, l).run_schedule(
        sched, layers=[CheckpointLayer(mgr, every=0, resume=True)]
    ).state
    assert fills == []
    assert np.array_equal(
        resumed.to_statevector().data, uninterrupted.to_statevector().data
    )
