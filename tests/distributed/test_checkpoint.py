"""Tests for checkpoint/restart of distributed runs."""

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed.checkpoint import CheckpointManager
from repro.runtime import CheckpointLayer, ExecutionEngine
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.statevector import Simulator


@pytest.fixture
def workload():
    n, l = 10, 7
    circ = generate_supremacy_circuit(n, 10, seed=9)
    sched = schedule_circuit(circ, SchedulerConfig(local_qubits=l, kmax=4, seed=2))
    ref = Simulator(n).run(circ).state
    return n, l, sched, ref


def run_checkpointed(
    mgr, sched, *, every=8, fail_after=None, state=None, start_index=0
):
    """Execute *sched*, checkpointing into *mgr* every *every* ops;
    ``fail_after`` aborts (RuntimeError) after that many ops of the pass."""
    layer = CheckpointLayer(mgr, every=every, fail_after=fail_after)
    engine = ExecutionEngine(sched, use_plan=False, layers=[layer])  # lint: allow-engine-direct
    return engine.run(state=state, start_index=start_index).state


class TestCheckpointManager:
    def test_run_without_failure(self, tmp_path, workload):
        n, l, sched, ref = workload
        mgr = CheckpointManager(tmp_path)
        state = run_checkpointed(mgr, sched, every=4)
        assert state.to_statevector().allclose(ref, atol=1e-9)
        assert mgr.has_checkpoint()

    def test_failure_then_resume(self, tmp_path, workload):
        """The headline property: kill mid-run, resume, identical result."""
        n, l, sched, ref = workload
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_checkpointed(mgr, sched, every=3, fail_after=5)
        state = mgr.resume(sched, every=3)
        assert state.to_statevector().allclose(ref, atol=1e-9)

    def test_resume_restores_statistics(self, tmp_path, workload):
        n, l, sched, ref = workload
        mgr = CheckpointManager(tmp_path)
        clean = run_checkpointed(
            CheckpointManager(tmp_path / "clean"), sched, every=0
        )
        with pytest.raises(RuntimeError):
            run_checkpointed(mgr, sched, every=2, fail_after=4)
        resumed = mgr.resume(sched)
        assert resumed.stats.alltoall_steps == clean.stats.alltoall_steps
        assert resumed.kernel_cost.total_calls == clean.kernel_cost.total_calls
        assert resumed.kernel_cost.total_flops == clean.kernel_cost.total_flops

    def test_checkpoint_roundtrip_preserves_layout(self, tmp_path, workload):
        n, l, sched, _ = workload
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(RuntimeError):
            # Fail right after the first swap so the layout is non-trivial.
            run_checkpointed(mgr, sched, every=1, fail_after=3)
        state, next_op = mgr.load()
        assert sorted(state.bit_of_qubit) == list(range(n))
        assert next_op == 3

    def test_load_without_checkpoint(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CheckpointManager(tmp_path).load()

    def test_resume_from_every_op_index(self, tmp_path, workload):
        """Mid-program coverage: kill before *every* op, resume, and
        demand the final state is bit-exact — not merely close — since
        the replay runs identical kernels on identical checkpointed
        amplitudes."""
        import numpy as np

        n, l, sched, _ = workload
        num_ops = len(list(sched.operations()))
        reference = run_checkpointed(
            CheckpointManager(tmp_path / "ref"), sched, every=0
        )
        ref_data = reference.to_statevector().data
        for stop in range(num_ops):
            mgr = CheckpointManager(tmp_path / f"stop{stop}")
            with pytest.raises(RuntimeError, match="injected failure"):
                run_checkpointed(mgr, sched, every=1, fail_after=stop)
            _, next_op = mgr.load()
            assert next_op == stop
            resumed = mgr.resume(sched, every=1)
            assert np.array_equal(
                resumed.to_statevector().data, ref_data
            ), f"resume from op {stop} not bit-exact"

    def test_multiple_failures(self, tmp_path, workload):
        """Crash-loop resilience: fail, resume-and-fail-again, finish."""
        n, l, sched, ref = workload
        mgr = CheckpointManager(tmp_path)
        with pytest.raises(RuntimeError):
            run_checkpointed(mgr, sched, every=2, fail_after=2)
        state, first_stop = mgr.load()
        assert first_stop < len(list(sched.operations()))
        # Second crash, two ops further along.
        with pytest.raises(RuntimeError):
            run_checkpointed(
                mgr, sched, every=2, fail_after=2,
                state=state, start_index=first_stop,
            )
        state2, second_stop = mgr.load()
        assert second_stop > first_stop
        final = mgr.resume(sched, every=2)
        assert final.to_statevector().allclose(ref, atol=1e-9)
