"""Cross-backend consistency: every execution path, same amplitudes.

One schedule, five executions: single-node reference, in-process
distributed (RAM shards), in-process distributed (disk shards, flushed
on this thread and on the sweep pool), and the plan without refusion,
which leaves the specialized diagonals the default plan absorbs as
sweeps of their own.  All must agree bit-for-bit (up to fp addition
order).
"""

import numpy as np
import pytest

import repro.kernels.apply as kernels
from repro import (
    DiskShards,
    DistributedSimulator,
    SchedulerConfig,
    Simulator,
    generate_supremacy_circuit,
    schedule_circuit,
)
from repro.plan import PlanConfig, plan_for


@pytest.fixture(scope="module")
def workload():
    n, depth, l = 12, 12, 8
    circuit = generate_supremacy_circuit(n, depth, seed=13)
    reference = Simulator(n).run(circuit).state
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=l, kmax=4, seed=5)
    )
    return n, l, circuit, reference, schedule


class TestCrossBackend:
    def test_in_process_ram(self, workload):
        n, l, _, reference, schedule = workload
        run = DistributedSimulator(n, l).run_schedule(schedule)
        assert run.state.to_statevector().allclose(reference, atol=1e-9)

    def test_in_process_disk(self, workload, tmp_path):
        n, l, _, reference, schedule = workload
        storage = DiskShards(1 << (n - l), 1 << l, tmp_path)
        run = DistributedSimulator(n, l, storage=storage).run_schedule(schedule)
        assert run.state.to_statevector().allclose(reference, atol=1e-9)

    def test_in_process_disk_pooled_flush(self, workload, tmp_path, monkeypatch):
        n, l, _, reference, schedule = workload
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        with DiskShards(1 << (n - l), 1 << l, tmp_path) as storage:
            run = DistributedSimulator(n, l, storage=storage).run_schedule(
                schedule
            )
            state = run.state.to_statevector()
            pooled = storage.io_stats["pooled_flushes"]
        assert state.allclose(reference, atol=1e-9)
        if kernels.split_threads(2, 1) > 1:  # this host has a sweep pool
            assert pooled > 0

    def test_absorbed_variant(self, workload):
        n, l, _, reference, schedule = workload
        assert any(
            op.num_sources > 1 and "specialized" in {s.kind for s in op.sources}
            for op in plan_for(schedule).ops
        )
        unfused = PlanConfig(fusion_kmax=0)
        run = DistributedSimulator(n, l).run_schedule(schedule, plan_config=unfused)
        assert run.state.to_statevector().allclose(reference, atol=1e-9)

    def test_backends_agree_exactly(self, workload, tmp_path):
        """RAM vs disk shards execute identical kernel sequences, so the
        amplitudes must match to the last bit."""
        n, l, _, _, schedule = workload
        ram = DistributedSimulator(n, l).run_schedule(schedule)
        with DiskShards(1 << (n - l), 1 << l, tmp_path) as storage:
            disk = DistributedSimulator(n, l, storage=storage).run_schedule(
                schedule
            )
            disk_state = disk.state.to_statevector()
        assert np.allclose(
            ram.state.to_statevector().data, disk_state.data, atol=1e-12, rtol=0
        )

    def test_comm_accounting_matches_schedule(self, workload):
        n, l, _, _, schedule = workload
        run = DistributedSimulator(n, l).run_schedule(schedule)
        assert run.comm.alltoall_steps == schedule.num_swaps
        expected_bytes = 0
        for event in run.comm.events:
            if event.kind == "alltoall":
                expected_bytes += event.bytes
        assert run.comm.bytes_on_network == expected_bytes
