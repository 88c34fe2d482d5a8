"""Cross-backend consistency: every execution path, same amplitudes.

One circuit, five executions: in-process distributed per gate (a swap
for every gate a global qubit blocks), and its schedule on RAM shards,
on disk shards (flushed on this thread and on the sweep pool), and as
the plan without refusion, which leaves the specialized diagonals the
default plan absorbs as sweeps of their own.  Each must be within the
oracle's budget (``oracle_state`` in ``tests/conftest.py``), and RAM and
disk shards agree to the last bit.  The oracle itself is independent of
the kernels under test: a broken ``DenseSweep`` moves every backend off
it and leaves it unchanged.
"""

import numpy as np
import pytest

import repro.kernels.apply as kernels
from repro import (
    DiskShards,
    DistributedSimulator,
    SchedulerConfig,
    generate_supremacy_circuit,
    schedule_circuit,
)
from repro.kernels import GATHER_CACHE
from repro.plan import PlanConfig, plan_for
from tests.conftest import ORACLE_BUDGET, assert_oracle, oracle_ratio, oracle_state


@pytest.fixture(scope="module")
def workload():
    n, depth, l = 12, 12, 8
    circuit = generate_supremacy_circuit(n, depth, seed=13)
    reference = oracle_state(circuit, n)
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=l, kmax=4, seed=5)
    )
    return n, l, circuit, reference, schedule


class TestCrossBackend:
    def test_per_gate(self, workload):
        n, l, circuit, reference, _ = workload
        run = DistributedSimulator(n, l).run(circuit, auto_swap=True)
        assert run.comm.alltoall_steps > 0
        assert_oracle(run.state.to_statevector(), reference, len(circuit))

    def test_in_process_ram(self, workload):
        n, l, circuit, reference, schedule = workload
        run = DistributedSimulator(n, l).run_schedule(schedule)
        assert_oracle(run.state.to_statevector(), reference, len(circuit))

    def test_in_process_disk(self, workload, tmp_path):
        n, l, circuit, reference, schedule = workload
        storage = DiskShards(1 << (n - l), 1 << l, tmp_path)
        run = DistributedSimulator(n, l, storage=storage).run_schedule(schedule)
        assert_oracle(run.state.to_statevector(), reference, len(circuit))

    def test_in_process_disk_pooled_flush(self, workload, tmp_path, monkeypatch):
        n, l, circuit, reference, schedule = workload
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        with DiskShards(1 << (n - l), 1 << l, tmp_path) as storage:
            run = DistributedSimulator(n, l, storage=storage).run_schedule(
                schedule
            )
            state = run.state.to_statevector()
            pooled = storage.io_stats["pooled_flushes"]
        assert_oracle(state, reference, len(circuit))
        if kernels.split_threads(2, 1) > 1:  # this host has a sweep pool
            assert pooled > 0

    def test_absorbed_variant(self, workload):
        n, l, circuit, reference, schedule = workload
        assert any(
            op.num_sources > 1 and "specialized" in {s.kind for s in op.sources}
            for op in plan_for(schedule).ops
        )
        unfused = PlanConfig(fusion_kmax=0)
        run = DistributedSimulator(n, l).run_schedule(schedule, plan_config=unfused)
        assert_oracle(run.state.to_statevector(), reference, len(circuit))

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


_outer_blocks = kernels._outer_blocks


def _reversed_control_blocks(shape, control_axes, mats, batch):
    """``_outer_blocks`` with the ``2**d`` blocks of a gate with controls
    in reverse order: every control value picks another value's block."""
    return _outer_blocks(shape, control_axes, mats[::-1], batch)


def _broken(*args, **kwargs):
    raise AssertionError("the oracle ran a production kernel")


class TestOracleIndependence:
    """In the style of ``tests/staticcheck/test_mutations.py``: a mutant
    of the dense sweep must move the backends off the oracle and leave
    the oracle as it is; with no production kernel left, the oracle still
    runs."""

    def test_dense_sweep_mutant_caught_and_oracle_unmoved(
        self, workload, monkeypatch
    ):
        n, l, circuit, reference, schedule = workload
        monkeypatch.setattr(kernels, "_outer_blocks", _reversed_control_blocks)
        assert np.array_equal(oracle_state(circuit, n), reference)
        run = DistributedSimulator(n, l).run_schedule(schedule)
        got = run.state.to_statevector()
        assert oracle_ratio(got, reference, len(circuit)) > ORACLE_BUDGET

    def test_runs_without_the_production_kernels(self, workload, monkeypatch):
        n, _, circuit, reference, _ = workload
        monkeypatch.setattr(kernels.DenseSweep, "__init__", _broken)
        monkeypatch.setattr(GATHER_CACHE, "diagonal_factor", _broken)
        assert np.array_equal(oracle_state(circuit, n), reference)
