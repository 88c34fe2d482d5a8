"""Shared workloads for the runtime-engine tests."""

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.scheduling import SchedulerConfig, schedule_circuit

N, L = 8, 5


def small_schedule(seed, *, depth=8):
    """An 8-qubit, 8-rank schedule with at least one swap."""
    circuit = generate_supremacy_circuit(N, depth, seed=seed)
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=L, kmax=3, seed=seed + 1)
    )
    assert schedule.num_swaps >= 1
    return schedule


@pytest.fixture(scope="package")
def schedule():
    """The shared small schedule most tests run."""
    return small_schedule(3)


@pytest.fixture(scope="package")
def reference(schedule):
    """Fault-free final amplitudes of the shared schedule's plan run."""
    result = DistributedSimulator(N, L).run_schedule(schedule)
    return result.state.to_statevector().data.copy()
