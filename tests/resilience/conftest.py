"""Shared workloads for the resilience tests."""

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.scheduling import SchedulerConfig, schedule_circuit


@pytest.fixture(scope="package")
def chaos_schedule():
    """A 12-qubit, 4-rank schedule with at least one swap (acceptance size)."""
    circ = generate_supremacy_circuit(12, 16, seed=0)
    sched = schedule_circuit(
        circ, SchedulerConfig(local_qubits=10, kmax=4, seed=1)
    )
    assert sched.num_swaps >= 1
    return sched


@pytest.fixture(scope="package")
def chaos_reference(chaos_schedule):
    """Fault-free final amplitudes of the shared schedule's plan run."""
    result = DistributedSimulator(12, 10).run_schedule(chaos_schedule)
    return result.state.to_statevector().data.copy()
