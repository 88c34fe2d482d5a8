"""Property-style guarantee: scheduler output always verifies clean.

The static checker is only useful if it never cries wolf — across many
seeds and every scheduler configuration the pipeline supports, `repro
check` must report zero findings (not even warnings).
"""

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.staticcheck import verify_schedule

SEEDS = list(range(20))

VARIANTS = {
    "default": {},
    "specialize-off": {"specialize_global_diagonal": False},
    "no-h-strip": {"skip_initial_hadamards": False},
    "kmax3": {"kmax": 3},
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_scheduler_output_verifies_clean(seed, variant):
    circ = generate_supremacy_circuit(9, 8, seed=seed)
    config = SchedulerConfig(
        **{"local_qubits": 6, "kmax": 4, "seed": seed, **VARIANTS[variant]}
    )
    schedule = schedule_circuit(circ, config)
    report = verify_schedule(schedule)
    assert report.clean, f"seed={seed} variant={variant}\n{report.format()}"


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 7, 13])
def test_larger_circuits_verify_clean(seed):
    circ = generate_supremacy_circuit(16, 16, seed=seed)
    schedule = schedule_circuit(
        circ, SchedulerConfig(local_qubits=11, kmax=4, seed=seed)
    )
    report = verify_schedule(schedule)
    assert report.clean, report.format()
