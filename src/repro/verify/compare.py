"""State comparison and backend cross-validation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import Circuit
from repro.statevector.state import StateVector
from repro.util.rng import ensure_rng

__all__ = [
    "ComparisonReport",
    "compare_states",
    "spot_check_amplitudes",
    "cross_validate",
]


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of an amplitude-level comparison."""

    num_qubits: int
    max_abs_deviation: float
    fidelity: float
    worst_index: int
    compared_amplitudes: int

    def ok(self, *, atol: float = 1e-9) -> bool:
        """True when the states agree within *atol* everywhere compared."""
        return self.max_abs_deviation <= atol

    def __str__(self) -> str:
        return (
            f"ComparisonReport(n={self.num_qubits}, "
            f"max|Δ|={self.max_abs_deviation:.3e} @ index {self.worst_index}, "
            f"fidelity={self.fidelity:.12f}, "
            f"compared={self.compared_amplitudes})"
        )


def compare_states(a: StateVector, b: StateVector) -> ComparisonReport:
    """Full amplitude-wise comparison of two states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError(
            f"qubit-count mismatch: {a.num_qubits} vs {b.num_qubits}"
        )
    deviation = np.abs(a.data - b.data)
    worst = int(np.argmax(deviation))
    return ComparisonReport(
        num_qubits=a.num_qubits,
        max_abs_deviation=float(deviation[worst]),
        fidelity=a.fidelity(b),
        worst_index=worst,
        compared_amplitudes=a.data.shape[0],
    )


def spot_check_amplitudes(
    a: StateVector,
    b: StateVector,
    *,
    samples: int = 1024,
    seed=None,
) -> ComparisonReport:
    """Compare a random subset of amplitudes (for very large states).

    Samples indices from the union of both states' high-probability
    outcomes plus uniform indices, so both heavy and tail amplitudes are
    covered.  Fidelity is estimated over the sampled subset (normalised
    partial inner product) — exact comparison should use
    :func:`compare_states` when memory allows.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("qubit-count mismatch")
    rng = ensure_rng(seed)
    dim = a.data.shape[0]
    samples = min(samples, dim)
    uniform = rng.choice(dim, size=samples // 2 + 1, replace=False)
    top_a = np.argsort(np.abs(a.data))[-(samples // 4 + 1):]
    top_b = np.argsort(np.abs(b.data))[-(samples // 4 + 1):]
    indices = np.unique(np.concatenate([uniform, top_a, top_b]))
    deviation = np.abs(a.data[indices] - b.data[indices])
    worst_pos = int(np.argmax(deviation))
    overlap = np.vdot(a.data[indices], b.data[indices])
    norm_a = np.linalg.norm(a.data[indices])
    norm_b = np.linalg.norm(b.data[indices])
    fid = float(abs(overlap) ** 2 / max((norm_a * norm_b) ** 2, 1e-300))
    return ComparisonReport(
        num_qubits=a.num_qubits,
        max_abs_deviation=float(deviation[worst_pos]),
        fidelity=fid,
        worst_index=int(indices[worst_pos]),
        compared_amplitudes=int(indices.shape[0]),
    )


def cross_validate(
    circuit: Circuit,
    local_qubits: int,
    *,
    kmax: int = 4,
    seed: int = 0,
    atol: float = 1e-9,
) -> dict[str, ComparisonReport]:
    """Run *circuit* through every backend and compare against reference.

    Backends: in-process distributed (per-gate), in-process distributed
    (scheduled, its plan refused — specialized diagonals absorbed into
    neighbouring sweeps), and the same schedule unfused.  Returns one
    report per backend; raises AssertionError when any disagrees beyond
    *atol*.
    """
    from repro.distributed import DistributedSimulator
    from repro.plan import PlanConfig
    from repro.scheduling import SchedulerConfig, schedule_circuit
    from repro.statevector import Simulator

    n = circuit.num_qubits
    reference = Simulator(n).run(circuit).state
    reports: dict[str, ComparisonReport] = {}

    per_gate = DistributedSimulator(n, local_qubits).run(circuit, auto_swap=True)
    reports["distributed-per-gate"] = compare_states(
        reference, per_gate.state.to_statevector()
    )

    sched = schedule_circuit(
        circuit,
        SchedulerConfig(
            local_qubits=local_qubits,
            kmax=kmax,
            seed=seed,
            skip_initial_hadamards=False,
        ),
    )
    for label, config in (
        ("scheduled", None), ("scheduled-unfused", PlanConfig(fusion_kmax=0)),
    ):
        run = DistributedSimulator(n, local_qubits).run_schedule(
            sched, plan_config=config
        )
        reports[label] = compare_states(reference, run.state.to_statevector())

    for label, report in reports.items():
        if not report.ok(atol=atol):
            raise AssertionError(f"backend {label!r} disagrees: {report}")
    return reports
