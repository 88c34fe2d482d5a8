"""The single-node circuit simulator."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.circuit.circuit import Circuit
from repro.kernels.cost import KernelCostModel
from repro.statevector.state import StateVector

__all__ = ["Simulator", "SimulationResult"]


@dataclass
class SimulationResult:
    """Output of one :meth:`Simulator.run` call."""

    state: StateVector
    wall_seconds: float
    cost: KernelCostModel = field(default_factory=KernelCostModel)

    @property
    def gflops(self) -> float:
        """Achieved GFLOPS over the run (kernel FLOPs / wall time)."""
        return self.cost.gflops(max(self.wall_seconds, 1e-12))


class Simulator:
    """Applies circuits to a state vector with cost accounting.

    Parameters
    ----------
    num_qubits:
        State size.  ``2**num_qubits * 16`` bytes of memory are allocated.
    initial_state:
        ``"zero"`` (``|0...0>``) or ``"plus"`` (uniform superposition — the
        Sec. 3.6 shortcut replacing the initial Hadamard layer).
    single_precision:
        Use complex64 amplitudes (Sec. 5: enables one more qubit for the
        same memory).
    """

    def __init__(
        self,
        num_qubits: int,
        *,
        initial_state: str = "zero",
        single_precision: bool = False,
    ) -> None:
        self.num_qubits = num_qubits
        self._initial_state = initial_state
        self._single_precision = single_precision

    def new_state(self) -> StateVector:
        """Fresh initial state per the configured initialisation."""
        return StateVector(
            self.num_qubits,
            init=self._initial_state,
            single_precision=self._single_precision,
        )

    def run(
        self,
        circuit: Circuit,
        *,
        state: StateVector | None = None,
    ) -> SimulationResult:
        """Apply *circuit* and return the final state plus cost accounting.

        When *state* is given it is mutated in place (useful for staged
        execution); otherwise a fresh initial state is allocated.
        """
        if circuit.num_qubits != self.num_qubits:
            raise ValueError(
                f"circuit has {circuit.num_qubits} qubits, simulator has "
                f"{self.num_qubits}"
            )
        if state is None:
            state = self.new_state()
        cost = KernelCostModel()
        start = time.perf_counter()
        for gate in circuit:
            state.apply_gate(gate)
            cost.record(
                self.num_qubits, gate.num_qubits, diagonal=gate.is_diagonal
            )
        elapsed = time.perf_counter() - start
        return SimulationResult(state=state, wall_seconds=elapsed, cost=cost)
