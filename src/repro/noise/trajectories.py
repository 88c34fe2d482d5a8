"""Quantum-trajectory (Monte Carlo wave function) noisy simulation.

One trajectory applies, after every gate, a stochastically chosen Kraus
operator on each touched qubit: operator ``K_i`` is selected with the
Born probability ``||K_i |psi>||^2`` and the state renormalised.
Averaging outcome statistics over trajectories converges (as 1/sqrt(T))
to the exact open-system evolution, at pure-state memory cost — which is
why trajectories are the noise method of choice for simulators at the
paper's scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.circuit import Circuit
from repro.noise.channels import KrausChannel
from repro.statevector.state import StateVector
from repro.util.rng import ensure_rng

__all__ = ["NoisySimulator", "TrajectoryResult"]


@dataclass
class TrajectoryResult:
    """Aggregated output of a trajectory ensemble."""

    num_trajectories: int
    mean_probabilities: np.ndarray
    mean_fidelity_to_ideal: float


class NoisySimulator:
    """Applies circuits with per-gate single-qubit noise channels.

    Parameters
    ----------
    num_qubits:
        State size.
    channel:
        The :class:`KrausChannel` applied to every qubit a gate touches,
        immediately after the gate (a standard gate-error model).
    seed:
        Ensemble seed; trajectory ``t`` uses a child generator, so
        results are reproducible and trajectories independent.
    """

    def __init__(
        self, num_qubits: int, channel: KrausChannel, *, seed: int | None = 0
    ) -> None:
        if channel.dim != 2:
            raise ValueError("only single-qubit channels are supported")
        self.num_qubits = num_qubits
        self.channel = channel
        self._seed_seq = np.random.SeedSequence(seed)

    # ------------------------------------------------------------------
    def _apply_channel(
        self, state: np.ndarray, qubit: int, rng: np.random.Generator
    ) -> None:
        """Stochastically apply one Kraus operator to *qubit* in place."""
        # Born weights: ||K_i psi||^2; Kraus operators need not be
        # unitary, so they are applied directly (not via gate kernels).
        candidates = []
        weights = []
        for op in self.channel.operators:
            trial = state.copy()
            _apply_matrix(trial, op, qubit)
            norm_sq = float(np.vdot(trial, trial).real)
            candidates.append(trial)
            weights.append(norm_sq)
        weights = np.asarray(weights)
        weights = weights / weights.sum()
        choice = int(rng.choice(len(candidates), p=weights))
        chosen = candidates[choice]
        chosen /= np.linalg.norm(chosen)
        state[:] = chosen

    def run_trajectory(self, circuit: Circuit, seed) -> StateVector:
        """One noisy trajectory; returns the final (normalised) state."""
        rng = ensure_rng(seed)
        state = StateVector(self.num_qubits)
        for gate in circuit:
            state.apply_gate(gate)
            for qubit in gate.qubits:
                self._apply_channel(state.data, qubit, rng)
        return state

    def run(self, circuit: Circuit, num_trajectories: int) -> TrajectoryResult:
        """Run an ensemble; returns averaged statistics.

        ``mean_probabilities`` is the trajectory-averaged output
        distribution (the diagonal of the exact density matrix, up to
        Monte-Carlo error); ``mean_fidelity_to_ideal`` averages
        ``|<psi_ideal|psi_traj>|^2``.
        """
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("circuit size mismatch")
        if num_trajectories < 1:
            raise ValueError("need at least one trajectory")
        ideal = StateVector(self.num_qubits)
        ideal.apply_circuit(circuit)
        probs = np.zeros(1 << self.num_qubits)
        fidelity = 0.0
        for child in self._seed_seq.spawn(num_trajectories):
            state = self.run_trajectory(circuit, np.random.default_rng(child))
            probs += state.probabilities()
            fidelity += state.fidelity(ideal)
        return TrajectoryResult(
            num_trajectories=num_trajectories,
            mean_probabilities=probs / num_trajectories,
            mean_fidelity_to_ideal=fidelity / num_trajectories,
        )


def _apply_matrix(state: np.ndarray, matrix: np.ndarray, qubit: int) -> None:
    """Apply a (possibly non-unitary) 2x2 matrix to *qubit* in place."""
    n = int(np.log2(state.shape[0]))
    view = state.reshape(1 << (n - 1 - qubit), 2, 1 << qubit)
    branch0 = view[:, 0, :].copy()
    branch1 = view[:, 1, :]
    m = matrix
    view[:, 0, :] = m[0, 0] * branch0 + m[0, 1] * branch1
    view[:, 1, :] = m[1, 0] * branch0 + m[1, 1] * branch1
