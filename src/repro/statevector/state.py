"""The :class:`StateVector` container."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.gates.gate import Gate
from repro.kernels import apply_gate
from repro.util.bits import bit_length_of_power_of_two
from repro.util.validation import check_qubit_indices

__all__ = ["StateVector"]


class StateVector:
    """A ``2**n`` complex amplitude vector with little-endian qubit order.

    Amplitude index bit ``q`` holds the computational-basis value of qubit
    ``q``.  The backing array is always C-contiguous ``complex128`` (or
    ``complex64`` when ``single_precision=True`` — the paper's Sec. 5 notes
    46 qubits become feasible at single precision with the same memory).
    """

    def __init__(
        self,
        num_qubits: int,
        data: np.ndarray | None = None,
        *,
        init: str = "zero",
        single_precision: bool = False,
    ) -> None:
        if num_qubits <= 0:
            raise ValueError(f"num_qubits must be positive, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        dtype = np.complex64 if single_precision else np.complex128
        dim = 1 << self.num_qubits
        if data is not None:
            data = np.ascontiguousarray(data, dtype=dtype)
            if data.shape != (dim,):
                raise ValueError(
                    f"data must have shape ({dim},), got {data.shape}"
                )
            self.data = data
        elif init == "zero":
            self.data = np.zeros(dim, dtype=dtype)
            self.data[0] = 1.0
        elif init == "plus":
            # Uniform superposition: the Sec. 3.6 shortcut replacing the
            # cycle-0 Hadamard layer with direct initialisation.
            self.data = np.full(dim, 2.0 ** (-self.num_qubits / 2), dtype=dtype)
        else:
            raise ValueError(f"unknown init {init!r} (expected 'zero' or 'plus')")

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------
    def apply_gate(self, gate: Gate) -> "StateVector":
        """Apply *gate* in place. Returns self for chaining."""
        apply_gate(
            self.data, gate.matrix, gate.qubits, diagonal=gate.is_diagonal
        )
        return self

    def apply_circuit(self, gates) -> "StateVector":
        """Apply every gate of an iterable/:class:`Circuit` in order."""
        for gate in gates:
            self.apply_gate(gate)
        return self

    # ------------------------------------------------------------------
    # Quantum-information queries
    # ------------------------------------------------------------------
    def norm(self) -> float:
        """The 2-norm of the amplitude vector (1.0 for a valid state)."""
        return float(np.linalg.norm(self.data))

    def normalize(self) -> "StateVector":
        """Rescale to unit norm in place."""
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        self.data /= n
        return self

    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Outcome probabilities, optionally marginalised onto *qubits*.

        With ``qubits=None`` returns all ``2**n`` probabilities (little-
        endian index order); otherwise returns ``2**len(qubits)`` marginal
        probabilities where result bit ``j`` is ``qubits[j]``.
        """
        probs = np.abs(self.data) ** 2
        if qubits is None:
            return probs
        qubits = check_qubit_indices(qubits, self.num_qubits)
        n, k = self.num_qubits, len(qubits)
        tensor = probs.reshape((2,) * n)
        other_axes = tuple(
            n - 1 - q for q in range(n) if q not in set(qubits)
        )
        marginal = tensor.sum(axis=other_axes)
        # Remaining axes are the target qubits sorted descending; reorder
        # so result bit j corresponds to qubits[j].
        remaining = sorted(qubits, reverse=True)
        flat = marginal.reshape(-1)
        out = np.empty(1 << k)
        src_positions = [k - 1 - remaining.index(q) for q in qubits]
        idx = np.arange(1 << k)
        src = np.zeros_like(idx)
        for j, pos in enumerate(src_positions):
            src |= ((idx >> j) & 1) << pos
        out[idx] = flat[src]
        return out

    def probability_of(self, bitstring: int) -> float:
        """Probability of one computational-basis outcome."""
        if not 0 <= bitstring < self.data.shape[0]:
            raise ValueError(f"bitstring {bitstring} out of range")
        return float(np.abs(self.data[bitstring]) ** 2)

    def amplitude(self, bitstring: int) -> complex:
        """Complex amplitude of one computational-basis state."""
        return complex(self.data[bitstring])

    def inner(self, other: "StateVector") -> complex:
        """The inner product ``<self|other>``."""
        self._check_compatible(other)
        return complex(np.vdot(self.data, other.data))

    def fidelity(self, other: "StateVector") -> float:
        """``|<self|other>|**2``."""
        return abs(self.inner(other)) ** 2

    def expectation_bit(self, qubit: int) -> float:
        """Probability that *qubit* measures as 1."""
        probs = self.probabilities((qubit,))
        return float(probs[1])

    # ------------------------------------------------------------------
    # Housekeeping
    # ------------------------------------------------------------------
    def copy(self) -> "StateVector":
        """Deep copy."""
        return StateVector(self.num_qubits, self.data.copy())

    def allclose(self, other: "StateVector", *, atol: float = 1e-10) -> bool:
        """Amplitude-wise comparison (no global-phase forgiveness)."""
        self._check_compatible(other)
        return bool(np.allclose(self.data, other.data, atol=atol))

    def equal_up_to_global_phase(
        self, other: "StateVector", *, atol: float = 1e-10
    ) -> bool:
        """True when the states differ only by a global phase."""
        self._check_compatible(other)
        return bool(math.isclose(self.fidelity(other), 1.0, abs_tol=atol))

    def _check_compatible(self, other: "StateVector") -> None:
        if self.num_qubits != other.num_qubits:
            raise ValueError(
                f"qubit-count mismatch: {self.num_qubits} vs {other.num_qubits}"
            )

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"

    @staticmethod
    def basis_state(num_qubits: int, bitstring: int) -> "StateVector":
        """The computational-basis state ``|bitstring>``."""
        state = StateVector(num_qubits)
        state.data[0] = 0.0
        state.data[bitstring] = 1.0
        return state

    @staticmethod
    def from_array(data: np.ndarray) -> "StateVector":
        """Wrap an existing amplitude array (copied to complex128)."""
        num_qubits = bit_length_of_power_of_two(len(data))
        return StateVector(num_qubits, np.asarray(data))
