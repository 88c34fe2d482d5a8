"""Tests for the gate-application kernels."""

import numpy as np
import pytest

from repro.gates import Gate, random_unitary
from repro.gates.matrices import CZ_MATRIX, H_MATRIX, T_MATRIX, X_MATRIX
from repro.kernels import (
    apply_diagonal_gate,
    apply_gate,
    apply_gate_indexed,
    apply_gate_reference,
)
from repro.util.rng import random_statevector
from tests.conftest import assert_oracle, oracle_state


class TestAgainstNaive:
    """Every kernel must equal the naive two-vector kernel of Sec. 3.1 run
    in extended precision (the oracle), within its budget."""

    @pytest.mark.parametrize(
        "qubits",
        [(0,), (5,), (7,), (1, 4), (6, 2), (0, 3, 6), (7, 0, 4, 2)],
        ids=str,
    )
    def test_reference_and_indexed(self, qubits, rng):
        n = 8
        u = random_unitary(len(qubits), rng)
        s0 = random_statevector(n, rng).copy()
        oracle = oracle_state([Gate("u", qubits, u)], n, s0)
        for kernel, kwargs in [
            (apply_gate_reference, {}),
            (apply_gate_indexed, {}),
            (apply_gate_indexed, {"chunk_size": 5}),
            (apply_gate_indexed, {"chunk_size": 1}),
        ]:
            out = s0.copy()
            kernel(out, u, qubits, **kwargs)
            assert_oracle(out, oracle, 1)

    def test_diagonal_kernel(self, rng):
        n = 7
        s0 = random_statevector(n, rng).copy()
        for qubits, matrix in [((3,), T_MATRIX), ((2, 5), CZ_MATRIX), ((6, 0), CZ_MATRIX)]:
            oracle = oracle_state([Gate("d", qubits, matrix)], n, s0)
            out = s0.copy()
            apply_diagonal_gate(out, np.diagonal(matrix), qubits)
            assert_oracle(out, oracle, 1)


class TestSemantics:
    def test_x_flips_bit(self):
        state = np.zeros(4, dtype=complex)
        state[0b00] = 1.0
        apply_gate_reference(state, X_MATRIX, (1,))
        assert state[0b10] == 1.0

    def test_h_creates_superposition(self):
        state = np.zeros(2, dtype=complex)
        state[0] = 1.0
        apply_gate_indexed(state, H_MATRIX, (0,))
        assert np.allclose(state, [2**-0.5, 2**-0.5])

    def test_cz_phases_only_11(self):
        state = np.ones(4, dtype=complex) / 2
        apply_diagonal_gate(state, np.diagonal(CZ_MATRIX), (0, 1))
        assert np.allclose(state, [0.5, 0.5, 0.5, -0.5])

    def test_norm_preserved(self, rng):
        state = random_statevector(10, rng).copy()
        apply_gate_indexed(state, random_unitary(3, rng), (9, 1, 5))
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_inplace_kernels_return_state(self, rng):
        s0 = random_statevector(6, rng).copy()
        assert apply_gate_indexed(s0, H_MATRIX, (0,)) is s0


def _no_dense_sweep(*args, **kwargs):
    raise AssertionError("a diagonal gate reached the dense sweep")


class TestDispatcher:
    def test_auto_uses_diagonal_path(self, rng, monkeypatch):
        s0 = random_statevector(6, rng).copy()
        oracle = oracle_state([Gate("cz", (1, 4))], 6, s0)
        monkeypatch.setattr(
            "repro.kernels.apply.apply_gate_indexed", _no_dense_sweep
        )
        apply_gate(s0, CZ_MATRIX, (1, 4), diagonal=True)
        assert_oracle(s0, oracle, 1)

    def test_dense_sweep_at_any_width(self, rng):
        """Past 8 bits too: the dense sweep has no width limit."""
        n, qubits = 10, (9, 0, 1, 2, 3, 4, 5, 6, 8)
        u = random_unitary(len(qubits), rng)
        s0 = random_statevector(n, rng).copy()
        oracle = oracle_state([Gate("u", qubits, u)], n, s0)
        apply_gate(s0, u, qubits, diagonal=False)
        assert_oracle(s0, oracle, 1)


class TestValidation:
    def test_non_1d_state(self):
        with pytest.raises(ValueError, match="1-D"):
            apply_gate_reference(np.zeros((2, 2), dtype=complex), H_MATRIX, (0,))

    def test_non_power_state(self):
        with pytest.raises(ValueError, match="power of two"):
            apply_gate_reference(np.zeros(6, dtype=complex), H_MATRIX, (0,))

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            apply_gate_indexed(np.zeros(8, dtype=complex), H_MATRIX, (3,))
