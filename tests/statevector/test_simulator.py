"""Tests for the single-node Simulator."""

import numpy as np
import pytest

from repro.circuit import Circuit, generate_supremacy_circuit
from repro.gates import Gate
from repro.statevector import Simulator
from tests.conftest import assert_oracle, oracle_state


class TestSimulator:
    def test_runs_circuit(self, small_supremacy_circuit):
        result = Simulator(9).run(small_supremacy_circuit)
        assert result.state.norm() == pytest.approx(1.0)
        assert result.wall_seconds > 0

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError, match="qubits"):
            Simulator(4).run(Circuit(5))

    def test_plus_init_equals_h_layer(self):
        """The Sec. 3.6 shortcut: plus-init == applying the H layer."""
        circ = generate_supremacy_circuit(9, 6, seed=0)
        with_h = Simulator(9).run(circ).state
        stripped = Circuit(9, circ.gates[9:])
        shortcut = Simulator(9, initial_state="plus").run(stripped).state
        assert shortcut.allclose(with_h, atol=1e-10)

    def test_cost_accounting(self):
        circ = Circuit(4, [Gate("h", (0,)), Gate("cz", (0, 1)), Gate("t", (2,))])
        result = Simulator(4).run(circ)
        assert result.cost.total_calls == 3
        assert result.cost.diagonal_calls == 2  # cz and t
        assert result.gflops > 0

    def test_incremental_state_reuse(self):
        circ = generate_supremacy_circuit(9, 6, seed=1)
        half = len(circ) // 2
        sim = Simulator(9)
        full = sim.run(circ).state
        staged = sim.run(circ[:half]).state
        sim.run(circ[half:], state=staged)
        assert staged.allclose(full, atol=1e-10)

    def test_matches_the_oracle(self, small_supremacy_circuit):
        got = Simulator(9).run(small_supremacy_circuit).state
        oracle = oracle_state(small_supremacy_circuit, 9)
        assert_oracle(got, oracle, len(small_supremacy_circuit))

    def test_single_precision_run(self, small_supremacy_circuit):
        result = Simulator(9, single_precision=True).run(small_supremacy_circuit)
        assert result.state.data.dtype == np.complex64
        assert result.state.norm() == pytest.approx(1.0, abs=1e-5)
