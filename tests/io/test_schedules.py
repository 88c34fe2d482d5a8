"""Tests for circuit and schedule JSON serialization."""

import pytest

from repro.circuit import Circuit, generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.gates import Gate, random_unitary
from repro.io import (
    load_circuit_json,
    load_schedule_json,
    save_circuit_json,
    save_schedule_json,
)
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.statevector import Simulator


class TestCircuitJson:
    def test_named_gates_roundtrip(self, tmp_path):
        circ = generate_supremacy_circuit(9, 8, seed=1)
        save_circuit_json(circ, tmp_path / "circ.json")
        assert load_circuit_json(tmp_path / "circ.json") == circ

    def test_custom_matrix_roundtrip(self, tmp_path):
        circ = Circuit(3, [Gate("rand", (0, 2), random_unitary(2, 5))])
        save_circuit_json(circ, tmp_path / "c.json")
        loaded = load_circuit_json(tmp_path / "c.json")
        assert loaded == circ

    def test_cycle_metadata_roundtrip(self, tmp_path):
        circ = Circuit(2, [Gate("h", (0,), cycle=3)])
        save_circuit_json(circ, tmp_path / "c.json")
        assert load_circuit_json(tmp_path / "c.json")[0].cycle == 3


class TestScheduleJson:
    @pytest.mark.parametrize("specialize", [False, True])
    def test_schedule_roundtrip_executes_identically(self, tmp_path, specialize):
        n, l = 12, 8
        circ = generate_supremacy_circuit(n, 10, seed=2)
        sched = schedule_circuit(
            circ,
            SchedulerConfig(
                local_qubits=l, seed=1, specialize_global_diagonal=specialize
            ),
        )
        save_schedule_json(sched, tmp_path / "sched.json")
        loaded = load_schedule_json(tmp_path / "sched.json")

        assert loaded.summary() == sched.summary()
        ref = Simulator(n).run(circ).state
        result = DistributedSimulator(n, l).run_schedule(loaded)
        assert result.state.to_statevector().allclose(ref, atol=1e-9)

    def test_loaded_schedule_is_validated(self, tmp_path):
        circ = generate_supremacy_circuit(9, 6, seed=0)
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=6, seed=1))
        path = save_schedule_json(sched, tmp_path / "s.json")
        # Corrupt: drop one stage.
        import json

        payload = json.loads(path.read_text())
        payload["stages"] = payload["stages"][:-1]
        path.write_text(json.dumps(payload))
        with pytest.raises(AssertionError):
            load_schedule_json(path)
