"""JSON (de)serialization of circuits and schedules.

Gates serialize by name when their matrix matches the registry, and by
explicit matrix (real/imag nested lists) otherwise, so fused clusters
and custom unitaries round-trip exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.circuit.circuit import Circuit
from repro.gates.gate import Gate
from repro.gates.matrices import gate_matrix
from repro.scheduling.program import ClusterOp, GateOp, Schedule, Stage

__all__ = [
    "save_circuit_json",
    "load_circuit_json",
    "save_schedule_json",
    "load_schedule_json",
]


# ----------------------------------------------------------------------
# Gates
# ----------------------------------------------------------------------
def _gate_to_obj(gate: Gate) -> dict:
    obj: dict = {"name": gate.name, "qubits": list(gate.qubits)}
    if gate.cycle is not None:
        obj["cycle"] = gate.cycle
    try:
        named = gate_matrix(gate.name)
    except KeyError:
        named = None
    if named is None or not np.allclose(named, gate.matrix):
        obj["matrix_re"] = gate.matrix.real.tolist()
        obj["matrix_im"] = gate.matrix.imag.tolist()
    return obj


def _gate_from_obj(obj: dict) -> Gate:
    matrix = None
    if "matrix_re" in obj:
        matrix = np.asarray(obj["matrix_re"]) + 1j * np.asarray(obj["matrix_im"])
    return Gate(
        obj["name"], tuple(obj["qubits"]), matrix, cycle=obj.get("cycle")
    )


# ----------------------------------------------------------------------
# Circuits
# ----------------------------------------------------------------------
def save_circuit_json(circuit: Circuit, path: str | Path) -> Path:
    """Write *circuit* (including custom matrices) to JSON."""
    path = Path(path)
    payload = {
        "num_qubits": circuit.num_qubits,
        "gates": [_gate_to_obj(g) for g in circuit],
    }
    path.write_text(json.dumps(payload))
    return path


def load_circuit_json(path: str | Path) -> Circuit:
    """Load a circuit written by :func:`save_circuit_json`."""
    payload = json.loads(Path(path).read_text())
    return Circuit(
        payload["num_qubits"], (_gate_from_obj(o) for o in payload["gates"])
    )


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def _op_to_obj(op) -> dict:
    if isinstance(op, GateOp):
        return {"kind": "gate", "gate": _gate_to_obj(op.gate)}
    if isinstance(op, ClusterOp):
        return {
            "kind": "cluster",
            "qubits": list(op.qubits),
            "gates": [_gate_to_obj(g) for g in op.gates],
        }
    raise TypeError(f"cannot serialize op of type {type(op).__name__}")


def _op_from_obj(obj: dict):
    kind = obj["kind"]
    if kind == "gate":
        return GateOp(_gate_from_obj(obj["gate"]))
    if kind == "cluster":
        return ClusterOp(
            qubits=tuple(obj["qubits"]),
            gates=tuple(_gate_from_obj(o) for o in obj["gates"]),
        )
    raise ValueError(f"unknown op kind {kind!r}")


def save_schedule_json(schedule: Schedule, path: str | Path) -> Path:
    """Write a schedule program (circuit included) to JSON."""
    path = Path(path)
    payload = {
        "num_qubits": schedule.num_qubits,
        "local_qubits": schedule.local_qubits,
        "initial_state": schedule.initial_state,
        "kmax": schedule.kmax,
        "circuit": [_gate_to_obj(g) for g in schedule.circuit],
        "stages": [
            {
                "global_qubits": sorted(stage.global_qubits),
                "ops": [_op_to_obj(op) for op in stage.ops],
            }
            for stage in schedule.stages
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def load_schedule_json(path: str | Path, *, validate: bool = True) -> Schedule:
    """Load and re-validate a schedule written by :func:`save_schedule_json`.

    Pass ``validate=False`` to load without the raising validation pass —
    ``repro check`` does this so the static checker can diagnose a broken
    file instead of dying on the first assertion.
    """
    payload = json.loads(Path(path).read_text())
    circuit = Circuit(
        payload["num_qubits"], (_gate_from_obj(o) for o in payload["circuit"])
    )
    stages = [
        Stage(
            global_qubits=frozenset(s["global_qubits"]),
            ops=[_op_from_obj(o) for o in s["ops"]],
        )
        for s in payload["stages"]
    ]
    schedule = Schedule(
        circuit=circuit,
        local_qubits=payload["local_qubits"],
        stages=stages,
        initial_state=payload["initial_state"],
        kmax=payload["kmax"],
    )
    if validate:
        schedule.validate()
    return schedule
