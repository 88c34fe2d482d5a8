"""The structure law of compiled plans.

A kernel plan op stores its gate as blocks over its controls — the
qubits only diagonals touch, global ones included — and a fused op
composes those blocks from its members without forming the product.  For every case pinned in
``data/plan_digests.json``, each fused op's blocks must reassemble to
the in-order product of its members lifted with
:func:`repro.gates.fusion.lift_gate_matrix`, and that product must be
exactly block-diagonal in every control the op reports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import generate_supremacy_circuit
from repro.gates.fusion import lift_gate_matrix
from repro.plan import PlanConfig, compile_program
from repro.plan.passes import PassContext, finalize_pass, lower_pass
from repro.scheduling import SchedulerConfig, schedule_circuit
from tests.plan.test_plan_digests import SCHEDULE_CASES, _cases


def _schedule(name):
    case = SCHEDULE_CASES[name]
    circuit = generate_supremacy_circuit(
        case["qubits"], case["depth"], seed=case["circuit_seed"]
    )
    return schedule_circuit(circuit, SchedulerConfig(**case["config"]))


def _off_block(matrix, bit) -> np.ndarray:
    """Entries whose row and column differ in *bit*."""
    rows = np.arange(matrix.shape[0])
    return matrix[((rows[:, None] ^ rows[None, :]) >> bit) & 1 == 1]


@pytest.mark.parametrize("name", _cases())
def test_fused_blocks_are_the_lifted_product(name):
    schedule = _schedule(name)
    plan = compile_program(schedule, PlanConfig())
    ctx = PassContext.for_schedule(schedule, PlanConfig())
    unfused = finalize_pass(lower_pass((), ctx), ctx)
    by_source = {op.sources[0].op_index: op for op in unfused}
    fused = [op for op in plan.ops if op.exec_kind == "fused_kernel"]
    for op in fused:
        u = len(op.qubits)
        pos_of = {q: p for p, q in enumerate(op.qubits)}
        product = np.eye(1 << u, dtype=np.complex128)
        for source in op.sources:
            member = by_source[source.op_index]
            product = lift_gate_matrix(
                member.gate.dense(), [pos_of[q] for q in member.qubits], u
            ) @ product
        assert np.allclose(op.gate.dense(), product, rtol=0, atol=1e-12)
        for bit in op.gate.controls:
            assert not _off_block(product, bit).any(), (name, op.qubits, bit)
    dense = [op.gate for op in plan.ops if op.gate is not None]
    summary = plan.summary()
    assert summary["structured_ops"] == sum(bool(g.controls) for g in dense)
    assert summary["control_qubits"] == sum(len(g.controls) for g in dense)
