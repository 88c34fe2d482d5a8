"""Replaying one :class:`~repro.plan.PlanOp` on a distributed state."""

from __future__ import annotations


def _run_op(plan_op, state) -> None:
    if plan_op.exec_kind in ("kernel", "fused_kernel"):
        state.apply_compiled(plan_op.gate, plan_op.qubits)
    else:  # "swap" | "passthrough"
        plan_op.source_op.execute(state)
