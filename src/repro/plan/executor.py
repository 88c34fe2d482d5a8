"""Replaying one :class:`~repro.plan.PlanOp` on a distributed state."""

from __future__ import annotations


def _run_op(plan_op, state) -> None:
    kind = plan_op.exec_kind
    if kind in ("kernel", "fused_kernel"):
        state.apply_compiled(
            plan_op.gate, plan_op.qubits, strategy=plan_op.strategy
        )
    elif kind in ("diagonal", "fused_diagonal"):
        state.apply_diagonal(plan_op.diag, plan_op.qubits)
    else:  # "swap" | "passthrough"
        plan_op.source_op.execute(state)

