"""Replaying one :class:`~repro.plan.PlanOp` on a distributed state."""

from __future__ import annotations


def _run_op(plan_op, state) -> None:
    if plan_op.exec_kind in ("kernel", "fused_kernel"):
        state.apply_compiled(plan_op.gate, plan_op.qubits)
    else:  # "swap" | "passthrough"
        plan_op.source_op.execute(state)


def _run_product(plan_ops, state) -> None:
    """The product prefix: the plan's leading kernel ops that keep the
    state factored (:meth:`DistributedState.apply_factored`)."""
    state.apply_factored([(op.gate, op.qubits) for op in plan_ops])
