"""Replaying one :class:`~repro.plan.PlanOp` on a distributed state."""

from __future__ import annotations


def _run_op(plan_op, state, *, closing=None) -> None:
    """*closing*: the global set of the swap that closes the stage, for
    the stage's last op with targets (:func:`closing_swaps`)."""
    if plan_op.exec_kind in ("kernel", "fused_kernel"):
        state.apply_compiled(plan_op.gate, plan_op.qubits, closing=closing)
    else:  # "swap" | "passthrough"
        plan_op.source_op.execute(state)


def _run_product(plan_ops, state, *, closing=None) -> None:
    """The product prefix: the plan's leading kernel ops that keep the
    state factored (:meth:`DistributedState.apply_factored`)."""
    state.apply_factored(
        [(op.gate, op.qubits) for op in plan_ops], closing=closing
    )


def closing_swaps(ops) -> dict[int, frozenset]:
    """``{index: global set}``: each swap's global set, keyed by the
    kernel op with targets before it that only ops without targets (phase
    multiplies) follow.  That op's sweep may stage the swap
    (:meth:`DistributedState.apply_compiled`); the plan stays as it is."""
    closing = {}
    for at, plan_op in enumerate(ops):
        if plan_op.exec_kind != "swap":
            continue
        for back in range(at - 1, -1, -1):
            prev = ops[back]
            if prev.exec_kind not in ("kernel", "fused_kernel"):
                break
            if prev.gate.targets:
                closing[back] = plan_op.source_op.new_global_qubits
                break
    return closing
