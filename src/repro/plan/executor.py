"""Executing a :class:`~repro.plan.CompiledProgram` on a distributed state."""

from __future__ import annotations

__all__ = ["execute_plan"]


def _run_op(plan_op, state) -> None:
    kind = plan_op.exec_kind
    if kind in ("kernel", "fused_kernel"):
        state.apply_compiled(
            plan_op.matrix,
            plan_op.qubits,
            strategy=plan_op.strategy,
            chunk_size=plan_op.chunk_size,
        )
    elif kind in ("diagonal", "fused_diagonal"):
        state.apply_diagonal(plan_op.diag, plan_op.qubits)
    else:  # "swap" | "passthrough"
        plan_op.source_op.execute(state)


def execute_plan(plan, state, *, telemetry=None):
    """Run *plan* on *state*; returns an :class:`ExecutionTrace` or ``None``.

    Delegates to the canonical loop in
    :class:`repro.runtime.ExecutionEngine`.  Without an active
    *telemetry* bundle that is the engine's bare fast path: one
    pre-resolved kernel call per plan op, nothing re-derived, no trace.

    With telemetry a :class:`~repro.runtime.TracingLayer` records the
    same span stream as the unplanned executor op for op — fused
    diagonals record their first source's span around the real work plus
    zero-length spans for the ops folded in — so
    :meth:`ExecutionTrace.signature` is identical to an unplanned traced
    run of the same schedule.  The shared kernel cache mirrors its
    counters into the bundle's metrics (``plan.cache.hits`` /
    ``plan.cache.misses``) for the duration of the run.
    """
    from repro.runtime import ExecutionEngine, TracingLayer

    if telemetry is None or not telemetry.active:
        layers = ()
    else:
        layers = [TracingLayer(telemetry)]
    return ExecutionEngine(plan, layers=layers).run(state=state).trace  # lint: allow-engine-direct
