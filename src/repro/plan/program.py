"""Compiling a schedule into a flat, pre-resolved kernel program.

Compilation is a staged pass pipeline (see :mod:`repro.plan.passes`)::

    lower  ->  refuse  ->  finalize

Every pass consumes and produces a typed stream of frozen
:class:`PlanOp`; compile options live in a frozen
:class:`~repro.plan.config.PlanConfig`, which is the single memoization
key for :func:`plan_for` (and for the service plan cache and
``--plan-stats``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from repro.kernels.blocks import BlockGate
from repro.plan.config import PlanConfig
from repro.plan.passes import (
    PassContext,
    finalize_pass,
    lower_pass,
    refuse_pass,
)
from repro.scheduling.program import Schedule
from repro.util.locktrack import TrackedLock

__all__ = [
    "SourceEvent",
    "PlanOp",
    "CompiledProgram",
    "compile_program",
    "plan_for",
]


@dataclass(frozen=True)
class SourceEvent:
    """Identity of one schedule op a plan op covers (for trace parity)."""

    op_index: int
    kind: str
    label: str


@dataclass(frozen=True)
class PlanOp:
    """One pre-resolved execution step of a compiled program.

    ``exec_kind`` selects the executor path:

    * ``"kernel"`` — one schedule gate or cluster: *gate* (a
      :class:`~repro.kernels.blocks.BlockGate`: the matrix as blocks
      over the qubits it is block-diagonal in, every qubit for a
      diagonal) is fixed.  Qubits global in the op's stage are controls
      — each rank runs the blocks its rank number picks.  The state
      picks the kernel from the gate (the phase multiply when it has no
      targets, the dense sweep at any width otherwise); the sweep's
      addresses come from the run-time bit layout and its chunk from
      :func:`repro.kernels.chunk_for`.
    * ``"fused_kernel"`` — several adjacent kernel ops refused into one
      over the qubit union, run exactly like a ``"kernel"`` op; its
      blocks are composed block by block from its members.
    * ``"swap"`` / ``"passthrough"`` — delegated to *source_op* verbatim
      (global-to-local swaps; monomial gates that renumber ranks, such as
      X on a global qubit).

    ``sources`` lists the covered schedule ops in op-stream order — one
    entry except for fused kernels — so executed traces keep exactly one
    event per original op.
    """

    exec_kind: str
    sources: tuple[SourceEvent, ...]
    stage: int
    qubits: tuple[int, ...] = ()
    gate: BlockGate | None = None
    source_op: object | None = None

    @property
    def num_sources(self) -> int:
        """Schedule ops covered (>1 only for fused kernels)."""
        return len(self.sources)


def _counts_of(ops: tuple[PlanOp, ...]) -> dict:
    """Per-kind op tallies of a final op stream.

    The reconciliation identity the tests pin down::

        num_source_ops == len(ops) + refused_away_ops

    ``refused_away_ops`` counts sources folded into fused kernel ops.
    ``structured_ops`` counts the kernel ops with controls and
    ``control_qubits`` their controls in total.
    """
    counts = {
        "kernel_ops": 0,
        "fused_kernel_ops": 0,
        "refused_away_ops": 0,
        "passthrough_ops": 0,
        "swap_ops": 0,
        "structured_ops": 0,
        "control_qubits": 0,
    }
    for op in ops:
        if op.gate is not None and op.gate.controls:
            counts["structured_ops"] += 1
            counts["control_qubits"] += len(op.gate.controls)
        if op.exec_kind == "kernel":
            counts["kernel_ops"] += 1
        elif op.exec_kind == "fused_kernel":
            counts["fused_kernel_ops"] += 1
            counts["refused_away_ops"] += op.num_sources - 1
        elif op.exec_kind == "swap":
            counts["swap_ops"] += 1
        else:
            counts["passthrough_ops"] += 1
    return counts


@dataclass
class CompiledProgram:
    """A schedule lowered to flat kernel ops with all decisions resolved.

    Execute with :meth:`execute` (or via
    ``DistributedSimulator.run_schedule``, which compiles lazily); the
    same program is valid for every state with the schedule's qubit
    split, so all ranks — and repeated runs — share one compilation.
    """

    schedule: Schedule
    ops: tuple[PlanOp, ...]
    config: PlanConfig
    compile_seconds: float
    counts: dict = field(default_factory=dict)

    @property
    def num_source_ops(self) -> int:
        """Ops in the original schedule stream."""
        return sum(op.num_sources for op in self.ops)

    def execute(self, state, *, telemetry=None):
        """Run the program on *state* through the runtime engine.

        Returns the op-level :class:`ExecutionTrace` when *telemetry* is
        an active bundle (one event per schedule op, whatever the fusion:
        fused ops emit zero-length spans for the sources folded in), else
        ``None``.
        """
        from repro.runtime import ExecutionEngine

        engine = ExecutionEngine(self, telemetry=telemetry)  # lint: allow-engine-direct
        return engine.run(state=state).trace

    def summary(self) -> dict:
        """Counters for display (``repro simulate --plan-stats``)."""
        return {
            "num_source_ops": self.num_source_ops,
            "num_plan_ops": len(self.ops),
            "fusion_kmax": self.config.fusion_kmax,
            "compile_seconds": round(self.compile_seconds, 6),
            **self.counts,
        }


def compile_program(
    schedule: Schedule, config: PlanConfig | None = None
) -> CompiledProgram:
    """Lower *schedule* into a :class:`CompiledProgram`.

    Every per-call decision of the old executor — diagonality scans,
    block structure, diagonal extraction, fusion — happens here, once,
    in the pass pipeline (``None`` compiles under ``PlanConfig()``).
    """
    if config is None:
        config = PlanConfig()
    elif not isinstance(config, PlanConfig):
        raise TypeError(
            f"config must be a PlanConfig, got {type(config).__name__}"
        )
    t0 = time.perf_counter()
    ctx = PassContext.for_schedule(schedule, config)
    ops: tuple[PlanOp, ...] = lower_pass((), ctx)
    ops = refuse_pass(ops, ctx)
    ops = finalize_pass(ops, ctx)
    program = CompiledProgram(
        schedule=schedule,
        ops=ops,
        config=config,
        compile_seconds=0.0,
        counts=_counts_of(ops),
    )
    program.compile_seconds = time.perf_counter() - t0
    return program


def plan_for(
    schedule: Schedule, config: PlanConfig | None = None
) -> CompiledProgram:
    """The memoized compiled plan of *schedule*.

    Compiled at most once per :class:`PlanConfig` — the frozen config is
    the *entire* cache key, so two callers asking for different fusion
    widths never share a plan — and cached on the schedule instance, so
    every rank, repeat run and benchmark round shares one compilation.
    Thread-safe: the service layer shares schedules across concurrent
    requests, so a miss double-checks under a lock and exactly one
    thread compiles each key.
    """
    key = PlanConfig() if config is None else config
    cache = getattr(schedule, "_compiled_plans", None)
    if cache is not None:
        plan = cache.get(key)
        if plan is not None:
            return plan
    with _PLAN_FOR_LOCK:
        cache = getattr(schedule, "_compiled_plans", None)
        if cache is None:
            cache = {}
            schedule._compiled_plans = cache
        plan = cache.get(key)
        if plan is None:
            plan = compile_program(schedule, key)
            cache[key] = plan
    return plan


#: Serialises plan compilation: compiles are rare and fast relative to
#: execution, so one process-wide lock beats per-schedule bookkeeping.
_PLAN_FOR_LOCK = TrackedLock(
    "repro.plan.program._PLAN_FOR_LOCK", lock=threading.Lock()
)
