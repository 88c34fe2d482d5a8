"""Compiled execution plans (pass-based plan compiler + kernel-plan cache).

A :class:`~repro.scheduling.Schedule` describes *what* to run; every
plan decision — each op's block structure, rank relabels, fusion — is
re-derivable from it, and the pre-plan executor re-derived all of it on
every shard of every rank.  :func:`compile_program` resolves those
decisions exactly once through a staged pass pipeline
(:mod:`repro.plan.passes`)::

    lower  ->  refuse  ->  finalize

Each pass consumes and produces a typed stream of frozen
:class:`PlanOp`\\ s that every rank replays:

* every gate or cluster op carries its gate as blocks over the qubits
  it is block-diagonal in (:class:`repro.kernels.blocks.BlockGate`; a
  diagonal is all such qubits, and a qubit global in the op's stage is
  always one); the state picks the kernel from that gate, and its
  addresses come from the bit layout at run time
  (:class:`repro.kernels.DenseSweep`), so a plan holds no tables;
* the *refuse* pass merges adjacent ops whose qubit union stays within
  ``PlanConfig.fusion_kmax`` into one multi-op kernel
  (``exec_kind="fused_kernel"``) where the cost table says so, executed
  like any op over the union: specialized diagonals on global qubits
  are absorbed into the sweep next to them (Sec. 3.5), and a run of
  diagonals becomes one phase multiply;
* swaps and rank relabels (monomial gates that renumber ranks, such as
  X on a global qubit) pass through to the distributed state unchanged.

Execution preserves the op-level
:meth:`~repro.distributed.tracing.ExecutionTrace.signature` exactly: a
fused kernel emits its first source op's span for the real work plus
zero-length spans for the ops folded into it.

The one compile option, the refusion width, lives in a frozen
:class:`PlanConfig`; use
:func:`plan_for` to get the memoized plan of a schedule (compiled at
most once per config — the config object is the entire cache key).
"""

from repro.plan.config import DEFAULT_FUSION_KMAX, PlanConfig
from repro.plan.program import (
    CompiledProgram,
    PlanOp,
    SourceEvent,
    compile_program,
    plan_for,
)

__all__ = [
    "CompiledProgram",
    "DEFAULT_FUSION_KMAX",
    "PlanConfig",
    "PlanOp",
    "SourceEvent",
    "compile_program",
    "plan_for",
]
