"""The plan compiler's pass pipeline: lower → refuse → specialize → finalize.

Each pass is a pure function ``(ops, ctx) -> ops`` over a typed op
stream (a tuple of frozen :class:`~repro.plan.program.PlanOp`): it
consumes one immutable stream and produces a new one, never mutating its
input (the ``plan-pass-mutation`` test in
``tests/staticcheck/test_source_invariants.py`` enforces this).  The stages:

* :func:`lower_pass` — classify every schedule op into a plan op:
  diagonal extraction, swap/passthrough delegation, dense kernels.  No
  fusion and no strategy decisions happen here.
* :func:`refuse_pass` — the fusion stage.  First collapses runs of
  consecutive diagonal ops into one per-amplitude multiply (Fusion v1),
  then performs general cluster refusion (Fusion v2): adjacent dense and
  diagonal plan ops whose qubit union stays within
  ``config.fusion_kmax`` merge into one batched multi-op kernel
  (``exec_kind="fused_kernel"``) when the measured cost model says the
  single fused sweep beats the separate sweeps.
* :func:`specialize_pass` — resolve the kernel strategy of every dense
  op (including fused groups) from its width.
* :func:`finalize_pass` — freeze and validate the stream (source
  ordering, per-kind field invariants).

The cost model is calibrated against the dense sweep
(:class:`repro.kernels.DenseSweep`) on the reference host:
one k-qubit dense sweep over all ranks costs roughly
``_KERNEL_COST_US[k]`` microseconds and a diagonal sweep
``_DIAG_COST_US``; a merge is accepted only when the fused sweep is
predicted no slower than the sweeps it replaces, so refusion can only
help (larger ``fusion_kmax`` admits strictly more merge opportunities).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.distributed.tracing import _classify
from repro.gates.fusion import lift_gate_matrix
from repro.kernels.tables import GATHER_CACHE
from repro.plan.config import PlanConfig
from repro.scheduling.program import ClusterOp, GateOp, Schedule, SwapOp

__all__ = [
    "PassContext",
    "lower_pass",
    "refuse_pass",
    "specialize_pass",
    "finalize_pass",
]

#: Widest qubit union a run of diagonals is fused to (its ``2**u``
#: diagonal is built at compile time).
_MAX_FUSED_QUBITS = 10

#: Measured microseconds for one k-qubit dense sweep
#: (:class:`repro.kernels.DenseSweep`, default chunk) over all
#: virtual ranks of the headline shard shape (l=14, 16 ranks), taken
#: *cold* (300 MiB streamed between samples), 1 BLAS thread, median over
#: 8 random target sets x 5 samples, two runs averaged — every sweep
#: pays a fixed state-streaming component (~1.2 ms for 16 x 256 KB
#: shards) on top of the ``2**k`` matmul term, which is why fewer, wider
#: sweeps win well past the point where raw FLOP counts would say
#: otherwise.  Beyond the measured range the matmul term dominates (k=8
#: measured 10.6k, k=9 21.3k) and the cost is extrapolated by doubling.
_KERNEL_COST_US = {
    1: 1400.0,
    2: 1700.0,
    3: 1750.0,
    4: 2350.0,
    5: 2600.0,
    6: 3700.0,
    7: 5700.0,
}

#: Measured microseconds for one diagonal (per-amplitude multiply) sweep
#: on the same shape and harness (640-740 us).
_DIAG_COST_US = 700.0


def _kernel_cost(k: int) -> float:
    """Predicted cost of one k-qubit dense sweep (µs over all ranks)."""
    if k in _KERNEL_COST_US:
        return _KERNEL_COST_US[k]
    top = max(_KERNEL_COST_US)
    return _KERNEL_COST_US[top] * (1 << (k - top))


@dataclass(frozen=True)
class PassContext:
    """Read-only compile context shared by every pass."""

    schedule: Schedule
    config: PlanConfig
    #: Per-stage global qubit sets (stage i of the schedule).
    stage_globals: tuple[frozenset, ...]

    @classmethod
    def for_schedule(
        cls, schedule: Schedule, config: PlanConfig
    ) -> "PassContext":
        return cls(
            schedule=schedule,
            config=config,
            stage_globals=tuple(
                frozenset(stage.global_qubits) for stage in schedule.stages
            ),
        )

    def globals_of_stage(self, stage: int) -> frozenset:
        """Global qubits during *stage* (empty set off the end)."""
        if 0 <= stage < len(self.stage_globals):
            return self.stage_globals[stage]
        return frozenset()


# ----------------------------------------------------------------------
# lower: schedule ops -> typed plan ops
# ----------------------------------------------------------------------
def lower_pass(ops, ctx: PassContext):
    """Classify every schedule op into exactly one plan op.

    The input stream is empty (lowering is the source pass); the output
    carries one plan op per schedule op, with diagonals extracted but
    not yet fused and kernel strategies not yet resolved.
    """
    from repro.plan.program import PlanOp, SourceEvent

    lowered = list(ops)
    stage = 0
    for index, op in enumerate(ctx.schedule.operations()):
        kind, label = _classify(op)
        if kind == "swap":
            stage += 1
        source = SourceEvent(op_index=index, kind=kind, label=label)
        if isinstance(op, SwapOp):
            lowered.append(
                PlanOp(
                    exec_kind="swap", sources=(source,), stage=stage,
                    source_op=op,
                )
            )
            continue
        if isinstance(op, GateOp):
            gate = op.gate
            if gate.is_diagonal:
                lowered.append(
                    PlanOp(
                        exec_kind="diagonal", sources=(source,), stage=stage,
                        qubits=gate.qubits, diag=np.diagonal(gate.matrix),
                    )
                )
            elif not (set(gate.qubits) & ctx.globals_of_stage(stage)):
                # A dense gate on stage-local qubits runs as an ordinary
                # local kernel — lowering it as one (instead of a
                # passthrough) makes it absorbable by refusion.
                lowered.append(
                    PlanOp(
                        exec_kind="kernel", sources=(source,), stage=stage,
                        qubits=gate.qubits, matrix=gate.matrix,
                    )
                )
            else:
                # Monomial specialization on global qubits: the rank
                # renumbering logic stays with the state.
                lowered.append(
                    PlanOp(
                        exec_kind="passthrough", sources=(source,),
                        stage=stage, source_op=op,
                    )
                )
            continue
        if isinstance(op, ClusterOp):
            fused_gate = op.fused
            if fused_gate.is_diagonal:
                lowered.append(
                    PlanOp(
                        exec_kind="diagonal", sources=(source,), stage=stage,
                        qubits=op.qubits,
                        diag=np.diagonal(fused_gate.matrix),
                    )
                )
            else:
                lowered.append(
                    PlanOp(
                        exec_kind="kernel", sources=(source,), stage=stage,
                        qubits=op.qubits, matrix=fused_gate.matrix,
                    )
                )
            continue
        # AbsorbedClusterOp (or any future op type): per-rank matrices
        # are built at execution time, so it passes through unchanged.
        lowered.append(
            PlanOp(
                exec_kind="passthrough", sources=(source,), stage=stage,
                source_op=op,
            )
        )
    return tuple(lowered)


# ----------------------------------------------------------------------
# refuse: diagonal-run fusion + general cluster refusion
# ----------------------------------------------------------------------
def _lift_diag(diag, qubits, union) -> np.ndarray:
    """Expand a ``2**k`` diagonal over *qubits* to the *union* space.

    The ``2**u`` index table depends only on the bit positions of
    *qubits* within *union*, so it is memoized through
    :data:`~repro.kernels.tables.GATHER_CACHE` — repeated fusions of the
    same qubit sets (every CZ layer of a supremacy circuit) stop
    recomputing it.
    """
    pos_of = {q: p for p, q in enumerate(union)}
    idx = GATHER_CACHE.lift_index_table(
        len(union), tuple(pos_of[q] for q in qubits)
    )
    return np.asarray(diag)[idx]


def _fuse_diagonal_run(run):
    """Collapse a run of consecutive diagonal plan ops into one multiply.

    Diagonal operators commute, so the fused diagonal over the qubit
    union is their elementwise product in any order; one broadcast
    multiply then replaces ``len(run)`` state sweeps.  Runs whose union
    exceeds :data:`_MAX_FUSED_QUBITS` (a ``2**u`` table would get large)
    are left as-is.
    """
    from repro.plan.program import PlanOp

    if len(run) < 2:
        return list(run)
    union_t = tuple(dict.fromkeys(q for op in run for q in op.qubits))
    if len(union_t) > _MAX_FUSED_QUBITS:
        return list(run)
    combined = np.ones(1 << len(union_t), dtype=np.complex128)
    for op in run:
        combined *= _lift_diag(op.diag, op.qubits, union_t)
    sources = tuple(src for op in run for src in op.sources)
    return [
        PlanOp(
            exec_kind="fused_diagonal",
            sources=sources,
            stage=run[0].stage,
            qubits=union_t,
            diag=combined,
        )
    ]


def _fuse_diagonal_runs(ops):
    """Sweep 1 of refusion: merge maximal runs of consecutive diagonals."""
    out: list = []
    run: list = []
    for op in ops:
        if op.exec_kind == "diagonal":
            run.append(op)
            continue
        out.extend(_fuse_diagonal_run(run))
        run = []
        out.append(op)
    out.extend(_fuse_diagonal_run(run))
    return out


def _op_cost(op) -> float:
    """Predicted standalone cost of one plan op (µs over all ranks)."""
    if op.exec_kind in ("diagonal", "fused_diagonal"):
        return _DIAG_COST_US
    return _kernel_cost(len(op.qubits))


def _absorbable(op, ctx: PassContext) -> bool:
    """Can *op* join a fused dense group?

    Dense kernels always can (their qubits are stage-local by scheduler
    construction).  Diagonals can when every qubit is stage-local — a
    diagonal touching global qubits runs rank-conditionally and cannot
    be lifted into a local dense kernel, so it is a fusion barrier, as
    are swaps and passthroughs.
    """
    if op.exec_kind == "kernel":
        return True
    if op.exec_kind in ("diagonal", "fused_diagonal"):
        return not (set(op.qubits) & ctx.globals_of_stage(op.stage))
    return False


def _fuse_cluster_group(group):
    """One ``fused_kernel`` plan op from adjacent dense/diagonal members.

    The fused unitary is the in-order product of every member lifted to
    the qubit union: dense members embed via
    :func:`repro.gates.fusion.lift_gate_matrix`, diagonal members scale
    the accumulated rows.  ``sources`` concatenates every member's
    sources in op-stream order, so traces keep one event per original
    schedule op.
    """
    from repro.plan.program import PlanOp

    union = tuple(dict.fromkeys(q for op in group for q in op.qubits))
    u = len(union)
    pos_of = {q: p for p, q in enumerate(union)}
    fused = np.eye(1 << u, dtype=np.complex128)
    for op in group:
        if op.exec_kind in ("diagonal", "fused_diagonal"):
            lifted = _lift_diag(
                np.asarray(op.diag, dtype=np.complex128), op.qubits, union
            )
            fused = lifted[:, None] * fused
        else:
            fused = (
                lift_gate_matrix(
                    op.matrix, [pos_of[q] for q in op.qubits], u
                )
                @ fused
            )
    return PlanOp(
        exec_kind="fused_kernel",
        sources=tuple(src for op in group for src in op.sources),
        stage=group[0].stage,
        qubits=union,
        matrix=fused,
    )


def _refuse_clusters(ops, ctx: PassContext):
    """Sweep 2 of refusion: greedy cost-guided merging of adjacent ops.

    Walks the stream keeping one open group.  An absorbable op joins the
    group when the merged union stays within ``config.fusion_kmax`` and
    the predicted fused sweep is no slower than the group's current cost
    plus the op's standalone cost; otherwise the group is flushed.  A
    flushed group of two or more members becomes one ``fused_kernel``.
    """
    kmax = ctx.config.fusion_kmax
    out: list = []
    group: list = []
    group_union: tuple = ()
    group_cost = 0.0

    def flush() -> None:
        nonlocal group, group_union, group_cost
        if len(group) <= 1:
            out.extend(group)
        else:
            out.append(_fuse_cluster_group(group))
        group = []
        group_union = ()
        group_cost = 0.0

    for op in ops:
        if not _absorbable(op, ctx):
            flush()
            out.append(op)
            continue
        merged_union = tuple(dict.fromkeys(group_union + tuple(op.qubits)))
        merged_cost = _kernel_cost(len(merged_union))
        if (
            group
            and len(merged_union) <= kmax
            and merged_cost <= group_cost + _op_cost(op)
        ):
            group.append(op)
            group_union = merged_union
            group_cost = merged_cost
        else:
            flush()
            group = [op]
            group_union = tuple(op.qubits)
            group_cost = _op_cost(op)
    flush()
    return out


def refuse_pass(ops, ctx: PassContext):
    """The fusion stage: diagonal-run fusion, then cluster refusion."""
    stream = _fuse_diagonal_runs(ops)
    if ctx.config.fusion_kmax >= 2:
        stream = _refuse_clusters(stream, ctx)
    return tuple(stream)


# ----------------------------------------------------------------------
# specialize: resolve the strategy of every dense op
# ----------------------------------------------------------------------
def specialize_pass(ops, ctx: PassContext):
    """Fix the kernel strategy of dense plan ops from their width alone.

    ``"indexed"`` (the dense sweep) up to
    :data:`repro.kernels.SWEEP_MAX_QUBITS`, ``"reference"`` (tensordot)
    beyond; a fused group is run like any dense op over its union.
    """
    from repro.kernels import SWEEP_MAX_QUBITS

    def strategy(op) -> str:
        return "indexed" if len(op.qubits) <= SWEEP_MAX_QUBITS else "reference"

    return tuple(
        replace(op, strategy=strategy(op))
        if op.exec_kind in ("kernel", "fused_kernel") else op
        for op in ops
    )


# ----------------------------------------------------------------------
# finalize: freeze + validate the stream
# ----------------------------------------------------------------------
def finalize_pass(ops, ctx: PassContext):
    """Validate stream invariants and freeze the final op tuple.

    Checks that every plan op carries the fields its executor path
    needs, and that source events appear in strictly increasing
    op-stream order (what trace parity relies on).
    """
    last_index = -1
    for op in ops:
        if op.exec_kind in ("kernel", "fused_kernel"):
            if op.matrix is None or op.strategy is None:
                raise ValueError(
                    f"{op.exec_kind} op missing matrix/strategy: {op!r}"
                )
        elif op.exec_kind in ("diagonal", "fused_diagonal"):
            if op.diag is None:
                raise ValueError(f"diagonal op missing diag: {op!r}")
        elif op.exec_kind in ("swap", "passthrough"):
            if op.source_op is None:
                raise ValueError(f"{op.exec_kind} op missing source_op: {op!r}")
        else:
            raise ValueError(f"unknown exec_kind {op.exec_kind!r}")
        for source in op.sources:
            if source.op_index <= last_index:
                raise ValueError(
                    f"source events out of order at op_index "
                    f"{source.op_index}"
                )
            last_index = source.op_index
    return tuple(ops)
