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
  (``exec_kind="fused_kernel"``) where the cost table says fewer, wider
  sweeps beat the separate ones.
* :func:`specialize_pass` — resolve the kernel strategy of every dense
  op (including fused groups) from its width.
* :func:`finalize_pass` — freeze and validate the stream (source
  ordering, per-kind field invariants).

Dense ops carry their gate as a :class:`~repro.kernels.blocks.BlockGate`:
blocks over the *controls*, the qubits only diagonals touch.  The dense
sweep (:class:`repro.kernels.DenseSweep`) runs such an op at the cost of
its dense width ``m``, not its qubit count, so the cost model prices a
sweep by ``m``, its control count and the schedule's shard size, from
one table measured on the reference host (:data:`_SWEEP_NS`), and each
run of absorbable ops is cut into the groups of least predicted total
cost.  Both the merged controls and the price come from bit masks; only
a chosen group's blocks are multiplied out.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.distributed.tracing import _classify
from repro.kernels.blocks import BlockGate, block_index
from repro.kernels.tables import GATHER_CACHE
from repro.plan.config import PlanConfig
from repro.scheduling.program import ClusterOp, GateOp, Schedule, SwapOp
from repro.util.bits import bit_mask

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

#: Measured nanoseconds per amplitude of one sweep on the reference host
#: (2 vCPUs, 1 BLAS thread; ``python benchmarks/bench_kernels_micro.py``
#: re-measures it), by log2 of the swept shard — one warm ``2**14`` or
#: ``2**18`` shard, four ``2**22`` shards streamed from DRAM: the
#: diagonal multiply; the dense sweep of ``m = 1..8`` target bits (median
#: over 12 random placements, made non-decreasing in ``m``); and what each
#: control bit adds (median over ``d = 1..3``).  A shard is priced by the
#: nearest measured row.
_SWEEP_NS = {
    14: (0.75, (6.2, 6.2, 6.7, 10.3, 14.2, 21.2, 36.8, 66.6), 1.2),
    18: (2.1, (6.2, 6.2, 6.2, 9.6, 12.7, 17.8, 38.5, 69.5), 1.0),
    22: (3.3, (6.0, 6.0, 8.8, 12.5, 14.2, 22.6, 31.6, 59.0), 0.3),
}


def _sweep_cost(local_qubits: int, m: int, d: int = 0) -> float:
    """Predicted ns per amplitude of one sweep of a ``2**local_qubits``
    shard: a diagonal (``m = 0``) or ``2**d`` blocks of an ``m``-bit gate."""
    row = min(_SWEEP_NS, key=lambda bits: abs(bits - local_qubits))
    diagonal, dense, per_control = _SWEEP_NS[row]
    if m == 0:
        return diagonal
    if m > len(dense):
        return dense[-1] * (1 << (m - len(dense))) + d * per_control
    return dense[m - 1] + d * per_control


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
                        qubits=gate.qubits, gate=BlockGate.of(gate.matrix),
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
                        qubits=op.qubits, gate=BlockGate.of(fused_gate.matrix),
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


def _targets(op) -> frozenset:
    """Qubits *op* acts on densely: none for a diagonal, the non-control
    qubits of a dense op."""
    if op.exec_kind in ("diagonal", "fused_diagonal"):
        return frozenset()
    return frozenset(op.qubits[j] for j in op.gate.targets)


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
    the qubit union, kept as blocks: its controls are the union qubits
    no member acts on densely (bit masks decide, no product is looked
    at), and block ``c`` is the product of every member restricted to
    control value ``c`` — a ``2**m``-row product per block, never the
    ``2**u x 2**u`` one.  ``sources`` concatenates every member's
    sources in op-stream order, so traces keep one event per original
    schedule op.
    """
    from repro.plan.program import PlanOp

    union = tuple(dict.fromkeys(q for op in group for q in op.qubits))
    pos_of = {q: p for p, q in enumerate(union)}
    dense = frozenset().union(*map(_targets, group))
    targets = [p for p, q in enumerate(union) if q in dense]
    controls = [p for p, q in enumerate(union) if q not in dense]
    # Union index of row r of block c, and its bits, for reading each
    # member's bits: value(b) is the number the union bits b spell.
    index = block_index(len(union), tuple(controls))
    rows = index[0]
    bit_of = (index[..., None] >> np.arange(len(union))) & 1
    weights = 1 << np.arange(len(union))

    def value(bits):
        return bit_of[..., bits] @ weights[:len(bits)]

    # Diagonals ahead of the first dense member scale its columns.
    blocks = scale = None
    for op in group:
        bits = [pos_of[q] for q in op.qubits]
        if op.exec_kind in ("diagonal", "fused_diagonal"):
            diag = np.asarray(op.diag, dtype=np.complex128)[value(bits)]
            if blocks is None:
                scale = diag if scale is None else scale * diag
            else:
                blocks = diag[:, :, None] * blocks
            continue
        gate = op.gate
        # Rows r and s of a block meet in the member's block cm when they
        # agree off its targets; its entry is the member's (tm(r), tm(s)).
        own = [bits[j] for j in gate.targets]
        cm = value([bits[j] for j in gate.controls])
        tm = value(own)[0]
        lifted = gate.blocks[cm[:, :, None], tm[:, None], tm[None, :]]
        if len(own) < len(targets):
            off = rows & ~bit_mask(own)
            lifted = np.where(off[:, None] == off[None, :], lifted, 0)
        if blocks is None:
            blocks = lifted if scale is None else lifted * scale[:, None, :]
        else:
            blocks = lifted @ blocks
    return PlanOp(
        exec_kind="fused_kernel",
        sources=tuple(src for op in group for src in op.sources),
        stage=group[0].stage,
        qubits=union,
        gate=BlockGate(len(union), tuple(controls), blocks),
    )


def _refuse_run(run, kmax: int, l: int) -> list:
    """The cheapest cut of a run of absorbable ops into fused groups.

    Each group is a contiguous slice whose qubit union stays within
    *kmax* and leaves some qubit acted on densely (a single op is always
    a group).  It costs one sweep, priced by its dense width and control
    count (:func:`_sweep_cost`), both read off bit masks: qubits only
    diagonals touch stay controls and cost a merge next to nothing.  A
    dynamic program over the cut points minimises the run's summed cost,
    so a merge that only pays off with the ops after it is still taken;
    ties go to the longer group.
    """
    masks = [
        (sum(1 << q for q in op.qubits), sum(1 << q for q in _targets(op)))
        for op in run
    ]
    best = [0.0] + [float("inf")] * len(run)
    start = [0] * (len(run) + 1)
    for stop in range(1, len(run) + 1):
        union = dense = 0
        for first in range(stop - 1, -1, -1):
            union |= masks[first][0]
            dense |= masks[first][1]
            u, m = union.bit_count(), dense.bit_count()
            if first < stop - 1 and u > kmax:
                break
            if first < stop - 1 and not m:
                continue
            cost = best[first] + _sweep_cost(l, m, u - m)
            if cost <= best[stop]:
                best[stop], start[stop] = cost, first
    groups, stop = [], len(run)
    while stop:
        groups.append(run[start[stop]:stop])
        stop = start[stop]
    return [
        group[0] if len(group) == 1 else _fuse_cluster_group(group)
        for group in reversed(groups)
    ]


def _refuse_clusters(ops, ctx: PassContext):
    """Sweep 2 of refusion: cost-guided merging of adjacent ops.

    Cuts every maximal run of absorbable ops into the groups
    :func:`_refuse_run` finds cheapest; a group of two or more members
    becomes one ``fused_kernel``.  The union of a group stays within
    ``config.fusion_kmax`` and below the shard's qubit count: over every
    local bit a fused op would be a one-row GEMM per shard, which rounds
    differently from the same op swept over all shards as one block.
    """
    l = ctx.schedule.local_qubits
    kmax = min(ctx.config.fusion_kmax, l - 1)
    out: list = []
    run: list = []
    for op in ops:
        if _absorbable(op, ctx):
            run.append(op)
            continue
        out.extend(_refuse_run(run, kmax, l))
        out.append(op)
        run = []
    out.extend(_refuse_run(run, kmax, l))
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
            if op.gate is None or op.strategy is None:
                raise ValueError(
                    f"{op.exec_kind} op missing gate/strategy: {op!r}"
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
