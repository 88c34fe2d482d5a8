"""The plan compiler's pass pipeline: lower → refuse → finalize.

Each pass is a pure function ``(ops, ctx) -> ops`` over a typed op
stream (a tuple of frozen :class:`~repro.plan.program.PlanOp`): it
consumes one immutable stream and produces a new one, never mutating its
input (the ``plan-pass-mutation`` test in
``tests/staticcheck/test_source_invariants.py`` enforces this).  The stages:

* :func:`lower_pass` — one plan op per schedule op: swaps, gates that
  renumber ranks (``passthrough``), and a ``kernel`` op for every other
  gate and cluster.  No fusion happens here.
* :func:`refuse_pass` — the fusion stage: every run of kernel ops
  between swaps and passthroughs is cut into the groups of least
  predicted cost, and a group of two or more becomes one multi-op
  kernel (``exec_kind="fused_kernel"``) over its qubit union, at most
  ``config.fusion_kmax`` wide.
* :func:`finalize_pass` — freeze and validate the stream (source
  ordering, per-kind field invariants).

Kernel ops carry their gate as a :class:`~repro.kernels.blocks.BlockGate`
from :func:`~repro.kernels.blocks.rank_split`: blocks over the
*controls*, the qubits only diagonals touch, and every qubit global in
the op's stage.  A diagonal is all controls (dense width ``m = 0``), so a
specialized diagonal on stage-global qubits is a kernel op like any
other, and so is a monomial gate that leaves the rank numbers as they
are (CNOT with a global control): each rank runs the blocks its number
spells, and a group such an op joins keeps those qubits as controls —
no member acts on a global qubit densely.  That is Sec. 3.5's "absorbed
into the next gate matrix", decided here for every plan.  The sweep
(:class:`repro.kernels.DenseSweep`) runs an op at the cost of ``m``, not
its qubit count, so the cost model prices a sweep by ``m``, its count of
local controls (a global one costs nothing) and the schedule's shard
size, from one table measured on the reference host (:data:`_SWEEP_NS`);
an all-control group is one phase multiply.  Both the merged controls
and the price come from bit masks; only a chosen group's blocks are
multiplied out.  The state picks each op's kernel from its gate when it
runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

import numpy as np

from repro.distributed.tracing import _classify
from repro.kernels.blocks import BlockGate, block_index, rank_split
from repro.plan.config import PlanConfig
from repro.scheduling.program import GateOp, Schedule, SwapOp
from repro.util.bits import bit_mask

__all__ = [
    "PassContext",
    "lower_pass",
    "refuse_pass",
    "finalize_pass",
]

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
    carries one plan op per schedule op.  A gate or cluster becomes a
    ``kernel`` op over the blocks :func:`rank_split` gives it under its
    stage's global qubits, unless it renumbers ranks (X on a global
    qubit), which the state does (``passthrough``).
    """
    from repro.plan.program import PlanOp, SourceEvent

    lowered = list(ops)
    stage = 0
    for index, op in enumerate(ctx.schedule.operations()):
        kind, label = _classify(op)
        source = SourceEvent(op_index=index, kind=kind, label=label)
        if isinstance(op, SwapOp):
            stage += 1
            lowered.append(
                PlanOp(
                    exec_kind="swap", sources=(source,), stage=stage,
                    source_op=op,
                )
            )
            continue
        gate = op.gate if isinstance(op, GateOp) else op.fused
        global_qubits = ctx.globals_of_stage(stage)
        split = rank_split(
            gate, [j for j, q in enumerate(gate.qubits) if q in global_qubits]
        )
        if split is None or (split[1] != np.arange(split[1].size)).any():
            lowered.append(
                PlanOp(
                    exec_kind="passthrough", sources=(source,), stage=stage,
                    source_op=op,
                )
            )
            continue
        lowered.append(
            PlanOp(
                exec_kind="kernel", sources=(source,), stage=stage,
                qubits=gate.qubits, gate=split[0],
            )
        )
    return tuple(lowered)


# ----------------------------------------------------------------------
# refuse: cost-guided cluster refusion
# ----------------------------------------------------------------------
def _targets(op) -> frozenset:
    """Qubits *op* acts on densely: the non-control qubits of its gate."""
    return frozenset(op.qubits[j] for j in op.gate.targets)


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

    # Diagonals ahead of the first dense member scale its columns; a
    # group of diagonals alone is their product, one 1 x 1 block each.
    blocks = scale = None
    for op in group:
        bits = [pos_of[q] for q in op.qubits]
        gate = op.gate
        if not gate.targets:
            diag = gate.blocks[:, 0, 0][value(bits)]
            if blocks is None:
                scale = diag if scale is None else scale * diag
            else:
                blocks = diag[:, :, None] * blocks
            continue
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
        gate=BlockGate(
            len(union), tuple(controls),
            scale[:, :, None] if blocks is None else blocks,
        ),
    )


def _refuse_run(run, kmax: int, l: int, global_mask: int) -> list:
    """The cheapest cut of a run of kernel ops into fused groups.

    Each group is a contiguous slice whose qubit union stays within
    *kmax* (a single op is always a group).  It costs one sweep, priced
    by its dense width and local control count (:func:`_sweep_cost`),
    both read off bit masks: qubits only diagonals touch stay controls
    and cost a merge next to nothing, a global one (in *global_mask*)
    nothing at all — a rank runs only the blocks its number picks — and
    a group of diagonals alone (``m = 0``) is one phase multiply.  A
    dynamic program over the cut points minimises the run's summed cost,
    so a merge that only pays off with the ops after it is still taken;
    ties go to the longer group.
    """
    masks = [
        (bit_mask(op.qubits), bit_mask(_targets(op))) for op in run
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
            d = u - m - (union & global_mask).bit_count()
            cost = best[first] + _sweep_cost(l, m, d)
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


def refuse_pass(ops, ctx: PassContext):
    """The fusion stage: cost-guided merging of adjacent kernel ops.

    Cuts every maximal run of kernel ops (swaps and passthroughs end
    one) into the groups :func:`_refuse_run` finds cheapest; a group of
    two or more members becomes one ``fused_kernel``.  The union of a
    group stays within ``config.fusion_kmax`` (refusion is off below 2)
    and below the shard's qubit count: over every local bit a fused op
    would be a one-row GEMM per shard, which rounds differently from the
    same op swept over all shards as one block.
    """
    if ctx.config.fusion_kmax < 2:
        return tuple(ops)
    l = ctx.schedule.local_qubits
    kmax = min(ctx.config.fusion_kmax, l - 1)
    out: list = []
    for is_run, group in groupby(ops, key=lambda op: op.exec_kind == "kernel"):
        group = list(group)
        if is_run:  # within one stage: a swap ends every run
            global_mask = bit_mask(ctx.globals_of_stage(group[0].stage))
            group = _refuse_run(group, kmax, l, global_mask)
        out.extend(group)
    return tuple(out)


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
            if op.gate is None:
                raise ValueError(f"{op.exec_kind} op missing gate: {op!r}")
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
