"""Symbolic verification of the induced communication plan.

A schedule's communication behaviour is fully determined before any
amplitude exists: replaying the op stream over the
:class:`~repro.distributed.layout.QubitLayout` transitions (the very
recipe ``DistributedState`` executes on amplitudes) yields, for every
virtual rank, the exact sequence of collectives it will join — group
membership, element counts, direction.  qHiPSTER-class simulators
die precisely here: one rank enters an all-to-all with a different group
or count than its peers and the job corrupts data or hangs.

Three verifiers:

* :func:`check_collectives` — lockstep-match the per-rank abstract comm
  programs; ranks disagreeing on a collective's kind, group or byte
  count are ``collective-mismatch`` errors, as is a rank arriving at a
  collective its group peers never post.
* :func:`check_comm_stats` — compare a run's (or a model's)
  :class:`~repro.distributed.comm.CommStats` against the plan's
  byte/step prediction (``byte-conservation``).
* :func:`check_deadlock` — simulate blocking point-to-point/collective
  semantics over abstract programs and report wait-for-graph cycles and
  stranded ranks (``deadlock``).

:func:`comm_plan_for_schedule` derives the per-rank programs from a
:class:`~repro.scheduling.Schedule`; tests corrupt those programs to
prove the detectors detect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.distributed.layout import QubitLayout
from repro.scheduling.program import GateOp, Schedule, SwapOp
from repro.staticcheck.diagnostics import CheckReport, Severity

__all__ = [
    "BarrierOp",
    "CollectiveOp",
    "RecvOp",
    "SendOp",
    "check_collectives",
    "check_comm_stats",
    "check_deadlock",
    "comm_plan_for_schedule",
    "predict_comm_stats",
]

_E = Severity.ERROR
_W = Severity.WARNING


# ----------------------------------------------------------------------
# Abstract communication ops
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CollectiveOp:
    """One rank's participation in a collective.

    ``group`` is the sorted tuple of participating ranks; ``bytes_sent``
    is what this rank ships (an all-to-all over ``s`` ranks of a
    ``B``-byte shard ships ``B * (s-1) / s``).  ``op_index`` points back
    at the schedule op that generated the collective.
    """

    kind: str  # "alltoall" | "renumber"
    group: tuple[int, ...]
    bytes_sent: int
    op_index: int | None = None


@dataclass(frozen=True)
class SendOp:
    """Blocking point-to-point send (rendezvous semantics)."""

    dst: int
    nbytes: int
    op_index: int | None = None


@dataclass(frozen=True)
class RecvOp:
    """Blocking point-to-point receive."""

    src: int
    nbytes: int
    op_index: int | None = None


@dataclass(frozen=True)
class BarrierOp:
    """Barrier over a rank group."""

    group: tuple[int, ...]
    op_index: int | None = None


# ----------------------------------------------------------------------
# Plan derivation (replays the executors' layout transitions)
# ----------------------------------------------------------------------
def _replay(schedule: Schedule):
    """``(op_index, op, layout before it, its SwapStep or None)`` per op."""
    layout = QubitLayout.initial(
        schedule.num_qubits,
        schedule.local_qubits,
        schedule.initial_global_qubits or None,
    )
    for op_index, op in enumerate(schedule.operations()):
        step = None
        if isinstance(op, SwapOp):
            step = layout.plan_swap(op.new_global_qubits)
        yield op_index, op, layout, step
        if step is not None:
            layout = step.after


def comm_plan_for_schedule(
    schedule: Schedule, *, shard_bytes: int | None = None
) -> list[list[CollectiveOp]]:
    """Per-rank abstract comm programs induced by *schedule*.

    Every rank posts what the one layout evolution says it must — the
    SPMD execution model, where each process derives the collectives from
    its own replica of the same layout — so corrupting one rank's program
    shows up as disagreement, which :func:`check_collectives` flags.
    """
    l = schedule.local_qubits
    num_ranks = 1 << (schedule.num_qubits - l)
    if shard_bytes is None:
        shard_bytes = (1 << l) * 16  # complex128 amplitudes
    programs: list[list[CollectiveOp]] = [[] for _ in range(num_ranks)]
    for op_index, op, layout, step in _replay(schedule):
        if step is not None:
            if step.q == 0:
                continue
            group_size = 1 << step.q
            moved = shard_bytes * (group_size - 1) // group_size
            for rank in range(num_ranks):
                base = (rank // group_size) * group_size
                group = tuple(range(base, base + group_size))
                programs[rank].append(
                    CollectiveOp(
                        kind="alltoall",
                        group=group,
                        bytes_sent=moved,
                        op_index=op_index,
                    )
                )
        elif isinstance(op, GateOp):
            gate = op.gate
            if (
                not gate.is_diagonal
                and gate.is_monomial
                and not all(layout.is_local(q) for q in gate.qubits)
            ):
                # Rank renumbering: free on the wire, but every rank must
                # agree it happens (it relabels who owns which shard).
                group = tuple(range(num_ranks))
                for rank in range(num_ranks):
                    programs[rank].append(
                        CollectiveOp(
                            kind="renumber",
                            group=group,
                            bytes_sent=0,
                            op_index=op_index,
                        )
                    )
    return programs


def predict_comm_stats(
    schedule: Schedule, *, shard_bytes: int | None = None
) -> dict:
    """The comm counters a clean run of *schedule* must produce.

    Matches :class:`~repro.distributed.comm.CommStats` arithmetic
    exactly: one all-to-all step per effective swap, ``2**(g-q)`` group
    calls each, and ``shard_bytes * (2**q - 1) / 2**q`` bytes shipped per
    rank.
    """
    n, l = schedule.num_qubits, schedule.local_qubits
    g = n - l
    if shard_bytes is None:
        shard_bytes = (1 << l) * 16
    steps = 0
    calls = 0
    total_bytes = 0
    for _, _, _, step in _replay(schedule):
        if step is None or step.q == 0:
            continue
        group_size = 1 << step.q
        num_groups = 1 << (g - step.q)
        moved_per_rank = shard_bytes * (group_size - 1) // group_size
        steps += 1
        calls += num_groups
        total_bytes += moved_per_rank * group_size * num_groups
    return {
        "alltoall_steps": steps,
        "group_alltoall_calls": calls,
        "bytes_on_network": total_bytes,
    }


# ----------------------------------------------------------------------
# Verifiers
# ----------------------------------------------------------------------
def check_collectives(
    programs: list[list], *, max_findings: int = 20
) -> CheckReport:
    """Lockstep-match per-rank comm programs; flag every disagreement.

    Fires collectives the way ranks would enter them: repeatedly the
    lowest rank whose next op can fire — every member of its group,
    itself included, posts a matching op (same kind, same group, same
    byte count) as *their* next op — advances the whole group.  Only when
    no group can fire does the lowest unfinished rank lead, and each
    deviation of its group from its op is a ``collective-mismatch``
    error pinned to the offending rank.  (Leading with the lowest rank
    unconditionally would match ranks 0-1's world-wide op against ranks
    2-3's still-pending group-local one.)
    """
    report = CheckReport(checks_run=["collectives"])
    heads = [0] * len(programs)

    def finished(rank: int) -> bool:
        return heads[rank] >= len(programs[rank])

    def matches(member: int, op) -> bool:
        if not 0 <= member < len(programs) or finished(member):
            return False
        peer = programs[member][heads[member]]
        return (
            isinstance(peer, CollectiveOp)
            and peer.kind == op.kind
            and peer.group == op.group
            and peer.bytes_sent == op.bytes_sent
        )

    def can_fire(rank: int) -> bool:
        op = programs[rank][heads[rank]]
        return (
            isinstance(op, CollectiveOp)
            and rank in op.group
            and all(matches(member, op) for member in op.group)
        )

    while len(report.findings) < max_findings:
        pending = [r for r in range(len(programs)) if not finished(r)]
        if not pending:
            break
        ready = next((r for r in pending if can_fire(r)), None)
        if ready is not None:
            for member in programs[ready][heads[ready]].group:
                heads[member] += 1
            continue
        leader = pending[0]
        op = programs[leader][heads[leader]]
        if not isinstance(op, CollectiveOp):
            report.add(
                _E, "collective-mismatch",
                f"non-collective op {type(op).__name__} in a collective-"
                "only program",
                rank=leader, op_index=op.op_index,
            )
            heads[leader] += 1
            continue
        ok = True
        for member in op.group:
            if member >= len(programs) or member < 0:
                report.add(
                    _E, "collective-mismatch",
                    f"collective group references rank {member} outside "
                    f"the job (0..{len(programs) - 1})",
                    rank=leader, op_index=op.op_index,
                )
                ok = False
                continue
            if finished(member):
                report.add(
                    _E, "collective-mismatch",
                    f"rank {member} posts no collective for "
                    f"{op.kind} over group {op.group} (program exhausted)",
                    rank=member, op_index=op.op_index,
                    hint="the rank would never enter the collective: "
                    "peers hang waiting for it",
                )
                ok = False
                continue
            peer = programs[member][heads[member]]
            if not isinstance(peer, CollectiveOp) or peer.kind != op.kind:
                report.add(
                    _E, "collective-mismatch",
                    f"rank {member} posts "
                    f"{getattr(peer, 'kind', type(peer).__name__)!r} while "
                    f"rank {leader} posts {op.kind!r}",
                    rank=member, op_index=op.op_index,
                )
                ok = False
            elif peer.group != op.group:
                report.add(
                    _E, "collective-mismatch",
                    f"rank {member} disagrees on group membership: "
                    f"{peer.group} vs {op.group}",
                    rank=member, op_index=op.op_index,
                    hint="mismatched groups interleave two collectives; "
                    "on real MPI this corrupts buffers or deadlocks",
                )
                ok = False
            elif peer.bytes_sent != op.bytes_sent:
                report.add(
                    _E, "collective-mismatch",
                    f"rank {member} ships {peer.bytes_sent} bytes while "
                    f"rank {leader} ships {op.bytes_sent}",
                    rank=member, op_index=op.op_index,
                    hint="unequal element counts truncate or overrun "
                    "receive buffers",
                )
                ok = False
        # Advance every member that posted a matching head so one bad
        # rank does not cascade into phantom findings downstream.
        for member in [m for m in set(op.group) | {leader} if matches(m, op)]:
            heads[member] += 1
        if not ok and all(
            finished(r) or r in op.group for r in range(len(programs))
        ):
            break  # nothing left to make progress on
    return report


def check_comm_stats(
    schedule: Schedule,
    stats,
    *,
    shard_bytes: int | None = None,
) -> CheckReport:
    """Compare measured/modelled :class:`CommStats` against the plan.

    Byte conservation: every byte the plan says must cross the network
    does so exactly once — a retried exchange double-counts, a skipped
    one under-counts, and both are bugs this check pins.
    """
    report = CheckReport(checks_run=["comm-stats"])
    predicted = predict_comm_stats(schedule, shard_bytes=shard_bytes)
    for key in ("alltoall_steps", "group_alltoall_calls", "bytes_on_network"):
        actual = getattr(stats, key)
        if actual != predicted[key]:
            report.add(
                _E, "byte-conservation",
                f"{key}: plan predicts {predicted[key]}, "
                f"stats report {actual}",
                hint="bytes/steps must match the schedule-induced plan "
                "exactly; retries must not double-count and swaps must "
                "not be skipped",
            )
    return report


def check_deadlock(programs: list[list]) -> CheckReport:
    """Simulate blocking semantics; report cycles and stranded ranks.

    Supports :class:`SendOp`/:class:`RecvOp` (rendezvous),
    :class:`BarrierOp` and :class:`CollectiveOp` (all members must
    arrive).  Progress loop: match everything matchable until quiescence;
    anything still pending is a deadlock, reported as a wait-for cycle
    when one exists, otherwise as a stranded-rank diagnosis.
    """
    report = CheckReport(checks_run=["deadlock"])
    num_ranks = len(programs)
    heads = [0] * num_ranks

    def head(rank: int):
        if heads[rank] < len(programs[rank]):
            return programs[rank][heads[rank]]
        return None

    progress = True
    while progress:
        progress = False
        # Collectives/barriers: fire when every member is parked on a
        # matching op.
        for rank in range(num_ranks):
            op = head(rank)
            if not isinstance(op, (CollectiveOp, BarrierOp)):
                continue
            group = op.group
            if any(not 0 <= m < num_ranks for m in group):
                continue  # unmatchable; left pending for diagnosis
            peers = [head(m) for m in group]
            if all(
                isinstance(p, type(op)) and p.group == group for p in peers
            ):
                for m in group:
                    heads[m] += 1
                progress = True
                break
        if progress:
            continue
        # Rendezvous send/recv pairs.
        for rank in range(num_ranks):
            op = head(rank)
            if isinstance(op, SendOp) and 0 <= op.dst < num_ranks:
                peer = head(op.dst)
                if isinstance(peer, RecvOp) and peer.src == rank:
                    heads[rank] += 1
                    heads[op.dst] += 1
                    progress = True
                    break

    pending = [r for r in range(num_ranks) if head(r) is not None]
    if not pending:
        return report

    # Wait-for graph: rank -> ranks it is blocked on.
    waits: dict[int, list[int]] = {}
    for rank in pending:
        op = head(rank)
        if isinstance(op, SendOp):
            waits[rank] = [op.dst] if 0 <= op.dst < num_ranks else []
        elif isinstance(op, RecvOp):
            waits[rank] = [op.src] if 0 <= op.src < num_ranks else []
        elif isinstance(op, (CollectiveOp, BarrierOp)):
            waits[rank] = [
                m
                for m in op.group
                if 0 <= m < num_ranks
                and (head(m) is None or not _same_collective(head(m), op))
            ]
        else:
            waits[rank] = []

    cycle = _find_cycle(waits)
    if cycle:
        chain = " -> ".join(str(r) for r in cycle + [cycle[0]])
        report.add(
            _E, "deadlock",
            f"wait-for cycle among ranks: {chain}",
            rank=cycle[0],
            op_index=getattr(head(cycle[0]), "op_index", None),
            hint="each rank in the cycle blocks on the next; reorder the "
            "sends/recvs or use nonblocking ops",
        )
    for rank in pending:
        op = head(rank)
        blockers = waits.get(rank, [])
        terminated = [b for b in blockers if head(b) is None]
        if terminated:
            report.add(
                _E, "deadlock",
                f"rank {rank} blocks on terminated rank(s) {terminated} "
                f"in {type(op).__name__}",
                rank=rank, op_index=getattr(op, "op_index", None),
                hint="a peer finished its program without posting the "
                "matching operation",
            )
        elif not blockers and not cycle:
            report.add(
                _E, "deadlock",
                f"rank {rank} blocks forever in {type(op).__name__} "
                "with no matching peer",
                rank=rank, op_index=getattr(op, "op_index", None),
            )
    if not report.findings:
        # Pending ranks but neither a cycle nor a stranded diagnosis:
        # still a hang (e.g. mutual collectives with different groups).
        report.add(
            _E, "deadlock",
            f"ranks {pending} cannot make progress",
            rank=pending[0],
            op_index=getattr(head(pending[0]), "op_index", None),
        )
    return report


def _same_collective(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, CollectiveOp):
        return a.kind == b.kind and a.group == b.group
    return a.group == b.group


def _find_cycle(waits: dict[int, list[int]]) -> list[int] | None:
    """First cycle in the wait-for graph (iterative DFS), or None."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {r: WHITE for r in waits}
    parent: dict[int, int] = {}
    for root in waits:
        if color[root] != WHITE:
            continue
        stack = [(root, iter(waits.get(root, ())))]
        color[root] = GREY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in color:
                    continue
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(waits.get(nxt, ()))))
                    advanced = True
                    break
                if color[nxt] == GREY:
                    cycle = [node]
                    cur = node
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
        # continue to next root
    return None
