"""Static schedule & comm-plan verification plus runtime sanitizers.

Layered like an analyzer stack:

1. :mod:`~repro.staticcheck.schedule_checker` — structural invariants of
   a :class:`~repro.scheduling.Schedule` (cluster width/locality, swap
   shape, specialization legality, gate coverage/order, mapping
   bijection, fused-matrix unitarity).
2. :mod:`~repro.staticcheck.comm_checker` — symbolic replay of the
   induced communication plan (collective lockstep matching, byte
   conservation against :class:`~repro.distributed.comm.CommStats`,
   wait-for-graph deadlock detection).
3. :mod:`~repro.staticcheck.sanitizer` — opt-in runtime mode wrapping
   execution with NaN/Inf, norm-conservation and shard-checksum checks.
4. :mod:`~repro.staticcheck.diagnostics` — the shared findings model.

Invariants of the *source* itself (one op loop, lock order, no blocking
calls on the event loop, ...) are tier-1 tests over the AST in
``tests/staticcheck/test_source_invariants.py``.

:func:`verify_schedule` is the one-call entry point the ``repro check``
CLI and ``simulate --strict`` use.
"""

from __future__ import annotations

from repro.staticcheck.comm_checker import (
    BarrierOp,
    CollectiveOp,
    RecvOp,
    SendOp,
    check_collectives,
    check_comm_stats,
    check_deadlock,
    comm_plan_for_schedule,
    predict_comm_stats,
)
from repro.staticcheck.diagnostics import (
    CATEGORIES,
    CheckReport,
    Finding,
    Severity,
    StaticCheckError,
)
from repro.staticcheck.sanitizer import (
    SanitizerConfig,
    SanitizerReport,
    ShardSanitizer,
)
from repro.staticcheck.schedule_checker import check_mapping, check_schedule

__all__ = [
    "CATEGORIES",
    "BarrierOp",
    "CheckReport",
    "CollectiveOp",
    "Finding",
    "RecvOp",
    "SanitizerConfig",
    "SanitizerReport",
    "SendOp",
    "Severity",
    "ShardSanitizer",
    "StaticCheckError",
    "check_collectives",
    "check_comm_stats",
    "check_deadlock",
    "check_mapping",
    "check_schedule",
    "comm_plan_for_schedule",
    "predict_comm_stats",
    "verify_schedule",
]


def verify_schedule(
    schedule,
    *,
    unitary_tol: float = 1e-9,
    check_unitarity: bool = True,
    check_comm: bool = True,
) -> CheckReport:
    """Run every static pass over *schedule* and fold into one report.

    Structural passes always run; with ``check_comm`` the induced comm
    plan is derived and its collectives lockstep-verified and
    deadlock-checked too (self-consistency: a correct scheduler always
    passes, a corrupted plan does not).
    """
    report = check_schedule(
        schedule, unitary_tol=unitary_tol, check_unitarity=check_unitarity
    )
    if check_comm:
        programs = comm_plan_for_schedule(schedule)
        report.extend(check_collectives(programs))
        report.extend(check_deadlock(programs))
    return report
