"""Static schedule verification plus runtime sanitizers.

Layered like an analyzer stack:

1. :mod:`~repro.staticcheck.schedule_checker` — structural invariants of
   a :class:`~repro.scheduling.Schedule` (global-set shape, cluster
   width/locality, swap shape, specialization legality, gate
   coverage/order, fused-matrix unitarity).
2. :mod:`~repro.staticcheck.comm_checker` — byte conservation: a run's
   :class:`~repro.distributed.comm.CommStats` against the all-to-alls
   the schedule's swap points imply.
3. :mod:`~repro.staticcheck.sanitizer` — opt-in runtime mode wrapping
   execution with NaN/Inf, norm-conservation and shard-checksum checks.
4. :mod:`~repro.staticcheck.diagnostics` — the shared findings model.

Every rank runs in one process from one
:class:`~repro.distributed.QubitLayout`, so there is no per-rank
communication program to match: ranks cannot disagree on a collective.

Invariants of the *source* itself (one op loop, lock order, no blocking
calls on the event loop, ...) are tier-1 tests over the AST in
``tests/staticcheck/test_source_invariants.py``.

:func:`verify_schedule` is the one-call entry point the ``repro check``
CLI and ``simulate --strict`` use.
"""

from __future__ import annotations

from repro.staticcheck.comm_checker import check_comm_stats, predict_comm_stats
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
from repro.staticcheck.schedule_checker import verify_schedule

__all__ = [
    "CATEGORIES",
    "CheckReport",
    "Finding",
    "SanitizerConfig",
    "SanitizerReport",
    "Severity",
    "ShardSanitizer",
    "StaticCheckError",
    "check_comm_stats",
    "predict_comm_stats",
    "verify_schedule",
]
