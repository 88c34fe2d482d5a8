"""Compile-time kernel-table warm-up — nothing is left to warm.

The dense kernel computes its addresses from bit positions
(:class:`repro.kernels.DenseSweep`), so a compiled plan has no
shard-sized table to build ahead of execution, and
:func:`~repro.plan.compile_program` no longer calls into this module.

Only ``benchmarks/e2e/engine_runs.py`` (read-only for the PR that
removed the tables) still imports :func:`warm_plan_tables`, to time
``plan.table_build_s``.  A follow-up ``benchmark`` PR should drop
``plan.table_build_s`` and the ``kernels.table_*`` metrics, re-price
``kernels.bytes_computed`` (see ``docs/benchmarks.md``), and delete this
module with them.
"""

from __future__ import annotations

__all__ = ["warm_plan_tables"]


def warm_plan_tables(program) -> int:
    """Number of cache entries warmed for *program*: always 0."""
    return 0
