"""Byte conservation: a run's communication counters against its schedule.

A schedule's communication is fully determined before any amplitude
exists: every swap point exchanges ``q`` qubits — those global in one
stage and local in the next — in one group-local all-to-all (Sec. 3.4,
Fig. 3).  :func:`predict_comm_stats` derives the counters a clean run
must record from the stage global sets alone, and
:func:`check_comm_stats` compares a run's
:class:`~repro.distributed.comm.CommStats` against them
(``byte-conservation``): a retried exchange double-counts, a skipped one
under-counts.
"""

from __future__ import annotations

from repro.scheduling.program import Schedule
from repro.staticcheck.diagnostics import CheckReport, Severity

__all__ = ["check_comm_stats", "predict_comm_stats"]


def predict_comm_stats(schedule: Schedule, shard_bytes: int) -> dict:
    """The comm counters a clean run of *schedule* must produce.

    *shard_bytes* is the run's shard size (``state.storage.shard_bytes``:
    it depends on the amplitude dtype).  Matches
    :class:`~repro.distributed.comm.CommStats` arithmetic exactly: one
    all-to-all step per effective swap, ``2**(g-q)`` group calls each,
    and ``shard_bytes * (2**q - 1) / 2**q`` bytes shipped per rank.
    """
    g = schedule.num_qubits - schedule.local_qubits
    steps = 0
    calls = 0
    total_bytes = 0
    for prev, cur in zip(schedule.stages, schedule.stages[1:]):
        q = len(prev.global_qubits - cur.global_qubits)
        if q == 0:
            continue
        group_size = 1 << q
        num_groups = 1 << (g - q)
        moved_per_rank = shard_bytes * (group_size - 1) // group_size
        steps += 1
        calls += num_groups
        total_bytes += moved_per_rank * group_size * num_groups
    return {
        "alltoall_steps": steps,
        "group_alltoall_calls": calls,
        "bytes_on_network": total_bytes,
    }


def check_comm_stats(schedule: Schedule, stats, shard_bytes: int) -> CheckReport:
    """Compare a run's :class:`CommStats` against the schedule.

    Byte conservation: every byte the schedule says must cross the
    network does so exactly once.
    """
    report = CheckReport(checks_run=["comm-stats"])
    predicted = predict_comm_stats(schedule, shard_bytes)
    for key in ("alltoall_steps", "group_alltoall_calls", "bytes_on_network"):
        actual = getattr(stats, key)
        if actual != predicted[key]:
            report.add(
                Severity.ERROR, "byte-conservation",
                f"{key}: schedule predicts {predicted[key]}, "
                f"stats report {actual}",
                hint="bytes/steps must match the schedule exactly; "
                "retries must not double-count and swaps must not be "
                "skipped",
            )
    return report
