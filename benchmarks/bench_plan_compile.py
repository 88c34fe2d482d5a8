"""Plan compilation benchmarks.

Measures what the compiled-execution-plan layer costs on this host: how
long ``compile_program`` takes on the headline 18-qubit depth-16
schedule (compilation is a one-off cost amortised over every rank and
rerun; with the table-free dense kernel it builds nothing shard-sized),
and what executing that plan leaves in the kernel cache — phase factors
only, no entry that grows with the shard (flat phase factors stop at
2**16 amplitudes = 1 MiB), and nothing new on a second run.
"""

from __future__ import annotations

import time

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.kernels import GATHER_CACHE
from repro.plan import compile_program, plan_for
from repro.scheduling import SchedulerConfig, schedule_circuit

_N, _DEPTH, _L = 18, 16, 14

#: ``compile_program`` on the headline schedule: ~3 ms of passes on this
#: host (a cold compile took ~30 ms when it also built gather tables).
_COMPILE_SECONDS_GATE = 0.02

#: Largest entry the kernel cache may hold whatever the shard size: a
#: flat diagonal factor at ``tables._FLAT_DIAG_MAX_QUBITS`` = 16 qubits.
_CACHE_ENTRY_BYTES_CAP = 16 << 16


@pytest.fixture(scope="module")
def circuit():
    return generate_supremacy_circuit(_N, _DEPTH, seed=0)


@pytest.fixture(scope="module")
def schedule(circuit):
    return schedule_circuit(circuit, SchedulerConfig(local_qubits=_L, kmax=4, seed=1))


def bench_plan_compile(benchmark, schedule, report_writer, bench_record):
    # Time compilation itself (fresh CompiledProgram each round, no
    # plan_for memoisation involved).
    compile_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        plan = compile_program(schedule)
        compile_seconds = min(compile_seconds, time.perf_counter() - start)

    # Compile is gated on seconds: it used to build every gather table
    # the run would look up (tens of ms here); now it only runs passes.
    assert compile_seconds < _COMPILE_SECONDS_GATE, (
        f"compile_program took {compile_seconds * 1e3:.1f} ms "
        f">= {_COMPILE_SECONDS_GATE * 1e3:.0f} ms"
    )

    # Execute the plan from a cold cache: only diagonal factors may
    # appear, none larger than the shard-independent cap; a second run
    # must be fully warm (zero new misses).
    GATHER_CACHE.clear()
    sim = DistributedSimulator(_N, _L)
    result = sim.run_schedule(schedule)
    stats = GATHER_CACHE.stats()
    hits, misses = stats["hits"], stats["misses"]
    assert result.state.norm() == pytest.approx(1.0)
    families = sorted({key[0] for key in GATHER_CACHE._entries})
    largest = max(
        (nbytes for _, nbytes in GATHER_CACHE._entries.values()), default=0
    )
    assert set(families) <= {"diag"}, families
    assert largest <= _CACHE_ENTRY_BYTES_CAP, (
        f"a cache entry of {largest} B exceeds the shard-independent "
        f"cap ({_CACHE_ENTRY_BYTES_CAP} B)"
    )
    sim.run_schedule(schedule)
    assert GATHER_CACHE.misses == misses, "warm run built new tables"

    counts = plan.counts
    rows = [
        f"{_N}-qubit depth-{_DEPTH} schedule, {1 << (_N - _L)} virtual ranks "
        f"(l={_L})",
        f"compile: {len(plan.ops)} plan ops from {plan.num_source_ops} "
        f"schedule ops in {compile_seconds * 1e3:.2f} ms",
        f"  kernel={counts['kernel_ops']} "
        f"fused_kernel={counts['fused_kernel_ops']} "
        f"(refused away {counts['refused_away_ops']}) "
        f"swap={counts['swap_ops']} passthrough={counts['passthrough_ops']}; "
        f"{counts['structured_ops']} with controls",
        f"kernel cache after a cold run: {stats['entries']} entries "
        f"({'/'.join(families)}), {stats['bytes_cached'] / 1e3:.1f} kB, "
        f"largest {largest} B (cap {_CACHE_ENTRY_BYTES_CAP} B); "
        f"{hits} hits / {misses} misses",
    ]
    report_writer("plan_compile", rows)
    bench_record(
        "plan_compile",
        seconds=compile_seconds,
        params={"qubits": _N, "depth": _DEPTH, "local_qubits": _L, "kmax": 4},
        metrics={
            "plan_ops": len(plan.ops),
            "source_ops": plan.num_source_ops,
            "fused_kernel_ops": counts["fused_kernel_ops"],
            "refused_away_ops": counts["refused_away_ops"],
            "cache_hits": hits,
            "cache_misses": misses,
            "cache_entries": stats["entries"],
            "cache_bytes": stats["bytes_cached"],
            "cache_largest_entry_bytes": largest,
        },
    )
    benchmark.pedantic(compile_program, args=(schedule,), rounds=3, iterations=1)


def bench_plan_reuse(benchmark, schedule):
    """plan_for memoises on the schedule: a warm lookup is ~free."""
    plan_for(schedule)  # warm
    benchmark(plan_for, schedule)
