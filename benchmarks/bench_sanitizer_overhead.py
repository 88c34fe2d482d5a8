"""Sanitizer-mode overhead vs plain schedule execution.

``simulate --sanitize`` buys op-pinned NaN/norm/checksum diagnostics by
re-reading every shard at every op boundary.  This bench runs a
20-qubit circuit both ways and reports the cost so users can decide when
to leave the sanitizer armed: the checks are O(state) sweeps against
kernels that are also O(state), so the slowdown is a constant factor,
not an asymptotic change.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.runtime import SanitizerLayer
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.staticcheck import SanitizerConfig, ShardSanitizer


def _sanitized(sim, sched, config=None):
    """Run of *sched* with the sanitizer armed: (state, report)."""
    sanitizer = ShardSanitizer(config)
    result = sim.run_schedule(sched, layers=[SanitizerLayer(sanitizer)])
    return result.state, sanitizer.report


def bench_sanitizer_overhead(benchmark, report_writer, bench_record):
    n, depth, l = 20, 16, 16
    circ = generate_supremacy_circuit(n, depth, seed=0)
    sched = schedule_circuit(circ, SchedulerConfig(local_qubits=l, kmax=4, seed=1))
    num_ops = len(list(sched.operations()))
    sim = DistributedSimulator(n, l)

    sim.run_schedule(sched)  # warm caches so the baseline isn't first-touch
    start = time.perf_counter()
    plain = sim.run_schedule(sched)
    plain_seconds = time.perf_counter() - start

    configs = {
        "nan-only": SanitizerConfig(check_norm=False, check_checksums=False),
        "nan+norm": SanitizerConfig(check_checksums=False),
        "full": SanitizerConfig(),
    }
    rows = [
        f"{n}-qubit depth-{depth} schedule, {1 << (n - l)} virtual ranks, "
        f"{num_ops} ops:",
        "",
        f"{'mode':>10}  {'wall s':>8}  {'overhead s':>10}  {'slowdown':>8}",
        f"{'plain':>10}  {plain_seconds:>8.3f}  {'-':>10}  {'1.00x':>8}",
    ]
    for name, config in configs.items():
        start = time.perf_counter()
        state, report = _sanitized(sim, sched, config)
        wall = time.perf_counter() - start
        assert report.passed, report.format()
        assert np.array_equal(
            plain.state.to_statevector().data, state.to_statevector().data
        )
        rows.append(
            f"{name:>10}  {wall:>8.3f}  {report.overhead_seconds:>10.3f}  "
            f"{wall / plain_seconds:>7.2f}x"
        )

    rows += [
        "",
        "the full sanitizer re-reads every shard per op (NaN scan + norm",
        "+ CRC32), a constant-factor cost against O(state) kernels; arm",
        "it for debugging runs and fault drills, not production sweeps",
    ]
    report_writer("sanitizer_overhead", rows)
    bench_record(
        "sanitizer_overhead",
        seconds=plain_seconds,
        params={"qubits": n, "depth": depth, "local_qubits": l,
                "ops": num_ops},
        bytes_moved=plain.comm.bytes_on_network,
    )

    benchmark.pedantic(
        lambda: _sanitized(sim, sched), rounds=1, iterations=1
    )
