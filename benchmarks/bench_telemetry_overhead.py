"""Telemetry overhead: tracing off vs spans vs spans+metrics.

The observability layer is disabled by default and must stay near-free in
that mode: the instrumented hot paths pay one attribute check per op.
Turned on, it only times what runs — the same sweeps, on the same pool —
so every tier must stay a modest constant factor on both ends of the
rank count: 16 ranks x 2**16 amplitudes, and the 1024 ranks x 2**11 of
the ``swap_21q`` workload, where anything done per rank would show.
"""

from __future__ import annotations

import time

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.telemetry import Telemetry

#: (qubits, local qubits, depth): few large shards, many small ones.
SHAPES = ((20, 16, 16), (21, 11, 32))
MODES = {
    "off": lambda: None,
    "spans": Telemetry.spans_only,
    "spans+metrics": Telemetry.enabled,
}


def _timed_run(n: int, l: int, sched, telemetry) -> float:
    sim = DistributedSimulator(n, l, telemetry=telemetry)
    start = time.perf_counter()
    sim.run_schedule(sched)
    return time.perf_counter() - start


def bench_telemetry_overhead(benchmark, report_writer, bench_record):
    rows, metrics, slowdowns, schedules, offs = [], {}, {}, [], []
    for n, l, depth in SHAPES:
        sched = schedule_circuit(
            generate_supremacy_circuit(n, depth, seed=0),
            SchedulerConfig(local_qubits=l, kmax=4, seed=1),
        )
        schedules.append(sched)
        num_ops = len(list(sched.operations()))
        _timed_run(n, l, sched, None)  # warm caches; first touch is not the bench

        # Best-of-3 per mode: wall time on a shared host is noisy and we
        # are comparing ~constant-factor differences.
        walls = {
            name: min(_timed_run(n, l, sched, make()) for _ in range(3))
            for name, make in MODES.items()
        }
        shape = f"{n}q_{1 << (n - l)}r"
        rows += [
            f"{n}-qubit depth-{depth} schedule, {1 << (n - l)} virtual ranks "
            f"x 2**{l}, {num_ops} ops (best of 3):",
            "",
            f"{'mode':>14}  {'wall s':>8}  {'slowdown':>8}",
        ]
        for name, wall in walls.items():
            slowdowns[shape, name] = wall / walls["off"]
            metrics[f"slowdown.{shape}.{name}"] = wall / walls["off"]
            rows.append(f"{name:>14}  {wall:>8.3f}  {wall / walls['off']:>7.2f}x")
        rows.append("")
        offs.append(walls["off"])
    rows += [
        "disabled telemetry is one attribute check per op; span recording",
        "adds dict+list work per op and metric histograms a bit more —",
        "constant factors against O(state) kernels, whatever the rank count",
    ]
    report_writer("telemetry_overhead", rows)
    bench_record(
        "telemetry_overhead",
        seconds=offs[0],
        params={"shapes": [list(shape) for shape in SHAPES]},
        metrics=metrics,
    )

    # Every tier must stay a modest constant factor on real kernels, on
    # both shapes; 2x is far above its steady-state cost and only trips
    # on a pathological regression (spans on the per-amplitude or
    # per-rank path).
    for (shape, name), slowdown in slowdowns.items():
        assert slowdown <= 2.0, f"{shape} {name}: {slowdown:.2f}x > 2.0x"

    n, l, _ = SHAPES[0]
    benchmark.pedantic(
        lambda: _timed_run(n, l, schedules[0], None), rounds=1, iterations=1
    )
