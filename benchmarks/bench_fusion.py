"""Cluster-refusion benchmark: batched multi-op kernels vs op-by-op.

A fusion-friendly workload (long runs of adjacent dense 2-qubit
clusters on one local window, scheduled with a small cluster ``kmax`` so
the plan compiler's refusion pass is the only thing that can merge
them) executed under ``fusion_kmax=6`` vs ``fusion_kmax=0``.  The ratio
is the headline number of Fusion v2 and is gated at >= 1.3x.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.distributed import DistributedState
from repro.gates.gate import Gate
from repro.plan import PlanConfig, compile_program
from repro.scheduling import SchedulerConfig, schedule_circuit

#: Fusion-friendly workload shape: a smaller split keeps the bench fast
#: while leaving plenty of dense work per kernel sweep.
_FN, _FL = 16, 12


def _random_unitary(rng, k: int) -> np.ndarray:
    a = rng.standard_normal((1 << k, 1 << k))
    b = rng.standard_normal((1 << k, 1 << k))
    q, _ = np.linalg.qr(a + 1j * b)
    return q


def _fusion_friendly_circuit() -> Circuit:
    """Runs of dense 2-qubit gates on one overlapping local window.

    Scheduled with cluster ``kmax=2`` every gate becomes its own small
    cluster; only the refusion pass can merge the runs, so the on/off
    delta isolates exactly what Fusion v2 adds.
    """
    rng = np.random.default_rng(7)
    circuit = Circuit(_FN)
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2), (1, 3), (2, 4)]
    for step in range(3):
        for a, b in pairs:
            circuit.append(
                Gate(f"u2_{step}_{a}_{b}", (a, b), _random_unitary(rng, 2))
            )
    return circuit


def _fresh_state(schedule) -> DistributedState:
    return DistributedState(
        schedule.num_qubits,
        schedule.local_qubits,
        init=getattr(schedule, "initial_state", "zero"),
        initial_global_qubits=schedule.initial_global_qubits or None,
    )


def _best_execution_seconds(schedule, config, *, repeats: int = 3) -> float:
    program = compile_program(schedule, config)
    best = float("inf")
    for _ in range(repeats):
        state = _fresh_state(schedule)
        start = time.perf_counter()
        program.execute(state)
        best = min(best, time.perf_counter() - start)
    return best


def bench_fusion(benchmark, report_writer, bench_record):
    circuit = _fusion_friendly_circuit()
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=_FL, kmax=2, seed=1)
    )
    fused_cfg = PlanConfig(fusion_kmax=6)
    unfused_cfg = PlanConfig(fusion_kmax=0)
    fused_plan = compile_program(schedule, fused_cfg)
    unfused_plan = compile_program(schedule, unfused_cfg)

    fused_seconds = _best_execution_seconds(schedule, fused_cfg)
    unfused_seconds = _best_execution_seconds(schedule, unfused_cfg)
    ratio = unfused_seconds / fused_seconds

    # Same physics either way.
    s_fused, s_unfused = _fresh_state(schedule), _fresh_state(schedule)
    fused_plan.execute(s_fused)
    unfused_plan.execute(s_unfused)
    np.testing.assert_allclose(
        s_fused.to_statevector().data,
        s_unfused.to_statevector().data,
        atol=1e-10,
    )

    assert ratio >= 1.3, (
        f"fusion on/off ratio {ratio:.2f}x < 1.3x "
        f"(fused {fused_seconds * 1e3:.2f} ms, "
        f"unfused {unfused_seconds * 1e3:.2f} ms)"
    )

    rows = [
        f"fusion-friendly workload: {len(circuit)} dense 2q gates, "
        f"{_FN} qubits (l={_FL}), cluster kmax=2",
        f"  fused (fusion_kmax=6): {len(fused_plan.ops)} plan ops, "
        f"{fused_seconds * 1e3:.2f} ms",
        f"  unfused (fusion_kmax=0): {len(unfused_plan.ops)} plan ops, "
        f"{unfused_seconds * 1e3:.2f} ms",
        f"  on/off ratio: {ratio:.2f}x (gate: >= 1.3x)",
    ]
    report_writer("fusion", rows)
    bench_record(
        "fusion",
        seconds=fused_seconds,
        params={
            "qubits": _FN,
            "local_qubits": _FL,
            "gates": len(circuit),
            "cluster_kmax": 2,
        },
        metrics={
            "ratio": ratio,
            "fused_seconds": fused_seconds,
            "unfused_seconds": unfused_seconds,
            "fused_plan_ops": len(fused_plan.ops),
            "unfused_plan_ops": len(unfused_plan.ops),
            "refused_away_ops": fused_plan.counts["refused_away_ops"],
        },
    )

    state = _fresh_state(schedule)
    benchmark.pedantic(
        fused_plan.execute, args=(state,), rounds=3, iterations=1
    )
    assert state is not None
    assert s_fused.norm() == pytest.approx(1.0)
