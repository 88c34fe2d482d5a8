"""Fig. 2: roofline plots of the kernel optimization steps.

Regenerates the Edison-socket (2a) and Cori-II-KNL (2b) roofline points
for the 1- and 4-qubit kernels across the three optimization steps, and
measures this machine's own kernel throughput at the same operational
intensities (the local analogue of the plotted points).
"""

from __future__ import annotations

import time


from repro.gates import random_unitary
from repro.kernels import apply_gate_indexed, apply_gate_reference
from repro.perfmodel import CORI_KNL_NODE, EDISON_SOCKET, roofline_table
from repro.util.flops import gate_flops, operational_intensity
from repro.util.rng import random_statevector

_N = 20  # 2**20 amplitudes = 16 MiB: representative streaming size


def _measure_gflops(kernel, state, matrix, qubits, k, reps=3) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        kernel(state, matrix, qubits)
        best = min(best, time.perf_counter() - start)
    return gate_flops(_N, k) / best / 1e9


def bench_fig2_roofline(benchmark, report_writer):
    rows = []
    for machine in (EDISON_SOCKET, CORI_KNL_NODE):
        rows.append(f"--- {machine.name} (peak {machine.peak_gflops} GFLOPS) ---")
        rows.append(
            f"{'step':<58} {'OI':>5} {'roof':>8} {'model':>8} {'paper':>8}"
        )
        for p in roofline_table(machine):
            paper = f"{p.paper_gflops:.1f}" if p.paper_gflops else "-"
            rows.append(
                f"{p.label:<58} {p.oi:>5.2f} {p.roof_gflops:>8.1f} "
                f"{p.modeled_gflops:>8.1f} {paper:>8}"
            )
        rows.append("")

    # Local measurements: two-vector baseline vs in-place indexed kernel,
    # k = 1 and k = 4 — the same "optimization step" story on this host.
    state = random_statevector(_N, 0).copy()
    rows.append("--- this machine (measured, 2**20 amplitudes) ---")
    measured = {}
    for k, qubits in [(1, (3,)), (4, (0, 1, 2, 3))]:
        u = random_unitary(k, 0)
        baseline = _measure_gflops(
            lambda s, m, q: apply_gate_reference(s.copy(), m, q),
            state, u, qubits, k,
        )
        tuned = _measure_gflops(
            lambda s, m, q: apply_gate_indexed(s, m, q, chunk_size=1 << 14),
            state,
            u,
            qubits,
            k,
        )
        measured[k] = (baseline, tuned)
        rows.append(
            f"k={k}: OI={operational_intensity(k):.2f}  "
            f"two-vector {baseline:.2f} GFLOPS -> indexed {tuned:.2f} GFLOPS"
        )
    report_writer("fig2_roofline", rows)

    # Shape: the 4-qubit kernel's higher OI must buy higher throughput
    # than the 1-qubit kernel on this memory-bound workload.
    assert measured[4][1] > measured[1][1]

    u4 = random_unitary(4, 0)
    benchmark(apply_gate_indexed, state, u4, (0, 1, 2, 3), chunk_size=1 << 14)
