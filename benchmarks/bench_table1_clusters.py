"""Table 1: gate clustering for depth-25 supremacy circuits.

Regenerates the cluster counts for 30/36/42/45 qubits and kmax 3/4/5
with 30 local qubits, and times the scheduling pre-computation per
(shape, kmax) (the paper quotes "less than 3 seconds using Python" per
instance).
"""

from __future__ import annotations

import time

from repro.circuit import circuit_stats, generate_supremacy_circuit
from repro.scheduling import SchedulerConfig, schedule_circuit

PAPER = {
    # (qubits, kmax): clusters; plus the paper's gate totals.
    (30, 3): 82, (30, 4): 46, (30, 5): 36,
    (36, 3): 98, (36, 4): 53, (36, 5): 41,
    (42, 3): 111, (42, 4): 58, (42, 5): 46,
    (45, 3): 111, (45, 4): 73, (45, 5): 51,
}
PAPER_GATES = {30: 369, 36: 447, 42: 528, 45: 569}


def bench_table1_clusters(benchmark, report_writer):
    """Full Table 1 sweep; the benchmark times one representative
    scheduling run (36 qubits, kmax=4)."""
    rows = [
        f"{'qubits':>6} {'gates':>6} {'(paper)':>8} "
        f"{'k3':>5} {'(p)':>5} {'k4':>5} {'(p)':>5} {'k5':>5} {'(p)':>5} "
        f"{'gates/cluster(k5)':>18} {'s(k3)':>6} {'s(k4)':>6} {'s(k5)':>6}"
    ]
    for nq in (30, 36, 42, 45):
        circuit = generate_supremacy_circuit(nq, 25, seed=0)
        total = circuit_stats(circuit).total_gates
        clusters, seconds = {}, {}
        gpc = 0.0
        for kmax in (3, 4, 5):
            start = time.perf_counter()
            sched = schedule_circuit(
                circuit, SchedulerConfig(local_qubits=30, kmax=kmax, seed=1)
            )
            seconds[kmax] = time.perf_counter() - start
            clusters[kmax] = sched.num_clusters
            if kmax == 5:
                gpc = sched.gates_per_cluster()
        rows.append(
            f"{nq:>6} {total:>6} {PAPER_GATES[nq]:>8} "
            f"{clusters[3]:>5} {PAPER[(nq, 3)]:>5} "
            f"{clusters[4]:>5} {PAPER[(nq, 4)]:>5} "
            f"{clusters[5]:>5} {PAPER[(nq, 5)]:>5} "
            f"{gpc:>18.2f} "
            f"{seconds[3]:>6.2f} {seconds[4]:>6.2f} {seconds[5]:>6.2f}"
        )
        # Shape assertions: monotone in kmax, >kmax gates merged on average.
        assert clusters[3] > clusters[4] > clusters[5]
        assert gpc > 5.0
    report_writer("table1_clusters", rows)

    circuit36 = generate_supremacy_circuit(36, 25, seed=0)

    def schedule_once():
        return schedule_circuit(
            circuit36, SchedulerConfig(local_qubits=30, kmax=4, seed=1)
        )

    result = benchmark.pedantic(schedule_once, rounds=1, iterations=1)
    # The paper: pre-computation terminates in 1-3 s on a laptop.  Our
    # pure-Python search budget is similar; assert it stays interactive.
    assert result.num_clusters > 0
