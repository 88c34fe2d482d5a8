"""Sec. 3.5 absorption: specialized diagonals cost no sweep of their own.

The paper: a specialized global T gate "results in a global phase, which
can be absorbed into the next gate matrix to be applied".  The plan
compiler does that for every schedule: a diagonal on global qubits is an
all-control op, and refusion folds it into a neighbouring sweep, where
its global qubits stay controls each rank's number fixes.  This bench
counts the schedule's specialized global diagonals next to the plan
sweeps that hold nothing but them (the sweeps still spent on them; the
cost table keeps a diagonal apart only where joining a sweep would add
a local control that costs more than its own phase multiply), runs the
plan against the single-node oracle, and compares the sweep count with
the plan compiled without refusion.
"""

from __future__ import annotations

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.plan import PlanConfig, plan_for
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.statevector import Simulator


def bench_absorption_ablation(benchmark, report_writer):
    n, depth, l = 16, 14, 11
    circ = generate_supremacy_circuit(n, depth, seed=8)
    ref = Simulator(n).run(circ).state
    sched = schedule_circuit(circ, SchedulerConfig(local_qubits=l, kmax=4, seed=3))
    res = DistributedSimulator(n, l).run_schedule(sched)
    assert res.state.to_statevector().allclose(ref, atol=1e-9)
    unfused_res = DistributedSimulator(n, l).run_schedule(
        sched, plan_config=PlanConfig(fusion_kmax=0)
    )

    spent = [
        op for op in plan_for(sched).ops
        if op.gate is not None and {s.kind for s in op.sources} == {"specialized"}
    ]
    rows = [
        f"{n}-qubit depth-{depth} circuit, {1 << (n - l)} virtual nodes:",
        f"  {sched.num_specialized_gates} specialized global diagonals in the "
        f"schedule; {len(spent)} plan sweep(s) hold nothing but them "
        f"({sum(op.num_sources for op in spent)} of the diagonals)",
        f"  plan: {res.kernel_cost.total_calls} kernel sweeps "
        f"({res.kernel_cost.diagonal_calls} phase multiplies); without "
        f"refusion: {unfused_res.kernel_cost.total_calls} "
        f"({unfused_res.kernel_cost.diagonal_calls})",
        "",
        "paper Sec. 3.5: absorbed diagonals cost no extra computation",
    ]
    report_writer("absorption_ablation", rows)

    assert sched.num_specialized_gates > 0
    assert len(spent) < sched.num_specialized_gates
    assert res.kernel_cost.total_calls < unfused_res.kernel_cost.total_calls

    sim = DistributedSimulator(n, l)
    benchmark.pedantic(sim.run_schedule, args=(sched,), rounds=1, iterations=1)
