"""Runtime-engine overhead: empty layer stack vs a bare plan loop.

Every schedule run goes through one canonical op loop
(:class:`repro.runtime.ExecutionEngine`) replaying the compiled plan,
with or without layers.  With an empty stack it must therefore cost
essentially nothing over a hand-rolled loop.  This bench replays the
same 20-qubit plan through

* the bare ``_run_op`` loop over the plan's ops, and
* the engine with an empty layer stack,

and asserts the overhead factor stays near its <= 1.05x target.
"""

from __future__ import annotations

import time

from repro.distributed import DistributedState
from repro.plan import plan_for
from repro.plan.executor import _run_op
from repro.runtime import ExecutionEngine


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def bench_runtime_overhead(benchmark, report_writer, bench_record, schedule_cache):
    n, depth, l = 20, 16, 16
    _, sched = schedule_cache(n, l, depth=depth, seed=0)
    plan = plan_for(sched)

    def bare_plan():
        state = DistributedState.for_schedule(sched)
        for plan_op in plan.ops:
            _run_op(plan_op, state)

    def engine_plan():
        ExecutionEngine(plan).run()

    variants = {
        "bare plan loop": bare_plan,
        "engine plan": engine_plan,
    }
    for fn in variants.values():
        fn()  # warm caches; first touch is not the bench
    # Interleave the rounds (best of 5, round-robin) so transient system
    # noise lands on every variant equally instead of skewing one ratio.
    seconds = {name: float("inf") for name in variants}
    for _ in range(5):
        for name, fn in variants.items():
            seconds[name] = min(seconds[name], _timed(fn))

    plan_ratio = seconds["engine plan"] / seconds["bare plan loop"]
    rows = [
        f"{n}-qubit depth-{depth} schedule, {1 << (n - l)} virtual ranks, "
        f"{plan.num_source_ops} ops / {len(plan.ops)} plan ops (best of 5):",
        "",
        f"{'variant':>18}  {'wall s':>8}  {'vs bare':>9}",
    ]
    base = seconds["bare plan loop"]
    for name, wall in seconds.items():
        rows.append(f"{name:>18}  {wall:>8.3f}  {wall / base:>8.2f}x")
    rows += [
        "",
        "the engine with an empty stack adds one unit dispatch per op",
        "against O(state) kernels; anything beyond a few percent means a",
        "per-op allocation or layer check leaked into the op loop",
    ]
    report_writer("runtime_overhead", rows)
    bench_record(
        "runtime_overhead",
        seconds=seconds["engine plan"],
        params={
            "qubits": n,
            "depth": depth,
            "local_qubits": l,
            "ops": plan.num_source_ops,
            "plan_ops": len(plan.ops),
        },
        metrics={"overhead.plan": plan_ratio},
    )

    # Target is <= 1.05x (recorded above; bench_check guards the record
    # against generation-to-generation regressions).  The hard assert
    # carries noise headroom — same convention as the telemetry bench —
    # and only trips on a structural regression in the op loop.
    assert plan_ratio <= 1.15, (
        f"engine plan overhead {plan_ratio:.3f}x > 1.15x"
    )

    benchmark.pedantic(engine_plan, rounds=1, iterations=1)
