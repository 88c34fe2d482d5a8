"""``service_mix``: a closed loop of two clients against ``SimulationService``.

Each client submits its next job when the previous one completed, so a
slower service is offered less load.  One round drains one seeded,
fixed-composition job list (see :mod:`workloads`); ``run_s`` is the wall
time of a drain.  Every job is an operation.
"""

from __future__ import annotations

import asyncio
import gc
import json
import statistics
import time

from repro.circuit import generate_supremacy_circuit
from repro.kernels import GATHER_CACHE
from repro.plan import plan_for
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.service import (
    JobStatus,
    ServiceConfig,
    SimulationService,
    state_fingerprint,
)

from checks import against_simulator, check_state
from engine_runs import (
    Operations,
    compile_costs,
    layer_rows,
    plan_work,
    schedule_counts,
)
from spans import NULL_RECORDER, SpanRecorder
from workloads import (
    DISK_PIPELINE_METRICS,
    HOT_CIRCUITS,
    JOBS_PER_ROUND,
    KMAX,
    SERVICE_CLIENTS,
    SERVICE_WORKERS,
    TENANT_WEIGHTS,
    EngineWorkload,
    execute_once,
    service_hot_specs,
    service_round_jobs,
)

MIN_ROUNDS = 3
MAX_ROUNDS = 40
TRACED_ROUNDS = 3


class JobRecord:
    """Client-side view of one job: its class and the three instants."""

    __slots__ = ("kind", "hot_index", "job", "result", "t_submit", "t_admitted", "t_done")

    def __init__(self, kind, hot_index):
        self.kind = kind
        self.hot_index = hot_index
        self.job = self.result = None
        self.t_submit = self.t_admitted = self.t_done = 0.0


async def cold_start(seed: int):
    """``setup_s`` sample: inputs, service up, every hot circuit solved once."""
    start = time.perf_counter()
    hot = service_hot_specs(seed)
    first_round = service_round_jobs(seed, 0, hot)
    generate_s = time.perf_counter() - start
    service = SimulationService(
        ServiceConfig(
            max_workers=SERVICE_WORKERS, tenant_weights=dict(TENANT_WEIGHTS)
        )
    )
    await service.start()
    hot_results = []
    for spec in hot:
        job = await service.submit(spec)
        hot_results.append((job, await service.wait(job)))
    setup_s = time.perf_counter() - start
    return setup_s, generate_s, service, hot, hot_results, first_round


async def drain(service, jobs, recorder=None, group_prefix=""):
    """One closed-loop round; returns ``(wall_seconds, [JobRecord])``."""
    records = [JobRecord(kind, index) for kind, index, _ in jobs]
    queue = iter(range(len(jobs)))

    async def client():
        for i in queue:  # shared iterator: next job once the previous is done
            record = records[i]
            record.t_submit = time.perf_counter()
            record.job = await service.submit(jobs[i][2])
            record.t_admitted = time.perf_counter()
            record.result = await service.wait(record.job)
            record.t_done = time.perf_counter()
            if recorder is not None:
                group = f"{group_prefix}job{i}"
                recorder.add(
                    "service.submit", record.t_submit, record.t_admitted,
                    group=group,
                )
                recorder.add(
                    "service.wait", record.t_admitted, record.t_done,
                    group=group,
                )

    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        await asyncio.gather(*(client() for _ in range(SERVICE_CLIENTS)))
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    if recorder is not None:
        recorder.add("drain", start, start + wall, group=f"{group_prefix}drain")
    return wall, records


def check_round(records, hot_results, ops: Operations, label: str) -> bool:
    """Every job COMPLETED; duplicates return the hot job's fingerprint."""
    good = True
    for i, record in enumerate(records):
        problem = None
        if record.job is None or record.job.status is not JobStatus.COMPLETED:
            status = record.job.status.value if record.job else "not submitted"
            error = record.result.error if record.result else None
            problem = f"status {status} ({error})"
        elif not record.result.fingerprint:
            problem = "no fingerprint"
        elif record.kind in ("hot", "dup"):
            want = hot_results[record.hot_index][1].fingerprint
            if record.result.fingerprint != want:
                problem = "fingerprint differs from the hot job's"
            elif record.kind == "dup" and not record.result.from_cache:
                problem = "duplicate was executed, not served from cache"
        good &= ops.record(
            f"{label} job {i} ({record.kind})", [problem] if problem else []
        )
    return good


def replay_hot(spec, recorder=NULL_RECORDER, group=None):
    """Re-run one hot circuit on a bare engine with the service's own
    scheduler settings: the bit-exact reference for its fingerprint.
    Returns ``(schedule, schedule_seconds, execution)``."""
    n = spec.circuit.num_qubits
    start = time.perf_counter()
    schedule = schedule_circuit(
        spec.circuit,
        SchedulerConfig(local_qubits=spec.local_qubits, kmax=spec.kmax),
    )
    schedule_s = time.perf_counter() - start
    plan_for(schedule)  # compile outside the replay's spans
    recorder.group = group
    with recorder.span("round"):
        execution = execute_once(
            EngineWorkload(f"hot{n}", n, spec.local_qubits, 0), schedule, recorder
        )
    recorder.group = None
    return schedule, schedule_s, execution


def oracle_check(seed: int) -> dict:
    """The hot generator 6 qubits smaller, engine path vs ``Simulator``."""
    start = time.perf_counter()
    worst, all_ok = 0.0, True
    for i, (n, depth) in enumerate(HOT_CIRCUITS):
        small = n - 6
        circuit = generate_supremacy_circuit(small, depth, seed=seed + i)
        l = max(small - 2, KMAX)
        schedule = schedule_circuit(
            circuit, SchedulerConfig(local_qubits=l, kmax=KMAX)
        )
        err, ok = against_simulator(
            EngineWorkload("oracle", small, l, depth), circuit, schedule
        )
        worst, all_ok = max(worst, err), all_ok and ok
    return {"max_abs_err": worst, "ok": all_ok, "seconds": time.perf_counter() - start}


def _final_checks(ops, hot, hot_results, seed):
    """Hot fingerprints against a bare-engine replay, then the oracle."""
    for i, spec in enumerate(hot):
        _, _, execution = replay_hot(spec)
        _, problems = check_state(execution.state, None)
        fingerprint = state_fingerprint(execution.state.to_statevector())
        execution.release()
        if fingerprint != hot_results[i][1].fingerprint:
            problems.append("service fingerprint differs from the engine replay")
        ops.record(f"hot circuit {i}", problems)
    oracle = oracle_check(seed)
    ops.record_oracle(oracle)
    return oracle


async def _setup_checked(seed, ops):
    setup_s, generate_s, service, hot, hot_results, first_round = await cold_start(seed)
    for i, (job, result) in enumerate(hot_results):
        done = job.status is JobStatus.COMPLETED and result.fingerprint
        ops.record(
            f"warm-up job {i}",
            [] if done else [f"status {job.status.value} ({result.error})"],
        )
    return (setup_s, generate_s), service, hot, hot_results, first_round


async def _run_cold(seed: int) -> dict:
    ops = Operations()
    (setup_s, _), service, *_ = await _setup_checked(seed, ops)
    await service.shutdown()
    return {"setup_s": setup_s, "ops": vars(ops)}


async def _measured_rounds(seed: int, seconds: float, rss_mib, ops):
    (setup_s, _), service, hot, hot_results, jobs = await _setup_checked(seed, ops)
    try:
        rounds: list[float] = []
        index = 0
        deadline = time.perf_counter() + seconds
        while index < MAX_ROUNDS and (
            len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline
        ):
            wall, records = await drain(service, jobs)
            if check_round(records, hot_results, ops, f"round {index}"):
                rounds.append(wall)
            elif ops.failed > JOBS_PER_ROUND:
                break
            index += 1
            jobs = service_round_jobs(seed, index, hot)  # outside the timer
        return setup_s, hot, hot_results, rounds, rss_mib()
    finally:
        await service.shutdown()


def run_measure(seed: int, seconds: float, rss_mib) -> dict:
    """The measuring child: cold start, timed drains, checks, peak RSS."""
    ops = Operations()
    setup_s, hot, hot_results, rounds, peak = asyncio.run(
        _measured_rounds(seed, seconds, rss_mib, ops)
    )
    oracle = _final_checks(ops, hot, hot_results, seed)
    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "jobs_per_round": JOBS_PER_ROUND,
        "peak_rss_mib": peak,
        "oracle": oracle,
        "counts": {},
        "ops": vars(ops),
    }


def _percentile(values, fraction):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


async def _traced_rounds(seed: int, recorder, ops):
    """Alternate untraced and traced drains so drift lands on both."""
    setup, service, hot, hot_results, jobs = await _setup_checked(seed, ops)
    untraced: list[float] = []
    traced: list[float] = []
    all_records = []
    try:
        for index in range(2 * TRACED_ROUNDS):
            if index % 2 == 0:
                wall, records = await drain(service, jobs)
                if check_round(records, hot_results, ops, f"untraced round {index // 2}"):
                    untraced.append(wall)
            else:
                wall, records = await drain(
                    service, jobs, recorder, f"round{index // 2}."
                )
                if check_round(records, hot_results, ops, f"traced round {index // 2}"):
                    traced.append(wall)
                    all_records.extend(records)
            jobs = service_round_jobs(seed, index + 1, hot)
        return setup, hot, untraced, traced, all_records, service.stats()
    finally:
        await service.shutdown()


def _replay_hot_set(hot, recorder, ops) -> tuple[dict, dict, dict]:
    """Bare-engine replays of the hot set: the kernel/swap/engine split
    behind ``service.exec`` and the schedule/compile cost behind a miss.
    Returns ``(layer table, seconds, counts)`` summed over the hot set."""
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    tables = []

    def add(into, values):
        for key, value in values.items():
            into[key] = into.get(key, 0) + value

    for i, spec in enumerate(hot):
        schedule, schedule_s, execution = replay_hot(spec, recorder, f"replay{i}")
        _, problems = check_state(execution.state, None)
        ops.record(f"replay {i}", problems)
        rows, wall = layer_rows(recorder, f"replay{i}")
        rows["wall"] = wall
        tables.append(rows)
        start = time.perf_counter()
        execution.state.to_statevector()
        gather_s = time.perf_counter() - start
        comm = execution.state.stats
        execution.release()
        add(seconds, {
            "scheduling.schedule_s": schedule_s,
            "distributed.gather_s": gather_s,
            **compile_costs(schedule),
        })
        add(counts, {
            **schedule_counts(schedule),
            **plan_work(spec.circuit.num_qubits, schedule),
            "distributed.swaps": comm.alltoall_steps,
            "distributed.bytes_on_network": comm.bytes_on_network,
        })
    table = {key: sum(t[key] for t in tables) for key in tables[0]}
    return table, seconds, counts


def run_trace(seed: int, trace_path) -> dict:
    """The traced child: every per-layer number of ``service_mix``."""
    recorder = SpanRecorder()
    ops = Operations()
    (setup_s, generate_s), hot, untraced, traced, all_records, stats = asyncio.run(
        _traced_rounds(seed, recorder, ops)
    )

    def ms(values):
        return statistics.median(values) * 1e3 if values else 0.0

    latency = [r.t_done - r.t_submit for r in all_records]
    by_kind = {
        kind: [r.t_done - r.t_submit for r in all_records if r.kind == kind]
        for kind in ("hot", "cold", "dup")
    }
    executed = [r for r in all_records if r.job.started_at is not None]
    submit = [r.t_admitted - r.t_submit for r in all_records]
    # Job timestamps are event-loop time (CLOCK_MONOTONIC, as is
    # perf_counter on Linux); differences between them are comparable.
    queue_wait = [
        max(0.0, r.job.started_at - r.job.submitted_at - (r.t_admitted - r.t_submit))
        for r in executed
    ]
    exec_s = [r.job.finished_at - r.job.started_at for r in executed]
    client_seconds = {
        "service.submit": sum(submit),
        "service.queue_wait": sum(queue_wait),
        "service.exec": sum(exec_s),
    }
    total_client = SERVICE_CLIENTS * sum(traced)
    client_seconds["residual"] = total_client - sum(client_seconds.values())
    client_seconds["wall"] = total_client

    table, seconds, counts = _replay_hot_set(hot, recorder, ops)
    cache = GATHER_CACHE.stats()
    oracle = oracle_check(seed)
    ops.record_oracle(oracle)
    trace_path.write_text(json.dumps(recorder.to_json()))

    kernel_s = table["kernels.cluster"] + table["kernels.specialized"]
    swap_s = table["distributed.swap"]
    metrics = {
        **dict.fromkeys(DISK_PIPELINE_METRICS, 0),
        "circuit.generate_s": generate_s,
        **seconds,
        **counts,
        "kernels.table_bytes": cache["bytes_cached"],
        "kernels.table_entries": cache["entries"],
        "kernels.table_hit_rate": stats["gather_cache"]["hit_rate"],
        "kernels.cluster_s": table["kernels.cluster"],
        "kernels.specialized_s": table["kernels.specialized"],
        "kernels.eff_gbps": (
            counts["kernels.bytes_computed"] / kernel_s / 1e9 if kernel_s else 0.0
        ),
        "distributed.init_s": table["distributed.init"],
        "distributed.swap_s": swap_s,
        "distributed.exchange_gbps": (
            counts["distributed.bytes_on_network"] / swap_s / 1e9 if swap_s else 0.0
        ),
        "runtime.engine_self_s": table["runtime.engine_self"],
        "service.jobs_per_s": len(all_records) / sum(traced) if traced else 0.0,
        "service.job_latency_p50_ms": ms(latency),
        "service.job_latency_p95_ms": (
            _percentile(latency, 0.95) * 1e3 if latency else 0.0
        ),
        "service.latency_ms.hot": ms(by_kind["hot"]),
        "service.latency_ms.cold": ms(by_kind["cold"]),
        "service.latency_ms.dup": ms(by_kind["dup"]),
        "service.submit_p50_ms": ms(submit),
        "service.queue_wait_p50_ms": ms(queue_wait),
        "service.exec_p50_ms": ms(exec_s),
        "service.plan_cache.hit_rate": stats["plan_cache"]["hit_rate"],
        "service.result_cache.hit_rate": stats["result_cache"]["hit_rate"],
        "service.rejected": stats["jobs"].get("rejected", 0),
        "service.failed": stats["jobs"].get("failed", 0),
        "statevector.oracle_s": oracle["seconds"],
        "statevector.max_abs_err": oracle["max_abs_err"],
        "telemetry.trace_overhead_frac": (
            statistics.median(traced) / statistics.median(untraced) - 1.0
            if traced and untraced else 0.0
        ),
    }
    return {
        "setup_s": setup_s,
        "untraced_rounds": untraced,
        "traced_rounds": traced,
        "latency_samples": len(latency),
        "layer_table": client_seconds,
        "replay_table": table,
        "metrics": metrics,
        "oracle": oracle,
        "ops": vars(ops),
    }


def run_cold(seed: int) -> dict:
    """A cold-only child: one ``setup_s`` sample."""
    return asyncio.run(_run_cold(seed))
