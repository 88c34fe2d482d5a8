"""Cold start, timed rounds and the traced pass of the engine workloads."""

from __future__ import annotations

import gc
import json
import statistics
import time

from repro.kernels import GATHER_CACHE
from repro.plan import compile_program, plan_for
from repro.plan.warmup import warm_plan_tables

from checks import check_state, oracle_check
from spans import NULL_RECORDER, SpanRecorder
from workloads import (
    DISK_PIPELINE_METRICS,
    SERVICE_METRICS,
    EngineWorkload,
    engine_inputs,
    engine_schedule,
    execute_once,
)

MAX_ROUNDS = 40
TRACED_ROUNDS = 3


def cold_start(workload: EngineWorkload, seed: int, recorder=NULL_RECORDER):
    """Time to first solution after imports: the ``setup_s`` sample.

    generate input -> ``schedule_circuit`` -> ``plan_for`` (passes and
    table build; the gather cache is empty in a fresh process) -> first
    execution.  Returns ``(seconds, schedule, execution)``.
    """
    recorder.group = "cold"
    start = time.perf_counter()
    with recorder.span("cold_start"):
        with recorder.span("circuit.generate"):
            circuit = engine_inputs(workload, seed)
        with recorder.span("scheduling.schedule"):
            schedule = engine_schedule(workload, circuit)
        with recorder.span("plan.compile"):
            plan_for(schedule)
        execution = execute_once(workload, schedule, recorder)
    return time.perf_counter() - start, schedule, execution


def timed_round(workload, schedule, recorder=NULL_RECORDER, **kwargs):
    """One warm round: ``(seconds, execution)`` with the collector held off."""
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        with recorder.span("round"):
            execution = execute_once(workload, schedule, recorder, **kwargs)
        return time.perf_counter() - start, execution
    finally:
        gc.enable()


class Operations:
    """Attempt/failure ledger; a failed operation never feeds a median."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def record(self, label: str, problems: list[str]) -> bool:
        """Count one checked operation; it failed if *problems* is non-empty."""
        self.attempted += 1
        if problems:
            self.fail(f"{label}: " + "; ".join(problems))
        return not problems

    def record_oracle(self, oracle: dict) -> None:
        self.record(
            "oracle",
            [] if oracle["ok"] else [f"max |err| {oracle['max_abs_err']:.3e}"],
        )


def _checked_cold_start(workload, seed, ops, recorder=NULL_RECORDER):
    """Cold start plus its check: ``(seconds, schedule, execution, fingerprint)``."""
    seconds, schedule, execution = cold_start(workload, seed, recorder)
    fingerprint, problems = check_state(execution.state, None)
    ops.record("cold start", problems)
    return seconds, schedule, execution, fingerprint


def _checked_round(
    workload, schedule, ops, reference, label, recorder=NULL_RECORDER, **kw
):
    """Run one round and check it; ``(seconds or None, execution or None)``."""
    try:
        seconds, execution = timed_round(workload, schedule, recorder, **kw)
    except Exception as exc:  # a raising round is a failed operation
        ops.record(label, [f"{type(exc).__name__}: {exc}"])
        return None, None
    _, problems = check_state(execution.state, reference)
    if not ops.record(label, problems):
        execution.release()
        return None, None
    return seconds, execution


def schedule_counts(schedule) -> dict:
    """Shape of the schedule and its plan (exact counts, printed per seed)."""
    plan = plan_for(schedule)
    return {
        "scheduling.swaps": schedule.num_swaps,
        "scheduling.clusters": schedule.num_clusters,
        "scheduling.specialized_gates": schedule.num_specialized_gates,
        "plan.ops": len(plan.ops),
        "plan.fused_kernel_ops": plan.counts["fused_kernel_ops"],
        "plan.refused_away_ops": plan.counts["refused_away_ops"],
    }


def plan_work(num_qubits: int, schedule) -> dict:
    """Units, cluster calls and *computed* bytes of one execution.

    Bytes are from array sizes (no cache misses): a read and a write of
    every 16-byte amplitude per sweeping op, plus 8 bytes per amplitude
    for each of the two index-table passes (gather and write-back) of a
    dense kernel.
    """
    amplitudes = 1 << num_qubits
    ops = plan_for(schedule).ops
    dense = sum(op.exec_kind in ("kernel", "fused_kernel") for op in ops)
    diagonal = sum(op.exec_kind in ("diagonal", "fused_diagonal") for op in ops)
    return {
        "runtime.units": len(ops),
        "kernels.cluster_calls": sum(
            op.sources[0].kind in ("cluster", "absorbed") for op in ops
        ),
        "kernels.bytes_computed": (48 * dense + 32 * diagonal) * amplitudes,
    }


def compile_costs(schedule) -> dict:
    """Seconds a plan-cache miss pays, timed on a cleared gather cache:
    the whole ``compile_program`` (passes + tables) and, separately,
    ``warm_plan_tables`` alone.  Both re-build on pages the process
    already owns, so they are lower bounds of what a cold start pays."""
    GATHER_CACHE.clear()
    start = time.perf_counter()
    plan = compile_program(schedule)
    compile_s = time.perf_counter() - start
    GATHER_CACHE.clear()
    start = time.perf_counter()
    warm_plan_tables(plan)
    return {
        "plan.compile_s": compile_s,
        "plan.table_build_s": time.perf_counter() - start,
    }


def run_cold(workload: EngineWorkload, seed: int) -> dict:
    """A cold-only child: one ``setup_s`` sample, result checked."""
    ops = Operations()
    seconds, _, execution, _ = _checked_cold_start(workload, seed, ops)
    execution.release()
    return {"setup_s": seconds, "ops": vars(ops)}


def run_measure(workload: EngineWorkload, seed: int, seconds: float, rss_mib) -> dict:
    """The measuring child: cold start, timed rounds, checks, peak RSS."""
    ops = Operations()
    setup_s, schedule, execution, reference = _checked_cold_start(
        workload, seed, ops
    )
    execution.release()

    # The cold execution doubles as the discarded warm-up round.
    rounds: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) + ops.failed < MAX_ROUNDS and (
        len(rounds) < workload.min_rounds or time.perf_counter() < deadline
    ):
        took, execution = _checked_round(
            workload, schedule, ops, reference, f"round {ops.attempted}"
        )
        if execution is not None:
            execution.release()
            rounds.append(took)
        elif ops.failed > workload.min_rounds:
            break
    peak = rss_mib()  # before the oracle run, which is not the workload

    oracle = oracle_check(workload, seed)
    ops.record_oracle(oracle)
    return {
        "setup_s": setup_s,
        "rounds": rounds,
        "peak_rss_mib": peak,
        "oracle": oracle,
        "counts": schedule_counts(schedule),
        "ops": vars(ops),
    }


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
def layer_rows(recorder: SpanRecorder, group: str) -> tuple[dict, float]:
    """Self seconds per layer for one round, residual included."""
    self_s, wall = recorder.self_seconds(group)
    rows = {
        "distributed.init": self_s.get("distributed.new_state", 0.0),
        "kernels.cluster": self_s.get("unit.cluster", 0.0)
        + self_s.get("unit.absorbed", 0.0),
        "kernels.specialized": self_s.get("unit.specialized", 0.0),
        "distributed.swap": self_s.get("unit.swap", 0.0),
        "runtime.engine_self": self_s.get("runtime.engine", 0.0),
        "distributed.disk.close": self_s.get("distributed.disk.close", 0.0),
        "residual": self_s.get("round", 0.0),
    }
    return rows, wall


def run_trace(workload: EngineWorkload, seed: int, trace_path) -> dict:
    """The traced child: every per-layer number of one engine workload."""
    recorder = SpanRecorder()
    ops = Operations()
    setup_s, schedule, execution, reference = _checked_cold_start(
        workload, seed, ops, recorder
    )
    cache = GATHER_CACHE.stats()
    cold_self, _ = recorder.self_seconds("cold")

    # Gather (outside run_s; users who want amplitudes pay it once).
    start = time.perf_counter()
    execution.state.to_statevector()
    gather_s = time.perf_counter() - start
    comm = execution.state.stats
    io_stats = dict(execution.storage.io_stats) if workload.on_disk else {}
    execution.release()

    compile_seconds = compile_costs(schedule)

    untraced: list[float] = []
    traced: list[float] = []
    tables: list[dict] = []
    pipeline_stats = {}
    # Alternate untraced / traced so drift lands on both.
    for index in range(TRACED_ROUNDS):
        took, execution = _checked_round(
            workload, schedule, ops, reference, f"untraced round {index}"
        )
        if execution is not None:
            execution.release()
            untraced.append(took)
        recorder.group = group = f"round{index}"
        took, execution = _checked_round(
            workload, schedule, ops, reference, f"traced round {index}", recorder
        )
        if execution is not None:
            if execution.pipeline is not None:
                pipeline_stats = execution.pipeline.stats()
            if workload.on_disk:
                io_stats = dict(execution.storage.io_stats)
            execution.release()
            traced.append(took)
            rows, wall = layer_rows(recorder, group)
            rows["wall"] = wall
            tables.append(rows)
    recorder.group = None

    serial: list[float] = []
    if workload.pipeline_depth:
        for index in range(2):
            took, execution = _checked_round(
                workload, schedule, ops, reference,
                f"serial round {index}", pipeline_depth=0,
            )
            if execution is not None:
                execution.release()
                serial.append(took)

    oracle = oracle_check(workload, seed)
    ops.record_oracle(oracle)

    trace_path.write_text(json.dumps(recorder.to_json()))

    def med(values):
        return statistics.median(values) if values else 0.0

    table = {
        key: med([t[key] for t in tables]) for key in (tables[0] if tables else {})
    }
    kernel_s = table.get("kernels.cluster", 0.0) + table.get(
        "kernels.specialized", 0.0
    )
    work = plan_work(workload.num_qubits, schedule)
    computed = work["kernels.bytes_computed"]
    state_bytes = 16 << workload.num_qubits
    swap_s = table.get("distributed.swap", 0.0)
    metrics = {
        **dict.fromkeys(SERVICE_METRICS, 0),
        **dict.fromkeys(DISK_PIPELINE_METRICS, 0),
        "circuit.generate_s": cold_self.get("circuit.generate", 0.0),
        "scheduling.schedule_s": cold_self.get("scheduling.schedule", 0.0),
        **schedule_counts(schedule),
        **compile_seconds,
        # The engine workloads have the real thing: the cold start's own
        # plan_for (empty cache, pages never touched by this process).
        "plan.compile_s": cold_self.get("plan.compile", 0.0),
        **work,
        "kernels.table_bytes": cache["bytes_cached"],
        "kernels.table_entries": cache["entries"],
        "kernels.table_hit_rate": GATHER_CACHE.stats()["hit_rate"],
        "kernels.cluster_s": table.get("kernels.cluster", 0.0),
        "kernels.specialized_s": table.get("kernels.specialized", 0.0),
        "kernels.eff_gbps": computed / kernel_s / 1e9 if kernel_s else 0.0,
        "distributed.init_s": table.get("distributed.init", 0.0),
        "distributed.swap_s": swap_s,
        "distributed.swaps": comm.alltoall_steps,
        "distributed.bytes_on_network": comm.bytes_on_network,
        "distributed.exchange_gbps": (
            comm.bytes_on_network / swap_s / 1e9 if swap_s else 0.0
        ),
        "distributed.gather_s": gather_s,
        "runtime.engine_self_s": table.get("runtime.engine_self", 0.0),
        "statevector.oracle_s": oracle["seconds"],
        "statevector.max_abs_err": oracle["max_abs_err"],
        "telemetry.trace_overhead_frac": (
            med(traced) / med(untraced) - 1.0 if traced and untraced else 0.0
        ),
    }
    if workload.on_disk:
        metrics.update({
            "distributed.disk.sync_flushes": io_stats["sync_flushes"],
            "distributed.disk.async_syncs": io_stats["async_syncs"],
            "distributed.disk.read_aheads": io_stats["read_aheads"],
            "distributed.disk.exchange_prefetched_pairs": io_stats[
                "exchange_prefetched_pairs"
            ],
            # Every unit rewrites the whole state once (computed).
            "distributed.disk.bytes_written": (
                state_bytes * (1 + work["runtime.units"])
            ),
            "distributed.disk.close_s": table.get("distributed.disk.close", 0.0),
        })
    if workload.pipeline_depth:
        metrics.update({
            "runtime.pipeline.prefetch_issued": pipeline_stats.get("issued", 0),
            "runtime.pipeline.prefetch_hits": pipeline_stats.get("hits", 0),
            "runtime.pipeline.stall_s": pipeline_stats.get("stall_seconds", 0.0),
            "runtime.pipeline.speedup": (
                med(serial) / med(untraced) if serial and untraced else 0.0
            ),
        })
    return {
        "setup_s": setup_s,
        "untraced_rounds": untraced,
        "traced_rounds": traced,
        "serial_rounds": serial,
        "layer_table": table,
        "cold_table": cold_self,
        "metrics": metrics,
        "oracle": oracle,
        "ops": vars(ops),
    }
