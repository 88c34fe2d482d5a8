"""The four workloads: sizes, seeded input generation, one execution each.

Everything the program receives is generated here from ``--seed``; the
program never sees the seed itself.  ``SCHEDULER_SEED`` is *not* an
input: it is the scheduler's search-effort knob (``SchedulerConfig.seed``)
and is pinned, because varying it moved ``schedule_circuit`` time 2x and
the cluster count +-10 % on one and the same circuit.

Sizes were cut from the issue's (depth, ranks) until one contract run
fits ~30 s on the 2-vCPU reference host; the state sizes that keep the
timings out of the 4-64 MiB cache transition are unchanged.
"""

from __future__ import annotations

import random
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DiskShards, DistributedSimulator
from repro.runtime import PipelineLayer
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.service import JobSpec

from spans import NULL_RECORDER, SpanLayer

KMAX = 4
SCHEDULER_SEED = 1

#: DiskShards scratch lives inside the checkout (the contract allows no
#: writes elsewhere); one fresh directory per round, removed afterwards.
SCRATCH_ROOT = Path(__file__).resolve().parent / "out" / "scratch"


@dataclass(frozen=True)
class EngineWorkload:
    """One compile-once, run-many workload on the execution engine."""

    name: str
    num_qubits: int
    local_qubits: int
    depth: int
    on_disk: bool = False
    pipeline_depth: int = 0
    min_rounds: int = 5

    def oracle_sibling(self) -> "EngineWorkload":
        """The same workload 6 qubits smaller (fits the single-node oracle)."""
        n = self.num_qubits - 6
        # DistributedState needs global <= local qubits.
        l = max(self.local_qubits - 6, (n + 1) // 2, KMAX)
        return EngineWorkload(
            f"{self.name}.oracle", n, l, self.depth,
            self.on_disk, self.pipeline_depth,
        )


ENGINE_WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload("dense_24q", 24, 22, 4),
        EngineWorkload("swap_21q", 21, 11, 32),
        EngineWorkload(
            "disk_22q", 22, 18, 10, on_disk=True, pipeline_depth=2
        ),
    )
}
SERVICE_WORKLOAD = "service_mix"
WORKLOAD_NAMES = (*ENGINE_WORKLOADS, SERVICE_WORKLOAD)


#: Per-layer metrics a workload that never enters the layer reports as 0.
DISK_PIPELINE_METRICS = (
    "distributed.disk.sync_flushes",
    "distributed.disk.async_syncs",
    "distributed.disk.read_aheads",
    "distributed.disk.exchange_prefetched_pairs",
    "distributed.disk.bytes_written",
    "distributed.disk.close_s",
    "runtime.pipeline.prefetch_issued",
    "runtime.pipeline.prefetch_hits",
    "runtime.pipeline.stall_s",
    "runtime.pipeline.speedup",
)
SERVICE_METRICS = (
    "service.jobs_per_s",
    "service.job_latency_p50_ms",
    "service.job_latency_p95_ms",
    "service.latency_ms.hot",
    "service.latency_ms.cold",
    "service.latency_ms.dup",
    "service.submit_p50_ms",
    "service.queue_wait_p50_ms",
    "service.exec_p50_ms",
    "service.plan_cache.hit_rate",
    "service.result_cache.hit_rate",
    "service.rejected",
    "service.failed",
)


def engine_inputs(workload: EngineWorkload, seed: int):
    """The workload's circuit for *seed* (the only generated input)."""
    return generate_supremacy_circuit(
        workload.num_qubits, workload.depth, seed=seed
    )


def engine_schedule(workload: EngineWorkload, circuit):
    return schedule_circuit(
        circuit,
        SchedulerConfig(
            local_qubits=workload.local_qubits, kmax=KMAX, seed=SCHEDULER_SEED
        ),
    )


@dataclass
class Execution:
    """The finished state of one execution plus what is needed to free it."""

    state: object = None
    storage: object = None
    directory: str | None = None
    pipeline: object = None

    def release(self) -> None:
        """Drop the state; remove the DiskShards scratch (outside timers)."""
        self.state = None
        if self.storage is not None:
            self.storage.close()
            self.storage = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None


def execute_once(
    workload: EngineWorkload,
    schedule,
    recorder=NULL_RECORDER,
    *,
    pipeline_depth: int | None = None,
) -> Execution:
    """One solution: fresh state, the whole schedule, storage closed.

    This is the timed region of a round.  With a :class:`SpanRecorder`
    the same calls are wrapped in spans and the engine carries a
    :class:`SpanLayer`; without one the engine keeps its layer-free fast
    path (``disk_22q`` always carries its ``PipelineLayer``).
    """
    depth = workload.pipeline_depth if pipeline_depth is None else pipeline_depth
    storage = None
    execution = Execution()
    if workload.on_disk:
        SCRATCH_ROOT.mkdir(parents=True, exist_ok=True)
        execution.directory = tempfile.mkdtemp(dir=SCRATCH_ROOT)
    try:
        with recorder.span("distributed.new_state"):
            if workload.on_disk:
                storage = execution.storage = DiskShards(
                    1 << (workload.num_qubits - workload.local_qubits),
                    1 << workload.local_qubits,
                    execution.directory,
                )
            sim = DistributedSimulator(
                workload.num_qubits,
                workload.local_qubits,
                storage=storage,
                initial_state=schedule.initial_state,
            )
            state = sim.new_state(schedule.initial_global_qubits or None)
        layers = [SpanLayer(recorder)] if recorder.enabled else []
        if depth:
            execution.pipeline = PipelineLayer(depth=depth)
            layers.append(execution.pipeline)
        with recorder.span("runtime.engine"):
            sim.run_schedule(schedule, state=state, layers=layers)
        if storage is not None:
            with recorder.span("distributed.disk.close"):
                storage.close()
        execution.state = state
        return execution
    except BaseException:
        execution.release()
        raise


# ----------------------------------------------------------------------
# service_mix: seeded, stratified job lists
# ----------------------------------------------------------------------
#: (qubits, depth) of the hot set; local qubits = qubits - 2 (4 ranks).
HOT_CIRCUITS = ((18, 12), (18, 12), (19, 12), (20, 12))
COLD_QUBITS = (16, 17, 18, 19, 20)
SERVICE_DEPTH = 12
#: One round = 20 jobs in the issue's 60/25/15 mix: 12 hot (each hot
#: circuit 3x), 5 never-seen (one per size) and 3 exact duplicates.
#: The *composition* is fixed so every seed offers the same load; the
#: seed draws the circuits, the order and the tenants.
HOT_PER_ROUND, COLD_PER_ROUND, DUP_PER_ROUND = 12, 5, 3
JOBS_PER_ROUND = HOT_PER_ROUND + COLD_PER_ROUND + DUP_PER_ROUND
TENANT_WEIGHTS = {"alpha": 3.0, "beta": 2.0, "gamma": 1.0}
SERVICE_WORKERS = 2
SERVICE_CLIENTS = 2
_SEED_STRIDE = 1_000_003


def _spec(tenant, circuit, *, cached: bool) -> JobSpec:
    return JobSpec(
        tenant=tenant,
        circuit=circuit,
        local_qubits=circuit.num_qubits - 2,
        kmax=KMAX,
        use_result_cache=cached,
    )


def service_hot_specs(seed: int) -> list[JobSpec]:
    """The hot set's warm-up jobs; their results seed the result cache."""
    return [
        _spec(
            "alpha",
            generate_supremacy_circuit(n, depth, seed=seed * _SEED_STRIDE + i),
            cached=True,
        )
        for i, (n, depth) in enumerate(HOT_CIRCUITS)
    ]


def service_round_jobs(seed: int, round_index: int, hot: list[JobSpec]):
    """``[(class, hot_index or None, JobSpec)]`` for one closed-loop drain."""
    rng = random.Random(seed * _SEED_STRIDE + round_index)
    tenants, weights = zip(*TENANT_WEIGHTS.items())
    jobs = []
    for k in range(HOT_PER_ROUND):
        i = k % len(hot)
        jobs.append(("hot", i, hot[i].circuit, False))
    for k in range(COLD_PER_ROUND):
        n = COLD_QUBITS[k % len(COLD_QUBITS)]
        circuit_seed = (
            seed * _SEED_STRIDE + 1000 + round_index * COLD_PER_ROUND + k
        )
        circuit = generate_supremacy_circuit(
            n, SERVICE_DEPTH, seed=circuit_seed
        )
        jobs.append(("cold", None, circuit, False))
    for k in range(DUP_PER_ROUND):
        i = rng.randrange(len(hot))
        jobs.append(("dup", i, hot[i].circuit, True))
    rng.shuffle(jobs)
    out = []
    for kind, index, circuit, cached in jobs:
        tenant = rng.choices(tenants, weights)[0]
        out.append((kind, index, _spec(tenant, circuit, cached=cached)))
    return out
