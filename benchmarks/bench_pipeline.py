"""Stage-major out-of-core execution: DiskShards vs in memory, armed vs not.

The paper's outlook (Sec. 5) moves the state vector to SSDs because a
scheduled circuit crosses the slow level only once per stage.
:class:`repro.distributed.DiskShards` runs that loop order: a stage's
kernels are deferred and every shard file is streamed through RAM once
per stage.  This bench replays one schedule three ways:

* **memory** — :class:`repro.distributed.InMemoryShards`, the floor;
* **disk** — ``DiskShards`` with one staging buffer, I/O on the main
  thread;
* **armed** — the same under a :class:`repro.runtime.PipelineLayer`: the
  worker loads the next file and stores the previous one while the main
  thread computes (qHiPSTER's double buffering, PAPERS.md).

All three must produce bit-identical final states and identical
timing-free trace signatures.  Recorded: ``disk / memory`` (gate <= 2.0
— out of core may cost I/O, not a per-op rewrite of the state), ``armed
/ disk`` (gate <= 1.05: the overlap must not cost; a *win* is reported,
not required, while the files are page-cache resident) and the shard
loads and stores per stage, which are exact: one store per shard per
stage, one load per shard per stage but the first.
"""

from __future__ import annotations

import statistics
import time

from repro.distributed import DiskShards, InMemoryShards
from repro.distributed.state import DistributedState
from repro.runtime import ExecutionEngine, PipelineLayer
from repro.service.jobs import state_fingerprint
from repro.telemetry import Telemetry

PIPELINE_DEPTH = 2
ROUNDS = 9


def bench_pipeline(
    benchmark, report_writer, bench_record, schedule_cache, tmp_path_factory
):
    n, l, depth = 22, 18, 10
    _, sched = schedule_cache(n, l, depth=depth, seed=0)
    ops = len(list(sched.operations()))
    ranks, shard_bytes = 1 << (n - l), (1 << l) * 16
    stages = sched.num_swaps + 1
    base = tmp_path_factory.mktemp("bench_pipeline")

    def run(variant: str):
        if variant == "memory":
            storage = InMemoryShards(ranks, 1 << l)
        else:
            storage = DiskShards(ranks, 1 << l, base / variant)
        layers = []
        if variant == "armed":
            layers.append(PipelineLayer(depth=PIPELINE_DEPTH))
        engine = ExecutionEngine(
            sched, layers=layers, telemetry=Telemetry.enabled()
        )
        start = time.perf_counter()
        state = DistributedState.for_schedule(sched, storage=storage)
        result = engine.run(state=state)
        if variant != "memory":
            storage.close()  # the durability point is part of the run
        wall = time.perf_counter() - start
        fingerprint = state_fingerprint(result.state.to_statevector())
        io_stats = dict(getattr(storage, "io_stats", {}))
        if variant != "memory":
            storage.close()  # the fingerprint's reads reopened the files
        return wall, fingerprint, result.trace.signature(), io_stats

    variants = ("memory", "disk", "armed")
    # Warm pass: page cache, phase factors, numpy code paths — first
    # touch is not the bench.  Then interleaved rounds; the two ratios
    # are medians of per-round ratios, so host drift (this VM's clock
    # wanders by several percent over seconds) cancels inside a round.
    last = {name: run(name) for name in variants}
    rounds = []
    for _ in range(ROUNDS):
        last = {name: run(name) for name in variants}
        rounds.append({name: last[name][0] for name in variants})
    seconds = {name: min(r[name] for r in rounds) for name in variants}
    for name in ("disk", "armed"):
        assert last[name][1] == last["memory"][1], f"{name} changed the state"
        assert last[name][2] == last["memory"][2], f"{name} changed the trace"

    disk_over_memory = statistics.median(r["disk"] / r["memory"] for r in rounds)
    armed_over_disk = statistics.median(r["armed"] / r["disk"] for r in rounds)
    io_disk, io_armed = last["disk"][3], last["armed"][3]
    for io_stats in (io_disk, io_armed):
        assert io_stats["flushes"] == stages
        assert io_stats["shard_stores"] == ranks * stages
        assert io_stats["shard_loads"] == ranks * (stages - 1)

    rows = [
        f"{n}-qubit depth-{depth} schedule ({ranks} shards x "
        f"{shard_bytes >> 10} KiB, {ops} ops, {stages} stages, "
        f"best of {ROUNDS}; ratios: median of per-round ratios):",
        "",
        f"{'variant':>8}  {'wall s':>8}  {'loads':>6}  {'stores':>6}  "
        f"{'read ahead':>10}  {'fsyncs':>6}",
        f"{'memory':>8}  {seconds['memory']:>8.3f}",
        f"{'disk':>8}  {seconds['disk']:>8.3f}  {io_disk['shard_loads']:>6}  "
        f"{io_disk['shard_stores']:>6}  {io_disk['read_aheads']:>10}  "
        f"{io_disk['sync_flushes']:>6}",
        f"{'armed':>8}  {seconds['armed']:>8.3f}  {io_armed['shard_loads']:>6}  "
        f"{io_armed['shard_stores']:>6}  {io_armed['read_aheads']:>10}  "
        f"{io_armed['sync_flushes']:>6}",
        "",
        f"disk / memory : {disk_over_memory:.2f}x (gate <= 2.0)",
        f"armed / disk  : {armed_over_disk:.2f}x (gate <= 1.05; a win is "
        "not required while the files are page-cache resident)",
        f"per stage     : {ranks} stores, {ranks} loads (none in the first) "
        f"-- op-major would be {ranks * (ops + 1)} stores per run, "
        f"stage-major is {ranks * stages}",
        f"exchange pairs read ahead: {io_armed['exchange_prefetched_pairs']}",
        "",
        "identical fingerprints and trace signatures: deferral and overlap",
        "only move work in time, they never reorder visible state",
    ]
    report_writer("pipeline", rows)
    bench_record(
        "pipeline",
        seconds=seconds["armed"],
        params={
            "qubits": n,
            "local_qubits": l,
            "depth": depth,
            "ops": ops,
            "stages": stages,
            "pipeline_depth": PIPELINE_DEPTH,
        },
        bytes_moved=io_armed["bytes_read"] + io_armed["bytes_written"],
        metrics={
            "memory_seconds": seconds["memory"],
            "disk_seconds": seconds["disk"],
            "disk_over_memory": disk_over_memory,
            "armed_over_disk": armed_over_disk,
            "shard_loads": io_armed["shard_loads"],
            "shard_stores": io_armed["shard_stores"],
            "read_aheads": io_armed["read_aheads"],
            "exchange_prefetched_pairs": io_armed["exchange_prefetched_pairs"],
        },
    )

    assert disk_over_memory <= 2.0, (
        f"DiskShards took {disk_over_memory:.2f}x the in-memory run"
    )
    assert armed_over_disk <= 1.05, (
        f"armed DiskShards took {armed_over_disk:.2f}x the unarmed run"
    )

    benchmark.pedantic(lambda: run("armed"), rounds=1, iterations=1)
