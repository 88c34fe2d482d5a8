"""Command-line interface: ``python -m repro <command>``.

Subcommands:

* ``generate`` — write a supremacy circuit to the text format;
* ``schedule`` — schedule a circuit and print the summary (optionally
  saving the program as JSON for reuse);
* ``simulate`` — run a circuit (single-node or distributed) and report
  entropy / sample counts; distributed runs can checkpoint and resume
  via ``--checkpoint-dir`` / ``--checkpoint-every``;
* ``check`` — statically verify a schedule (structure, swaps, clusters,
  specialization, coverage, unitarity) and print a ranked findings
  report;
* ``project`` — price a configuration on the Cori II models and print a
  Table-2-style profile;
* ``chaos`` — run the fault-injection scenario sweep (or a custom
  fault-plan JSON) and print the recovery report;
* ``trace`` — run a schedule with full telemetry and export a
  Chrome-trace/Perfetto JSON (one driver lane), plus the
  predicted-vs-actual performance report;
* ``serve`` — run the multi-tenant simulation job service on a local
  TCP socket (admission control, weighted-fair queueing, cross-request
  plan/result caching);
* ``submit`` — submit one circuit-simulation job to a running ``serve``
  instance and print the result (or query ``--stats``);
* ``top`` — poll a serving instance's ``/statusz`` and render a
  refreshing per-tenant table (queued/running/done, p95 queue wait,
  rejection reasons).

``serve --metrics-port`` adds the live observability plane (Prometheus
``/metrics``, ``/healthz``, ``/statusz``); ``serve --postmortem-dir``
dumps flight-recorder JSONL bundles for failed/timed-out jobs and on
SIGTERM.  ``submit`` mints a ``trace_id`` on the wire so one id
correlates client output, server spans, flight-recorder records and
metrics.

``simulate`` builds one runtime layer stack from its flags and runs it
through ``run_schedule``: ``--pipeline`` overlaps shard I/O,
``--checkpoint-dir`` checkpoints (and resumes), ``--sanitize`` arms the
runtime shard sanitizer (NaN/Inf, norm conservation, checksum
divergence) and ``--trace/--metrics`` record spans/metrics; any subset
composes.  ``simulate --strict`` refuses to execute a schedule whose
static check reports errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import ExitStack

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed quantum-supremacy-circuit simulator "
        "(Häner & Steiger, SC 2017 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a supremacy circuit")
    gen.add_argument("--qubits", type=int, required=True)
    gen.add_argument("--depth", type=int, default=25)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--no-trailing", action="store_true",
                     help="omit the trailing single-qubit layer")
    gen.add_argument("--output", type=str, default="-",
                     help="output file ('-' for stdout)")

    sch = sub.add_parser("schedule", help="schedule a circuit")
    sch.add_argument("--circuit", type=str, help="circuit text file "
                     "(default: generate per --qubits/--depth/--seed)")
    sch.add_argument("--qubits", type=int)
    sch.add_argument("--depth", type=int, default=25)
    sch.add_argument("--seed", type=int, default=0)
    sch.add_argument("--local-qubits", type=int, required=True)
    sch.add_argument("--kmax", type=int, default=5)
    sch.add_argument("--save", type=str, help="write the schedule JSON here")

    sim = sub.add_parser("simulate", help="simulate a circuit")
    sim.add_argument("--qubits", type=int, required=True)
    sim.add_argument("--depth", type=int, default=12)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--local-qubits", type=int,
                     help="distributed run with this split (default: single node)")
    sim.add_argument("--shots", type=int, default=0,
                     help="also sample this many bitstrings")
    sim.add_argument("--checkpoint-dir", type=str,
                     help="checkpoint the distributed run here (resumes an "
                     "existing checkpoint automatically)")
    sim.add_argument("--checkpoint-every", type=int, default=8,
                     help="ops between checkpoints (with --checkpoint-dir)")
    sim.add_argument("--sanitize", action="store_true",
                     help="run the shard sanitizer: NaN/Inf, norm "
                     "conservation, checksum divergence (distributed only)")
    sim.add_argument("--strict", action="store_true",
                     help="statically verify the schedule first; refuse "
                     "to execute on any static-check error")
    sim.add_argument("--trace", type=str, metavar="FILE",
                     help="record telemetry spans and write a Chrome-trace "
                     "JSON here (distributed only)")
    sim.add_argument("--fusion-kmax", type=int, default=None,
                     metavar="K",
                     help="widest qubit union the plan compiler may refuse "
                          "adjacent ops into one batched kernel over "
                          "(default: 8; 0 disables refusion)")
    sim.add_argument("--plan-stats", action="store_true",
                     help="print the compiled execution plan summary and "
                     "kernel-table cache statistics after the run "
                     "(distributed only)")
    sim.add_argument("--metrics", action="store_true",
                     help="collect and print the metrics registry "
                     "(distributed only)")
    sim.add_argument("--pipeline", action="store_true",
                     help="overlap compute with shard I/O on a background "
                     "worker (composes with every other flag; pays off "
                     "with --storage-dir)")
    sim.add_argument("--pipeline-depth", type=int, default=2,
                     help="shards in flight: the one computed on plus "
                     "depth-1 read ahead (with --pipeline)")
    sim.add_argument("--storage-dir", type=str,
                     help="out-of-core run: keep the state in DiskShards "
                     "files under this directory")

    chk = sub.add_parser(
        "check", help="statically verify a schedule"
    )
    chk.add_argument("--schedule", type=str,
                     help="schedule JSON file (default: schedule a "
                     "generated circuit per --qubits/--depth/--seed)")
    chk.add_argument("--qubits", type=int)
    chk.add_argument("--depth", type=int, default=12)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--local-qubits", type=int)
    chk.add_argument("--kmax", type=int, default=5)
    chk.add_argument("--no-unitarity", action="store_true",
                     help="skip the (dense) fused-matrix unitarity pass")
    chk.add_argument("--strict", action="store_true",
                     help="also fail (exit 1) on warnings")

    proj = sub.add_parser("project", help="project onto Cori II (Table 2 style)")
    proj.add_argument("--qubits", type=int, required=True)
    proj.add_argument("--nodes", type=int, required=True)
    proj.add_argument("--depth", type=int, default=25)
    proj.add_argument("--kmax", type=int, default=4)

    exp = sub.add_parser(
        "experiments", help="regenerate a paper table/figure series"
    )
    exp.add_argument(
        "name",
        choices=["table1", "table2", "fig5-depth", "fig5-size", "fig8"],
        help="which artefact to regenerate",
    )
    exp.add_argument("--qubits", type=int, default=36,
                     help="circuit size for fig8")

    cha = sub.add_parser(
        "chaos", help="fault-injection sweep with bit-exact recovery checks"
    )
    cha.add_argument("--qubits", type=int, default=12)
    cha.add_argument("--depth", type=int, default=16)
    cha.add_argument("--seed", type=int, default=0)
    cha.add_argument("--local-qubits", type=int, default=10)
    cha.add_argument("--kmax", type=int, default=4)
    cha.add_argument("--checkpoint-every", type=int, default=2)
    cha.add_argument("--max-retries", type=int, default=3)
    cha.add_argument("--max-restarts", type=int, default=2)
    cha.add_argument("--plan", type=str,
                     help="run one custom fault-plan JSON file instead of "
                     "the built-in scenario sweep")
    cha.add_argument("--workdir", type=str,
                     help="checkpoint workspace (default: a temp directory)")
    cha.add_argument("--real-sleep", action="store_true",
                     help="actually sleep through backoff/stall delays "
                     "(default: account them without waiting)")

    trc = sub.add_parser(
        "trace", help="run with full telemetry; export Chrome-trace JSON "
        "and a predicted-vs-actual report"
    )
    trc.add_argument("output", type=str,
                     help="Chrome-trace JSON output path (open in "
                     "ui.perfetto.dev or chrome://tracing)")
    trc.add_argument("--qubits", type=int, required=True)
    trc.add_argument("--depth", type=int, default=12)
    trc.add_argument("--seed", type=int, default=0)
    trc.add_argument("--local-qubits", type=int, required=True)
    trc.add_argument("--kmax", type=int, default=4)
    trc.add_argument("--jsonl", type=str, metavar="FILE",
                     help="also write the span event stream as JSONL")
    trc.add_argument("--flamegraph", action="store_true",
                     help="also print the flamegraph-style text summary")
    trc.add_argument("--tolerance", type=float, default=4.0,
                     help="relative per-stage deviation tolerance for the "
                     "predicted-vs-actual report")

    srv = sub.add_parser(
        "serve", help="run the multi-tenant simulation job service"
    )
    srv.add_argument("--host", type=str, default="127.0.0.1")
    srv.add_argument("--port", type=int, default=7717)
    srv.add_argument("--workers", type=int, default=4,
                     help="concurrent simulation jobs (worker threads)")
    srv.add_argument("--max-state-bytes", type=int, default=1 << 34,
                     help="admission: reject jobs whose full statevector "
                     "exceeds this many bytes")
    srv.add_argument("--max-predicted-seconds", type=float, default=120.0,
                     help="admission: reject jobs the perf model prices "
                     "above this many seconds")
    srv.add_argument("--max-queue-depth", type=int, default=256,
                     help="admission: reject once this many jobs queue")
    srv.add_argument("--max-tenant-active", type=int, default=64,
                     help="admission: per-tenant queued+running bound")
    srv.add_argument("--weight", action="append", default=[],
                     metavar="TENANT=W",
                     help="fair-share weight for a tenant (repeatable)")
    srv.add_argument("--metrics-port", type=int, default=None,
                     help="also serve the live observability plane "
                     "(/metrics, /healthz, /statusz) on this port")
    srv.add_argument("--postmortem-dir", type=str, default=None,
                     help="dump flight-recorder JSONL bundles for "
                     "failed/timed-out jobs (and on SIGTERM) here")

    sbm = sub.add_parser(
        "submit", help="submit one job to a running `repro serve`"
    )
    sbm.add_argument("--host", type=str, default="127.0.0.1")
    sbm.add_argument("--port", type=int, default=7717)
    sbm.add_argument("--circuit", type=str,
                     help="circuit text file (default: generate per "
                     "--qubits/--depth/--seed)")
    sbm.add_argument("--qubits", type=int)
    sbm.add_argument("--depth", type=int, default=12)
    sbm.add_argument("--seed", type=int, default=0)
    sbm.add_argument("--local-qubits", type=int,
                     help="distributed split (required unless --stats)")
    sbm.add_argument("--kmax", type=int, default=5)
    sbm.add_argument("--tenant", type=str, default="default")
    sbm.add_argument("--priority", type=int, default=0)
    sbm.add_argument("--shots", type=int, default=0)
    sbm.add_argument("--timeout", type=float,
                     help="per-job execution timeout in seconds")
    sbm.add_argument("--no-wait", action="store_true",
                     help="return the job id immediately instead of "
                     "waiting for the result")
    sbm.add_argument("--no-result-cache", action="store_true",
                     help="bypass the completed-result cache")
    sbm.add_argument("--stats", action="store_true",
                     help="print service statistics instead of submitting")
    sbm.add_argument("--trace-id", type=str, default=None,
                     help="correlation id for the job (minted client-side "
                     "when omitted; threads through spans, flight-recorder "
                     "records and the response)")
    sbm.add_argument("--pipeline", action="store_true",
                     help="run the job with a PipelineLayer (shard I/O "
                     "overlapped with compute on a background worker)")

    top = sub.add_parser(
        "top", help="live per-tenant view of a serving `repro serve`"
    )
    top.add_argument("--host", type=str, default="127.0.0.1")
    top.add_argument("--metrics-port", type=int, required=True,
                     help="the service's --metrics-port")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("-n", "--iterations", type=int, default=0,
                     help="stop after N refreshes (0 = run until Ctrl-C)")
    return parser


def _schedule(circuit, telemetry=None, **config):
    """*circuit* scheduled under ``SchedulerConfig(**config)``, or
    ``None`` after one ``error:`` line when the split cannot hold it
    (``kmax`` above the local qubits, more local qubits than the circuit
    has): a usage error, exit 2."""
    from repro.scheduling import SchedulerConfig, schedule_circuit

    try:
        return schedule_circuit(
            circuit, SchedulerConfig(**config), telemetry=telemetry
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _cmd_generate(args) -> int:
    from repro.circuit import circuit_to_text, generate_supremacy_circuit

    circuit = generate_supremacy_circuit(
        args.qubits,
        args.depth,
        seed=args.seed,
        include_trailing_singles=not args.no_trailing,
    )
    text = circuit_to_text(circuit)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(circuit)} gates to {args.output}")
    return 0


def _cmd_schedule(args) -> int:
    from repro.circuit import circuit_from_text, generate_supremacy_circuit
    from repro.telemetry import Telemetry

    if args.circuit:
        with open(args.circuit, encoding="utf-8") as fh:
            circuit = circuit_from_text(fh.read())
    elif args.qubits:
        circuit = generate_supremacy_circuit(args.qubits, args.depth, seed=args.seed)
    else:
        print("error: provide --circuit or --qubits", file=sys.stderr)
        return 2
    telemetry = Telemetry.spans_only()
    schedule = _schedule(
        circuit, telemetry, local_qubits=args.local_qubits, kmax=args.kmax
    )
    if schedule is None:
        return 2
    for key, value in schedule.summary().items():
        print(f"{key:>22}: {value}")
    # Where the time went, from the scheduler's own phase spans.
    root, *spans = telemetry.tracer.spans
    print(f"{'wall seconds':>22}: {root.seconds:.3f}")
    for span in spans:
        if span.parent_id == root.span_id:
            counts = "".join(f"  {k}={v}" for k, v in span.attrs.items())
            print(
                f"{span.name:>22}: {span.seconds:.3f} s "
                f"({span.seconds / max(root.seconds, 1e-9):.0%}){counts}"
            )
    if args.save:
        from repro.io import save_schedule_json

        save_schedule_json(schedule, args.save)
        print(f"{'saved to':>22}: {args.save}")
    return 0


def _cmd_check(args) -> int:
    from repro.staticcheck import verify_schedule

    if args.schedule:
        from repro.io import load_schedule_json

        try:
            schedule = load_schedule_json(args.schedule, validate=False)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: cannot load {args.schedule}: {exc}", file=sys.stderr)
            return 2
    elif args.qubits and args.local_qubits:
        from repro.circuit import generate_supremacy_circuit

        circuit = generate_supremacy_circuit(
            args.qubits, args.depth, seed=args.seed
        )
        schedule = _schedule(
            circuit, local_qubits=args.local_qubits, kmax=args.kmax
        )
        if schedule is None:
            return 2
    else:
        print("error: provide --schedule or --qubits with --local-qubits",
              file=sys.stderr)
        return 2
    report = verify_schedule(schedule, check_unitarity=not args.no_unitarity)
    print(report.format())
    if not report.passed:
        return 1
    if args.strict and report.warnings:
        return 1
    return 0


def _cmd_simulate(args) -> int:
    # Deferred DiskShards sweeps live in memory until the storage is
    # closed, so it is closed however the run ends.
    with ExitStack() as cleanup:
        return _simulate(args, cleanup)


def _simulate(args, cleanup: ExitStack) -> int:
    from repro.analysis import porter_thomas_entropy_nats, shannon_entropy
    from repro.circuit import generate_supremacy_circuit
    from repro.statevector import Simulator, sample_counts

    if args.qubits > 24:
        print("error: refusing > 24 qubits on a single machine", file=sys.stderr)
        return 2
    if (args.sanitize or args.strict) and not args.local_qubits:
        print("error: --sanitize/--strict need a distributed run "
              "(--local-qubits)", file=sys.stderr)
        return 2
    if (args.pipeline or args.storage_dir) and not args.local_qubits:
        print("error: --pipeline/--storage-dir need a distributed run "
              "(--local-qubits)", file=sys.stderr)
        return 2
    if args.pipeline_depth < 1:
        print("error: --pipeline-depth must be >= 1", file=sys.stderr)
        return 2
    if (args.trace or args.metrics or args.plan_stats) and not args.local_qubits:
        print("error: --trace/--metrics/--plan-stats need a distributed run "
              "(--local-qubits)", file=sys.stderr)
        return 2
    circuit = generate_supremacy_circuit(args.qubits, args.depth, seed=args.seed)
    if args.local_qubits:
        from repro.distributed import DistributedSimulator

        schedule = _schedule(circuit, local_qubits=args.local_qubits)
        if schedule is None:
            return 2
        storage = None
        state_factory = None
        if args.storage_dir:
            from repro.distributed import DiskShards
            from repro.distributed.state import DistributedState

            storage = cleanup.enter_context(
                DiskShards(
                    1 << (args.qubits - args.local_qubits),
                    1 << args.local_qubits,
                    args.storage_dir,
                )
            )

            def state_factory():
                return DistributedState.for_schedule(schedule, storage=storage)

        if args.strict:
            from repro.staticcheck import verify_schedule

            report = verify_schedule(schedule)
            if not report.passed:
                print(report.format(), file=sys.stderr)
                print("error: static check failed; refusing to execute",
                      file=sys.stderr)
                return 1
            print(f"static check: PASS ({len(report.checks_run)} passes)")
        # One layer stack from the flags, outermost first.
        layers = []
        if args.pipeline:
            from repro.runtime import PipelineLayer

            layers.append(PipelineLayer(depth=args.pipeline_depth))
        resuming = False
        if args.checkpoint_dir:
            from repro.distributed.checkpoint import CheckpointManager
            from repro.runtime import CheckpointLayer

            mgr = CheckpointManager(args.checkpoint_dir)
            resuming = mgr.has_checkpoint()
            layers.append(
                CheckpointLayer(
                    mgr,
                    every=args.checkpoint_every,
                    resume=True,
                    state_factory=state_factory,
                )
            )
        sanitizer = None
        if args.sanitize:
            from repro.runtime import SanitizerLayer
            from repro.staticcheck import ShardSanitizer

            sanitizer = ShardSanitizer()
            layers.append(SanitizerLayer(sanitizer))
        telemetry = None
        if args.trace:
            from repro.telemetry import Telemetry

            telemetry = Telemetry.enabled()
        elif args.metrics:
            from repro.telemetry import MetricsRegistry, Telemetry

            telemetry = Telemetry(metrics=MetricsRegistry(enabled=True))
        plan_config = None
        if args.fusion_kmax is not None:
            from repro.plan import PlanConfig

            plan_config = PlanConfig(fusion_kmax=args.fusion_kmax)
        from repro.util.locktrack import LOCK_TRACKER

        track_locks = args.sanitize or args.metrics
        if track_locks:
            LOCK_TRACKER.reset()
            if args.metrics:
                # Lock contention rides the same registry as
                # lock.acquire.count{name=} / lock.wait.seconds{name=}.
                LOCK_TRACKER.bind_metrics(telemetry.metrics)
            LOCK_TRACKER.enable()
        try:
            result = DistributedSimulator(
                args.qubits,
                args.local_qubits,
                storage=storage,
                telemetry=telemetry,
            ).run_schedule(schedule, plan_config=plan_config, layers=layers)
        finally:
            if track_locks:
                LOCK_TRACKER.disable()
                LOCK_TRACKER.bind_metrics(None)
        state = result.state.to_statevector()
        if args.checkpoint_dir:
            if resuming:
                print(f"resumed checkpoint from {args.checkpoint_dir}")
            print(f"checkpointed every {args.checkpoint_every} ops "
                  f"to {args.checkpoint_dir}")
        if sanitizer is not None:
            print(sanitizer.report.format())
            lock_stats = LOCK_TRACKER.stats()
            if lock_stats["acquire_counts"]:
                print("lock acquisitions:")
                for name, count in sorted(
                    lock_stats["acquire_counts"].items()
                ):
                    wait = lock_stats["wait_seconds"].get(name, 0.0)
                    print(f"  {name}: {count} acquires, "
                          f"{wait:.6f}s waiting")
                for a, b in lock_stats["edges"]:
                    print(f"  order: {a} -> {b}")
        print(
            f"distributed run: {result.comm.alltoall_steps} "
            f"all-to-all steps, "
            f"{result.kernel_cost.total_calls} kernel calls"
            + (" (sanitized)" if sanitizer is not None else "")
        )
        if args.trace:
            from repro.telemetry import write_chrome_trace

            write_chrome_trace(args.trace, telemetry.tracer.spans)
            print(f"wrote {len(telemetry.tracer.spans)} spans "
                  f"to {args.trace}")
        if args.metrics:
            print(telemetry.metrics.format())
        if args.plan_stats:
            from repro.kernels import GATHER_CACHE
            from repro.plan import plan_for

            # Same config as the run above: plan_for memoizes on the
            # frozen PlanConfig, so this reuses the executed plan.
            print("compiled plan:")
            summary = plan_for(schedule, plan_config).summary()
            for key, value in summary.items():
                print(f"  {key:>20}: {value}")
            print("kernel-table cache:")
            for key, value in GATHER_CACHE.stats().items():
                shown = f"{value:.4f}" if key == "hit_rate" else value
                print(f"  {key:>20}: {shown}")
            if storage is not None:
                print("shard storage I/O:")
                for key in (
                    "flushes", "pooled_flushes", "shard_loads",
                    "shard_stores", "bytes_read", "bytes_written",
                ):
                    print(f"  {key:>20}: {storage.io_stats[key]}")
        if sanitizer is not None and not sanitizer.report.passed:
            return 1
    else:
        run = Simulator(args.qubits).run(circuit)
        state = run.state
        print(f"single-node run: {run.wall_seconds:.2f}s, {run.gflops:.2f} GFLOPS")
    entropy = shannon_entropy(state.probabilities())
    print(
        f"output entropy: {entropy:.4f} nats "
        f"(Porter-Thomas {porter_thomas_entropy_nats(args.qubits):.4f})"
    )
    if args.shots:
        counts = sample_counts(state, args.shots, seed=args.seed)
        top = sorted(counts.items(), key=lambda kv: -kv[1])[:5]
        print("top outcomes:", ", ".join(f"{k:0{args.qubits}b}x{v}" for k, v in top))
    return 0


def _cmd_project(args) -> int:
    from repro.circuit import generate_supremacy_circuit
    from repro.perfmodel import (
        ARIES_DRAGONFLY,
        BaselineModel,
        CORI_KNL_NODE,
        TimelineModel,
    )
    from repro.scheduling import SchedulerConfig, schedule_circuit

    g = int(math.log2(args.nodes))
    if 1 << g != args.nodes:
        print("error: --nodes must be a power of two", file=sys.stderr)
        return 2
    local = args.qubits - g
    circuit = generate_supremacy_circuit(
        args.qubits, args.depth, seed=0, include_trailing_singles=False
    )
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=local, kmax=args.kmax, seed=1)
    )
    model = TimelineModel(CORI_KNL_NODE, ARIES_DRAGONFLY)
    baseline = BaselineModel(CORI_KNL_NODE, ARIES_DRAGONFLY)
    ours = model.predict(schedule)
    base = baseline.predict(circuit, local)
    memory_bytes = (1 << args.qubits) * 16
    print(f"configuration : {args.qubits} qubits on {args.nodes} Cori II nodes")
    print(f"memory        : {memory_bytes / 2**50:.3f} PiB total "
          f"({(1 << local) * 16 / 2**30:.1f} GiB/node)")
    print(f"schedule      : {schedule.num_swaps} swaps, "
          f"{schedule.num_clusters} clusters (kmax={args.kmax})")
    print(f"time          : {ours.total_seconds:.2f} s "
          f"({100 * ours.comm_fraction:.1f}% communication)")
    print(f"sustained     : {ours.pflops:.3f} PFLOPS")
    print(f"speedup vs [5]: {base.total_seconds / ours.total_seconds:.1f}x")
    return 0


def _cmd_experiments(args) -> int:
    from repro import experiments as ex

    if args.name == "table1":
        print(f"{'qubits':>6} {'kmax':>4} {'clusters':>8} {'paper':>6} {'g/cluster':>10}")
        for row in ex.table1_rows():
            print(
                f"{row.qubits:>6} {row.kmax:>4} {row.clusters:>8} "
                f"{str(row.paper_clusters):>6} {row.gates_per_cluster:>10.2f}"
            )
    elif args.name == "table2":
        print(f"{'qubits':>6} {'nodes':>6} {'T[s]':>8} {'paper':>8} "
              f"{'comm%':>6} {'speedup':>8}")
        for row in ex.table2_rows():
            print(
                f"{row.qubits:>6} {row.nodes:>6} {row.model_seconds:>8.2f} "
                f"{str(row.paper_seconds):>8} {100 * row.comm_fraction:>6.1f} "
                f"{row.speedup_over_baseline:>7.1f}x"
            )
    elif args.name == "fig5-depth":
        print(f"{'depth':>5} {'swaps':>5} {'baseline (median/worst)':>24}")
        for p in ex.fig5_depth_series():
            print(f"{p.depth:>5} {p.swaps:>5} "
                  f"{p.baseline_global_gates_median:>11} / "
                  f"{p.baseline_global_gates_worst}")
    elif args.name == "fig5-size":
        print(f"{'qubits':>6} {'swaps':>5} {'baseline (median/worst)':>24}")
        for p in ex.fig5_size_series():
            print(f"{p.qubits:>6} {p.swaps:>5} "
                  f"{p.baseline_global_gates_median:>11} / "
                  f"{p.baseline_global_gates_worst}")
    elif args.name == "fig8":
        nodes = (16, 32, 64) if args.qubits <= 38 else (1024, 2048, 4096)
        print(f"{'nodes':>6} {'T[s]':>8} {'speedup':>8} {'comm%':>6}")
        for p in ex.fig8_series(args.qubits, nodes):
            print(f"{p.nodes:>6} {p.model_seconds:>8.2f} {p.speedup:>8.2f} "
                  f"{100 * p.comm_fraction:>6.1f}")
    return 0


def _cmd_chaos(args) -> int:
    import tempfile
    import time as _time

    from repro.circuit import generate_supremacy_circuit
    from repro.resilience import (
        ChaosScenario,
        FaultPlan,
        RetryPolicy,
        format_chaos_suite,
        run_chaos_suite,
        run_scenario,
    )
    from repro.resilience.chaos import ChaosSuiteResult

    g = args.qubits - args.local_qubits
    if g < 1:
        print("error: need at least one global qubit (>= 2 ranks)",
              file=sys.stderr)
        return 2
    custom_plan = None
    if args.plan:
        try:
            custom_plan = FaultPlan.from_file(args.plan)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"error: bad fault plan {args.plan}: {exc}", file=sys.stderr)
            return 2
    circuit = generate_supremacy_circuit(args.qubits, args.depth, seed=args.seed)
    schedule = _schedule(
        circuit, local_qubits=args.local_qubits, kmax=args.kmax, seed=1
    )
    if schedule is None:
        return 2
    policy = RetryPolicy(
        max_retries=args.max_retries, max_restarts=args.max_restarts
    )
    sleep = _time.sleep if args.real_sleep else (lambda _s: None)

    def run(workdir) -> int:
        if custom_plan is not None:
            scenario = ChaosScenario(
                name="custom-plan",
                description=f"fault plan from {args.plan}",
                build_plan=lambda _sched, _swaps, _policy: custom_plan,
                verify="every",
            )
            result = run_scenario(
                schedule, scenario, workdir, policy=policy,
                checkpoint_every=args.checkpoint_every, sleep=sleep,
            )
            suite = ChaosSuiteResult(
                schedule_summary=schedule.summary(), results=[result]
            )
        else:
            suite = run_chaos_suite(
                schedule, workdir, policy=policy,
                checkpoint_every=args.checkpoint_every, sleep=sleep,
            )
        print(format_chaos_suite(suite))
        return 0 if suite.passed else 1

    if args.workdir:
        return run(args.workdir)
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as workdir:
        return run(workdir)


def _cmd_trace(args) -> int:
    from repro.circuit import generate_supremacy_circuit
    from repro.distributed import DistributedSimulator
    from repro.telemetry import (
        Telemetry,
        format_flamegraph,
        perf_report,
        write_chrome_trace,
        write_jsonl,
    )

    from repro.util.locktrack import LOCK_TRACKER

    telemetry = Telemetry.enabled()
    circuit = generate_supremacy_circuit(
        args.qubits, args.depth, seed=args.seed
    )
    schedule = _schedule(
        circuit, telemetry, local_qubits=args.local_qubits, kmax=args.kmax
    )
    if schedule is None:
        return 2
    # Lock contention joins the perf report through the same registry
    # (lock.acquire.count{name=} / lock.wait.seconds{name=}).
    LOCK_TRACKER.reset()
    LOCK_TRACKER.bind_metrics(telemetry.metrics)
    LOCK_TRACKER.enable()
    try:
        result = DistributedSimulator(
            args.qubits, args.local_qubits, telemetry=telemetry
        ).run_schedule(schedule)
    finally:
        LOCK_TRACKER.disable()
        LOCK_TRACKER.bind_metrics(None)
    spans = telemetry.tracer.spans
    write_chrome_trace(args.output, spans)
    print(f"wrote {len(spans)} spans to {args.output}")
    if args.jsonl:
        write_jsonl(args.jsonl, spans)
        print(f"wrote span records to {args.jsonl}")
    if args.flamegraph:
        print()
        print(format_flamegraph(spans))
    print()
    report = perf_report(
        schedule, result.trace, result.comm, tolerance=args.tolerance
    )
    print(report.format())
    lock_stats = LOCK_TRACKER.stats()
    if lock_stats["acquire_counts"]:
        print()
        print("lock contention:")
        for name, count in sorted(lock_stats["acquire_counts"].items()):
            wait = lock_stats["wait_seconds"].get(name, 0.0)
            print(f"  {name}: {count} acquires, {wait:.6f}s waiting")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import (
        AdmissionPolicy,
        ServiceConfig,
        SimulationService,
        serve,
    )

    weights: dict[str, float] = {}
    for item in args.weight:
        tenant, sep, value = item.partition("=")
        if not sep:
            print(f"error: --weight needs TENANT=W, got {item!r}",
                  file=sys.stderr)
            return 2
        weights[tenant] = float(value)
    config = ServiceConfig(
        max_workers=args.workers,
        admission=AdmissionPolicy(
            max_state_bytes=args.max_state_bytes,
            max_predicted_seconds=args.max_predicted_seconds,
            max_queue_depth=args.max_queue_depth,
            max_tenant_active=args.max_tenant_active,
        ),
        tenant_weights=weights or None,
        postmortem_dir=args.postmortem_dir,
    )

    async def run() -> int:
        import signal

        service = SimulationService(config)
        await service.start()
        server = await serve(service, host=args.host, port=args.port)
        addr = server.sockets[0].getsockname()
        print(f"repro service on {addr[0]}:{addr[1]} "
              f"({args.workers} workers); Ctrl-C to stop")
        exposition = None
        if args.metrics_port is not None:
            exposition = service.exposition_server()
            mport = await exposition.start(
                host=args.host, port=args.metrics_port
            )
            print(f"observability plane on http://{args.host}:{mport}"
                  f"/metrics /healthz /statusz")
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()

        def on_sigterm() -> None:
            # Last-gasp postmortem: the whole ring, before teardown
            # (per-job bundles only cover failed/timed-out jobs).
            if config.postmortem_dir is not None:
                os.makedirs(config.postmortem_dir, exist_ok=True)
                service.recorder.dump_jsonl(
                    os.path.join(
                        config.postmortem_dir,
                        f"sigterm-{os.getpid()}.jsonl",
                    )
                )
            stop.set()

        try:
            loop.add_signal_handler(signal.SIGTERM, on_sigterm)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms without signal-handler support
        try:
            forever = asyncio.create_task(server.serve_forever())
            waiter = asyncio.create_task(stop.wait())
            _, pending = await asyncio.wait(
                {forever, waiter}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
        except asyncio.CancelledError:
            pass
        finally:
            if exposition is not None:
                await exposition.stop()
            server.close()
            await server.wait_closed()
            await service.shutdown(drain=False)
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        print("\nstopped")
        return 0


def _cmd_submit(args) -> int:
    from repro.service import request

    if args.stats:
        response = request(args.host, args.port, {"op": "stats"})
        if not response.get("ok"):
            print(f"error: {response.get('error')}", file=sys.stderr)
            return 1
        stats = response["stats"]
        print(f"{'queue depth':>18}: {stats['queue_depth']}")
        print(f"{'running':>18}: {stats['running']}")
        for key, value in sorted(stats["jobs"].items()):
            print(f"{'jobs ' + key:>18}: {value}")
        for cache in ("plan_cache", "result_cache", "gather_cache"):
            hit_rate = stats[cache]["hit_rate"]
            print(f"{cache:>18}: {stats[cache]['entries']} entries, "
                  f"hit rate {hit_rate:.3f}")
        return 0

    if args.circuit:
        with open(args.circuit, encoding="utf-8") as fh:
            circuit_text = fh.read()
    elif args.qubits:
        from repro.circuit import circuit_to_text, generate_supremacy_circuit

        circuit_text = circuit_to_text(
            generate_supremacy_circuit(args.qubits, args.depth, seed=args.seed)
        )
    else:
        print("error: provide --circuit or --qubits", file=sys.stderr)
        return 2
    if not args.local_qubits:
        print("error: --local-qubits is required", file=sys.stderr)
        return 2
    import uuid

    trace_id = args.trace_id or uuid.uuid4().hex[:16]
    response = request(
        args.host,
        args.port,
        {
            "op": "submit",
            "tenant": args.tenant,
            "circuit": circuit_text,
            "local_qubits": args.local_qubits,
            "kmax": args.kmax,
            "priority": args.priority,
            "shots": args.shots,
            "seed": args.seed,
            "timeout_seconds": args.timeout,
            "use_result_cache": not args.no_result_cache,
            "wait": not args.no_wait,
            "trace_id": trace_id,
            "pipeline": args.pipeline,
        },
    )
    if not response.get("ok"):
        print(f"error: {response.get('error')}", file=sys.stderr)
        return 1
    print(f"{'job':>18}: {response['job_id']} [{response['status']}]")
    print(f"{'trace id':>18}: {response.get('trace_id', trace_id)}")
    if "predicted_seconds" in response:
        print(f"{'predicted':>18}: {response['predicted_seconds']:.4g} s, "
              f"{response['state_bytes']} state bytes")
    result = response.get("result")
    if result:
        for key in ("fingerprint", "signature_digest"):
            if result.get(key):
                print(f"{key:>18}: {result[key][:16]}...")
        print(f"{'wall seconds':>18}: {result['wall_seconds']:.4g}")
        print(f"{'from cache':>18}: {result['from_cache']}")
        if result.get("error"):
            print(f"{'error':>18}: {result['error']}")
        if result.get("samples"):
            top = sorted(
                result["samples"].items(), key=lambda kv: -kv[1]
            )[:5]
            print("top outcomes:", ", ".join(f"{k}x{v}" for k, v in top))
    return 0 if response["status"] in ("completed", "queued", "running") else 1


def _render_top(status: dict) -> str:
    """Render one ``/statusz`` payload as the ``repro top`` table.

    Pure function of the JSON payload (exposed for testing).
    """
    recorder = status.get("flight_recorder", {})
    lines = [
        f"repro top — uptime {status.get('uptime_seconds', 0.0):.1f}s  "
        f"queue {status.get('queue_depth', 0)}  "
        f"inflight {len(status.get('inflight', []))}  "
        f"recorder {recorder.get('size', 0)}/{recorder.get('capacity', 0)}",
        f"{'TENANT':<14} {'QUEUED':>6} {'RUNNING':>7} {'DONE':>6} "
        f"{'P95-WAIT':>9} {'VCLOCK':>8}  REJECTED",
    ]
    tenants = status.get("tenants", {})
    for tenant in sorted(tenants):
        view = tenants[tenant]
        rejected = ", ".join(
            f"{reason}:{count}"
            for reason, count in sorted(view.get("rejected", {}).items())
        )
        lines.append(
            f"{tenant:<14} {view.get('queued', 0):>6} "
            f"{view.get('running', 0):>7} {view.get('done', 0):>6} "
            f"{view.get('p95_queue_wait_seconds', 0.0):>9.4f} "
            f"{view.get('virtual_clock', 0.0):>8.3f}  {rejected or '-'}"
        )
    if not tenants:
        lines.append("(no tenants yet)")
    return "\n".join(lines)


def _cmd_top(args) -> int:
    import json as json_module
    import time

    from repro.telemetry.live import http_get

    iteration = 0
    try:
        while True:
            try:
                status_code, body = http_get(
                    args.metrics_port, "/statusz", host=args.host
                )
            except OSError as exc:
                print(f"error: cannot reach /statusz: {exc}", file=sys.stderr)
                return 1
            if status_code != 200:
                print(f"error: /statusz returned {status_code}",
                      file=sys.stderr)
                return 1
            table = _render_top(json_module.loads(body))
            iteration += 1
            if args.iterations != 1:
                # Refreshing view: clear and home before each redraw.
                print("\x1b[2J\x1b[H", end="")
            print(table, flush=True)
            if args.iterations and iteration >= args.iterations:
                return 0
            time.sleep(args.interval)
    except KeyboardInterrupt:
        print()
        return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "schedule": _cmd_schedule,
        "check": _cmd_check,
        "simulate": _cmd_simulate,
        "project": _cmd_project,
        "experiments": _cmd_experiments,
        "chaos": _cmd_chaos,
        "trace": _cmd_trace,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "top": _cmd_top,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
