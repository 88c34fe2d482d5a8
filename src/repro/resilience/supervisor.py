"""Fault-tolerant schedule execution.

:class:`ResilientExecutor` runs a :class:`~repro.scheduling.Schedule`
under an (optional) :class:`~repro.resilience.faults.FaultPlan` and
guarantees the final state is bit-exact with a fault-free run, or raises
a typed error once its recovery budget is spent.  Three mechanisms:

* **retry with exponential backoff** — transient communication errors
  re-attempt the op; a global-to-local swap is resumable (the free
  renumbering and local staging swaps are idempotent once done, and the
  all-to-all records nothing until it succeeds), so a retried op never
  double-counts bytes or kernels;
* **shard integrity verification** — CRC32 checksums recorded after
  every op and re-verified at swap boundaries (or every op with
  ``verify="every"``) turn silent corruption into a detected
  :class:`ShardCorruptionError`;
* **checkpoint restart** — fatal faults (crashes, detected corruption,
  exhausted retries) roll back to the last
  :class:`~repro.distributed.checkpoint.CheckpointManager` checkpoint
  (or a fresh initial state) and replay.

Since the runtime engine landed this class is a thin assembler: it
builds an :class:`~repro.runtime.ExecutionEngine` with the resilient
layer stack (checkpoint, fault injection, integrity, sanitizer) and a
:class:`RetryPolicy`, and the engine owns the retry and restart
machinery.  The engine records execution as telemetry spans: one span
per op *attempt* (transient failures mutate into ``fault`` spans,
aborted fatal attempts into ``aborted`` ones, excluded from the op-event
view), nested under a ``resilient_run`` root.  The result's
:class:`~repro.distributed.tracing.ExecutionTrace` is the flat view over
those spans, so chaos reports and normal traces share one model and the
timing-free ``signature()`` stays comparable across runs.  All
quantities except measured wall seconds are deterministic given the
schedule, plan and policy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.distributed.checkpoint import CheckpointManager
from repro.distributed.comm import CommStats
from repro.distributed.state import DistributedState
from repro.distributed.tracing import ExecutionTrace
from repro.resilience.faults import (  # noqa: F401  (FATAL_FAULTS re-export)
    FATAL_FAULTS,
    FaultInjector,
    FaultPlan,
)
from repro.runtime import (
    CheckpointLayer,
    ExecutionEngine,
    FaultLayer,
    IntegrityLayer,
    RecoveryReport,
    RetryPolicy,
    SanitizerLayer,
)
from repro.scheduling.program import Schedule
from repro.telemetry.metrics import NULL_METRICS
from repro.telemetry.runtime import Telemetry
from repro.telemetry.spans import Tracer

__all__ = [
    "RecoveryReport",
    "ResilientExecutor",
    "ResilientRunResult",
    "RetryPolicy",
]


@dataclass
class ResilientRunResult:
    """Output of one resilient run."""

    state: DistributedState
    trace: ExecutionTrace
    report: RecoveryReport

    @property
    def comm(self) -> CommStats:
        """Communication counters of the (successful) execution path."""
        return self.state.stats

    @property
    def spans(self) -> tuple:
        """The run's telemetry spans (the trace is the flat view over them)."""
        return self.trace.spans


class ResilientExecutor:
    """Runs a schedule to bit-exact completion under injected faults.

    Parameters
    ----------
    schedule:
        The program to execute.
    checkpoint_dir:
        Directory for :class:`CheckpointManager`; restart state lives
        here.  An existing checkpoint in the directory is resumed.
    plan:
        Optional :class:`FaultPlan`; ``None`` runs fault-free (the
        control configuration chaos suites compare against).
    policy:
        Retry/restart budgets and backoff shape.
    checkpoint_every:
        Checkpoint after every N completed ops (0 disables periodic
        checkpoints; a final checkpoint is always written).
    verify:
        ``"swap"`` (default) verifies shard checksums at swap boundaries
        and at the end of the run; ``"every"`` before every op;
        ``"never"`` disables integrity checking.
    sleep:
        Injectable sleeper for backoff/stall delays (default
        ``time.sleep``; pass a no-op to keep tests instant — the report
        accounts the delays either way).
    sanitizer:
        Optional :class:`repro.staticcheck.ShardSanitizer` driven at
        every op boundary (NaN/Inf, norm conservation, checksum
        divergence); its findings accumulate in ``sanitizer.report``
        across restarts.  Complements ``verify``: the checksum table
        here turns corruption into a restart, the sanitizer into
        op-pinned diagnostics.
    telemetry:
        Optional :class:`~repro.telemetry.runtime.Telemetry` bundle.  The
        executor *always* records spans (the result's trace is built
        from them); passing an enabled bundle makes them land in the
        caller's tracer (for export) and streams ``comm.*`` /
        ``resilience.*`` metrics into its registry.
    state_factory:
        Builds the state a run or restart starts from (and the vessel a
        checkpoint loads into).  Defaults to the schedule's canonical
        in-memory initial state; pass a factory closing over a custom
        :class:`~repro.distributed.ShardStorage` backend to carry it
        across restarts.

    The run replays the schedule's compiled plan (``plan_for(schedule)``),
    the same program ``run_schedule`` executes, so a recovered state
    equals a plain run's byte for byte.  Checkpoints land at plan-unit
    boundaries: a unit of fused ops is checkpointed after it completes,
    at the first boundary past each ``checkpoint_every`` multiple.
    """

    def __init__(
        self,
        schedule: Schedule,
        checkpoint_dir,
        *,
        plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        checkpoint_every: int = 4,
        verify: str = "swap",
        sleep=time.sleep,
        sanitizer=None,
        telemetry: Telemetry | None = None,
        state_factory=None,
    ) -> None:
        if verify not in ("swap", "every", "never"):
            raise ValueError(f"verify must be swap|every|never, got {verify!r}")
        self.schedule = schedule
        self.manager = CheckpointManager(checkpoint_dir)
        self.injector = FaultInjector(plan) if plan is not None else None
        self.policy = policy or RetryPolicy()
        self.checkpoint_every = checkpoint_every
        self.verify = verify
        self._sleep = sleep
        self.sanitizer = sanitizer
        self._state_factory = state_factory or (
            lambda: DistributedState.for_schedule(self.schedule)
        )
        # The trace is a view over spans, so a live tracer is mandatory:
        # use the caller's when it is collecting, else a private one.
        if telemetry is not None and telemetry.tracer.enabled:
            tracer = telemetry.tracer
        else:
            tracer = Tracer(enabled=True)
        metrics = telemetry.metrics if telemetry is not None else NULL_METRICS
        self.telemetry = Telemetry(tracer=tracer, metrics=metrics)

    # ------------------------------------------------------------------
    def _build_engine(self) -> ExecutionEngine:
        """The engine + layer stack equivalent of this executor."""
        layers = [
            CheckpointLayer(
                self.manager,
                every=self.checkpoint_every,
                resume=True,
                state_factory=self._state_factory,
            ),
        ]
        if self.injector is not None:
            layers.append(FaultLayer(self.injector, sleep=self._sleep))
        if self.verify != "never":
            layers.append(IntegrityLayer(self.verify))
        if self.sanitizer is not None:
            layers.append(SanitizerLayer(self.sanitizer))
        num_ops = len(list(self.schedule.operations()))
        return ExecutionEngine(  # lint: allow-engine-direct
            self.schedule,
            layers=layers,
            policy=self.policy,
            state_factory=self._state_factory,
            telemetry=self.telemetry,
            sleep=self._sleep,
            root_span="resilient_run",
            root_attrs={"ops": num_ops},
        )

    def run(self) -> ResilientRunResult:
        """Execute to completion; raises a typed error past the budget."""
        result = self._build_engine().run()
        return ResilientRunResult(
            state=result.state, trace=result.trace, report=result.report
        )
