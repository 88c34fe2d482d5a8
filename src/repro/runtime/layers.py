"""Composable cross-cutting concerns for the execution engine.

Each layer implements (a subset of) the :class:`RuntimeLayer` protocol —
``on_run_start / before_op / after_op / on_run_end / on_failure`` — and
the engine threads every unit of the canonical loop through the stack.
``before_op`` runs in stack order, ``after_op`` and ``on_run_end`` in
reverse, so the resilient stack

    [CheckpointLayer, FaultLayer, IntegrityLayer, SanitizerLayer]

reproduces the legacy supervisor's exact per-op order: inject faults →
verify checksums → sanitizer pre-scan → *attempt the op* → sanitizer
post-scan → refresh checksum table → periodic checkpoint.

Layers that need attempt granularity (a ring record per retry, a fault
guard around the communication call) additionally implement the
``on_attempt_end / attempt_context`` extension hooks; ``provide_state``
lets a layer supply the state a (re)start resumes from, and
``finalize`` is the engine's guaranteed cleanup hook.  Op spans are not
a layer: the engine records them itself from its ``telemetry=``.
"""

from __future__ import annotations

import time

from repro.distributed.checkpoint import CheckpointManager
from repro.telemetry.recorder import FlightRecorder

__all__ = [
    "CheckpointLayer",
    "FaultLayer",
    "FlightRecorderLayer",
    "IntegrityLayer",
    "RuntimeLayer",
    "SanitizerLayer",
]


class RuntimeLayer:
    """Base layer: every hook is a no-op; override what you need.

    The five core hooks receive the shared
    :class:`~repro.runtime.engine.ExecutionContext` (``ctx``) and, where
    applicable, the current :class:`~repro.runtime.engine.ExecUnit`.
    """

    # -- core protocol -------------------------------------------------
    def on_run_start(self, ctx) -> None:
        """A (re)start pass begins; ``ctx.state`` is acquired."""

    def before_op(self, ctx, unit) -> None:
        """Before a unit is attempted (outside the retry loop)."""

    def after_op(self, ctx, unit) -> None:
        """After a unit completed successfully (reverse stack order)."""

    def on_run_end(self, ctx) -> None:
        """All units completed (reverse stack order, still restartable)."""

    def on_failure(self, ctx, exc: BaseException) -> None:
        """A fatal fault ends this pass; a restart may follow."""

    # -- extension hooks -----------------------------------------------
    def on_attempt_end(
        self, ctx, unit, attempt, seconds, bytes_moved, error, will_retry
    ) -> None:
        """The attempt finished; *error* is None on success."""

    def attempt_context(self, ctx, unit):
        """Optional context manager armed around each attempt."""
        return None

    def provide_state(self, ctx):
        """Return ``(state, next_op_index)`` to resume from, or None."""
        return None

    def finalize(self, ctx) -> None:
        """Guaranteed cleanup after the run (success or error)."""


class FlightRecorderLayer(RuntimeLayer):
    """Feeds engine lifecycle events into a :class:`FlightRecorder` ring.

    One ``kind="span"`` record per completed op attempt (label, kind,
    op_index, attempt, seconds, error if any), plus run-start / run-end /
    failure markers — the engine-side half of the postmortem story.  All
    records carry the layer's ``trace_id`` so one job's history can be
    filtered out of the service's shared ring after the fact.

    The ring append is a dict build plus a deque push under a leaf lock,
    so the layer is cheap enough to leave on in the serving path (the
    exposition-overhead bench holds it to <=1.05x).
    """

    def __init__(
        self, recorder: FlightRecorder, *, trace_id: str | None = None
    ) -> None:
        self.recorder = recorder
        self.trace_id = trace_id

    def _record(self, kind: str, **fields) -> None:
        if self.trace_id is not None:
            fields["trace_id"] = self.trace_id
        self.recorder.record(kind, **fields)

    def on_run_start(self, ctx) -> None:
        self._record("run_start", total_ops=ctx.total_source_ops)

    def on_attempt_end(
        self, ctx, unit, attempt, seconds, bytes_moved, error, will_retry
    ) -> None:
        fields = {
            "label": unit.label,
            "op_kind": unit.kind,
            "op_index": unit.op_index,
            "attempt": attempt,
            "seconds": seconds,
        }
        if unit.is_swap:
            fields["bytes_moved"] = bytes_moved
        if error is not None:
            fields["error"] = f"{type(error).__name__}: {error}"
            fields["will_retry"] = will_retry
        self._record("span", **fields)

    def on_run_end(self, ctx) -> None:
        self._record("run_end", ops=ctx.total_source_ops)

    def on_failure(self, ctx, exc: BaseException) -> None:
        self._record("failure", error=f"{type(exc).__name__}: {exc}")


class SanitizerLayer(RuntimeLayer):
    """Drives a :class:`repro.staticcheck.ShardSanitizer` at op bounds.

    The sanitizer is attached to the pass's state on run start (reset
    first, so latches clear across restarts while findings accumulate)
    and scanned before/after every op.
    """

    def __init__(self, sanitizer) -> None:
        self.sanitizer = sanitizer

    def on_run_start(self, ctx) -> None:
        self.sanitizer.use_metrics(ctx.metrics)
        self.sanitizer.reset()
        self.sanitizer.attach(ctx.state)

    def before_op(self, ctx, unit) -> None:
        self.sanitizer.before_op(ctx.state, unit.op_index)

    def after_op(self, ctx, unit) -> None:
        self.sanitizer.after_op(ctx.state, unit.op_index)

    @property
    def report(self):
        """The sanitizer's accumulated findings report."""
        return self.sanitizer.report


class FaultLayer(RuntimeLayer):
    """Arms a :class:`repro.resilience.FaultInjector` around each op.

    ``before_op`` fires stall / corrupt-at-rest / crash-before faults,
    those of every source op a fused unit covers at the start of that
    unit; ``attempt_context`` arms the exchange guard (transient and
    crash-mid faults) around every individual attempt, so retries re-arm
    it.  The injector is *not* reset across restarts — remaining firings
    persist, which is what lets a ``times=1`` crash pass on replay.
    """

    def __init__(self, injector, *, sleep=time.sleep) -> None:
        if not hasattr(injector, "on_op_start"):  # a FaultPlan
            from repro.resilience.faults import FaultInjector

            injector = FaultInjector(injector)
        self.injector = injector
        self._sleep = sleep

    def before_op(self, ctx, unit) -> None:
        # A fused unit starts the faults of every source op it covers.
        for source in unit.sources or (unit,):
            stall = self.injector.on_op_start(source.op_index, ctx.state)
            if stall:
                ctx.report.stall_seconds += stall
                self._sleep(stall)

    def attempt_context(self, ctx, unit):
        return self.injector.exchange_guard(unit.op_index, ctx.state)

    def on_run_end(self, ctx) -> None:
        ctx.report.faults_injected = list(self.injector.log)


class IntegrityLayer(RuntimeLayer):
    """CRC32 shard-checksum verification against silent corruption.

    ``verify="swap"`` (default) checks at swap boundaries and at run
    end; ``"every"`` before every op; ``"never"`` disables.  The
    checksum table refreshes after every completed op, so a detected
    mismatch pins corruption to the window since the last op.
    """

    def __init__(self, verify: str = "swap") -> None:
        if verify not in ("swap", "every", "never"):
            raise ValueError(
                f"verify must be swap|every|never, got {verify!r}"
            )
        self.verify = verify
        self._table: list[int] = []

    def on_run_start(self, ctx) -> None:
        self._table = (
            ctx.state.shard_checksums() if self.verify != "never" else []
        )

    def before_op(self, ctx, unit) -> None:
        if self.verify == "every" or (self.verify == "swap" and unit.is_swap):
            self._check(ctx)

    def after_op(self, ctx, unit) -> None:
        if self.verify != "never":
            self._table = ctx.state.shard_checksums()

    def on_run_end(self, ctx) -> None:
        if self.verify != "never":
            self._check(ctx)

    def _check(self, ctx) -> None:
        ctx.report.integrity_checks += 1
        bad = [
            r
            for r, crc in enumerate(ctx.state.shard_checksums())
            if crc != self._table[r]
        ]
        if bad:
            ctx.report.corruption_detections += 1
            from repro.resilience.faults import ShardCorruptionError

            raise ShardCorruptionError(bad)


class CheckpointLayer(RuntimeLayer):
    """Periodic checkpointing.

    Saves whenever the count of completed source ops crosses an
    ``every`` boundary (for single-source units that is exactly
    ``(index + 1) % every == 0``; fused plan units checkpoint at the
    unit boundary that crosses it).  ``resume=True`` makes the layer
    provide the checkpointed state on (re)starts; ``state_factory``
    rebuilds the state the checkpoint loads into, which is how custom
    storage backends survive a restart.  The finished run is always
    checkpointed (once, by ``on_run_end``), so resuming a completed
    directory is a no-op.
    """

    def __init__(
        self,
        manager,
        *,
        every: int = 8,
        resume: bool = False,
        state_factory=None,
    ) -> None:
        if not hasattr(manager, "save"):  # a directory path
            manager = CheckpointManager(manager)
        self.manager = manager
        self.every = every
        self.resume = resume
        self.state_factory = state_factory

    def provide_state(self, ctx):
        if not self.resume or not self.manager.has_checkpoint():
            return None
        return self.manager.load(state_factory=self.state_factory)

    def after_op(self, ctx, unit) -> None:
        if not self.every:
            return
        done = unit.op_index + unit.num_sources
        if (done // self.every) <= (done - unit.num_sources) // self.every:
            return
        if done < ctx.total_source_ops:  # the run end saves the last one
            self._save(ctx, done)

    def on_run_end(self, ctx) -> None:
        self._save(ctx, ctx.total_source_ops)

    def _save(self, ctx, next_op: int) -> None:
        ctx.report.checkpoint_bytes += self.manager.save(ctx.state, next_op)
        ctx.report.checkpoints_written += 1
        ctx.bytes_at_ckpt = ctx.state.stats.bytes_on_network
        ctx.seconds_since_ckpt = 0.0
