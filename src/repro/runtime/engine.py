"""The one canonical execution loop.

Every way this codebase runs a schedule — plain, traced, sanitized,
fault-injected, checkpointed, resilient — goes through
:class:`ExecutionEngine`: it replays the schedule's
:class:`~repro.plan.CompiledProgram` through a single loop, and every
cross-cutting concern is a :class:`~repro.runtime.layers.RuntimeLayer`
composed onto that loop.  The front doors (``run_schedule``,
``CompiledProgram.execute``, ``ResilientExecutor``) build an engine plus
the matching layer stack.

Its first unit is the *product prefix*: the leading plan ops that keep
the fresh product state factored into groups of at most 16 qubits, which
a fresh state takes as one write of the product state they leave and
any other state op by op (:func:`_product_prefix`).

The loop records its own op spans: with an active ``telemetry=`` bundle
every op attempt is one span (``op_index`` and ``stage`` attributes,
``bytes`` on swaps), ops folded into a fused plan op or the product
prefix get zero-length spans, and the result's
:class:`~repro.distributed.tracing.ExecutionTrace` is the flat view over
the spans of that run only.

Hook order is onion-style: ``before_op`` runs in stack order,
``after_op`` / ``on_run_end`` in reverse stack order, so the first layer
in the stack is the outermost wrapper.  With a :class:`RetryPolicy` the
engine owns the retry/restart machinery — per-attempt communication
counters (so retried swaps never double-count bytes), exponential
backoff, and a restart loop that re-acquires state from a
checkpoint-providing layer or the state factory.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial

from repro.distributed.state import _CHUNK_QUBITS, DistributedState
from repro.distributed.tracing import ExecutionTrace
from repro.runtime.policy import RecoveryReport, RetryPolicy
from repro.telemetry.runtime import NULL_TELEMETRY, Telemetry

__all__ = [
    "EngineResult",
    "ExecUnit",
    "ExecutionContext",
    "ExecutionEngine",
]


class ExecUnit:
    """One step of the canonical loop.

    Wraps a plan op (possibly covering several fused source ops), the
    product prefix (several plan ops, written as one factored product
    state when the state is fresh), or, in the naive
    :meth:`ExecutionEngine.for_circuit` mode, one circuit gate.
    ``op_index`` is the first covered position in the schedule's op
    stream; ``kind``/``label``/``stage`` are what the engine's op span
    records for it.
    """

    __slots__ = (
        "index",
        "op_index",
        "kind",
        "label",
        "stage",
        "sources",
        "num_sources",
        "is_swap",
        "run",
    )

    def __init__(
        self,
        *,
        index,
        op_index,
        kind,
        label,
        stage,
        sources,
        num_sources,
        is_swap,
        run,
    ):
        self.index = index
        self.op_index = op_index
        self.kind = kind
        self.label = label
        self.stage = stage
        self.sources = sources
        self.num_sources = num_sources
        self.is_swap = is_swap
        self.run = run

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"ExecUnit(op_index={self.op_index}, kind={self.kind!r}, "
            f"label={self.label!r})"
        )


class ExecutionContext:
    """Mutable per-run state shared between the engine and its layers."""

    __slots__ = (
        "engine",
        "schedule",
        "units",
        "policy",
        "telemetry",
        "report",
        "state",
        "restarts",
        "pass_index",
        "bytes_at_ckpt",
        "seconds_since_ckpt",
        "productive_seconds",
        "total_source_ops",
    )

    def __init__(self, engine, schedule, units, policy, telemetry, report):
        self.engine = engine
        self.schedule = schedule
        self.units = units
        self.policy = policy
        self.telemetry = telemetry
        self.report = report
        self.state = None
        self.restarts = 0
        self.pass_index = 0
        self.bytes_at_ckpt = 0
        self.seconds_since_ckpt = 0.0
        self.productive_seconds = 0.0
        self.total_source_ops = engine.total_source_ops

    @property
    def tracer(self):
        """The run's span tracer (possibly the shared no-op one)."""
        return self.telemetry.tracer

    @property
    def metrics(self):
        """The run's metrics registry (possibly the shared no-op one)."""
        return self.telemetry.metrics


@dataclass
class EngineResult:
    """Output of one :meth:`ExecutionEngine.run` call."""

    state: DistributedState
    wall_seconds: float
    trace: ExecutionTrace | None
    report: RecoveryReport


def _product_prefix(ops) -> int:
    """How many leading plan ops are kernel ops that keep every factor of
    the product state within :data:`_CHUNK_QUBITS` qubits: a fresh state
    takes them as one product write
    (:meth:`DistributedState.write_product`).

    An op joins the groups of qubits (targets and controls alike) the
    ops before it joined; the prefix stops at the first swap or
    passthrough, and at the first op whose group would pass the bound
    (a factor of 16 qubits is 1 MiB of complex128, whatever ``l`` is).
    """
    group_of: dict[int, set[int]] = {}
    for count, plan_op in enumerate(ops):
        if plan_op.exec_kind not in ("kernel", "fused_kernel"):
            return count
        group = set(plan_op.qubits).union(
            *(group_of.get(q, ()) for q in plan_op.qubits)
        )
        if len(group) > _CHUNK_QUBITS:
            return count
        group_of.update(dict.fromkeys(group, group))
    return len(ops)


def _plan_unit(index, plan_ops, run) -> ExecUnit:
    """Unit *index*, running *plan_ops* (one, or the product prefix)."""
    sources = tuple(s for plan_op in plan_ops for s in plan_op.sources)
    first = sources[0]
    return ExecUnit(
        index=index,
        op_index=first.op_index,
        kind=first.kind,
        label=first.label,
        stage=plan_ops[0].stage,
        sources=sources,
        num_sources=len(sources),
        is_swap=first.kind == "swap",
        run=run,
    )


def _units_from_plan(plan) -> tuple[list[ExecUnit], list[ExecUnit]]:
    """One unit per plan op, but one for the product prefix
    (:func:`_product_prefix`), written at once on a fresh state; and the
    prefix's plan ops one unit each (all numbered 0, parts of unit 0),
    for a run resuming inside it.  The last op with targets before a
    swap gets that swap's global set, so its sweep may stage the swap
    (:func:`~repro.plan.executor.closing_swaps`)."""
    from repro.plan.executor import _run_op, _run_product, closing_swaps

    ops = plan.ops
    count = _product_prefix(ops)
    closing = closing_swaps(ops)

    def op_unit(index, at):
        run = partial(_run_op, ops[at], closing=closing.get(at))
        return _plan_unit(index, (ops[at],), run)

    units = []
    if count:
        prefix = ops[:count]
        ending = next((closing[at] for at in range(count) if at in closing), None)
        units.append(
            _plan_unit(0, prefix, partial(_run_product, prefix, closing=ending))
        )
    first = len(units) - count
    units += [op_unit(first + at, at) for at in range(count, len(ops))]
    return units, [op_unit(0, at) for at in range(count)]


class ExecutionEngine:
    """Replays a compiled program through one loop.

    One unit per plan op, except the product prefix (the leading kernel
    ops, up to where a group of qubits they join would pass 16 qubits,
    :func:`_product_prefix`), which is one unit: on a fresh state it
    writes the product state they leave in one pass, on any other state
    it runs them one by one.  The engine's default state is fresh; an explicit
    or a layer-provided one is what its own record says (a checkpoint
    load writes every shard, so it is not).  A run resuming inside that
    unit runs its remaining plan ops one by one.

    Parameters
    ----------
    program:
        A :class:`~repro.scheduling.Schedule` or a
        :class:`~repro.plan.CompiledProgram`.  Schedules are lowered to
        their memoized plan, ``plan_for(schedule, plan_config)``.
    plan_config:
        The :class:`~repro.plan.PlanConfig` a schedule is compiled under
        (``None``: the default configuration).
    layers:
        The :class:`~repro.runtime.layers.RuntimeLayer` stack, outermost
        first.  ``before_op`` runs in stack order, ``after_op`` /
        ``on_run_end`` in reverse.
    policy:
        Optional :class:`RetryPolicy`.  When set, transient
        communication errors are retried with backoff and fatal faults
        (crashes, detected corruption, exhausted retries) restart the
        run from the freshest state a layer can provide.
    state_factory:
        Builds the fresh initial state for a run or a from-scratch
        restart; defaults to the schedule's canonical initial state.
        This is how custom :class:`~repro.distributed.ShardStorage`
        backends survive a restart.
    telemetry:
        Telemetry bundle for the run.  When it is active the engine
        records one span per op attempt, observes ``op.seconds{kind=}``
        when its metrics are on, attaches the bundle to the state for
        the duration of the run and returns the run's trace.
    root_span / root_attrs:
        Name and attributes of the run's root span (``execute_schedule``
        by default, ``resilient_run`` under the resilient shim).
    """

    def __init__(
        self,
        program=None,
        *,
        plan_config=None,
        layers=(),
        policy: RetryPolicy | None = None,
        state_factory=None,
        telemetry: Telemetry | None = None,
        sleep=time.sleep,
        root_span: str = "execute_schedule",
        root_attrs: dict | None = None,
    ) -> None:
        self._layers = tuple(layers)
        self._policy = policy
        self._sleep = sleep
        self._root_span = root_span
        self._root_attrs = dict(root_attrs or {})
        self._state_factory = state_factory

        #: The product prefix's plan ops, one unit each.
        self._prefix_units: list[ExecUnit] = []
        if program is None:
            self._schedule = None
            self._units = []
        elif hasattr(program, "operations"):  # a Schedule
            from repro.plan import plan_for

            self._schedule = program
            self._units, self._prefix_units = _units_from_plan(
                plan_for(program, plan_config)
            )
        elif hasattr(program, "ops"):  # a CompiledProgram
            self._schedule = program.schedule
            self._units, self._prefix_units = _units_from_plan(program)
        else:
            raise TypeError(
                f"program must be a Schedule or CompiledProgram, got "
                f"{type(program).__name__}"
            )
        self.total_source_ops = sum(u.num_sources for u in self._units)
        self._unit_of_source = {u.op_index: u.index for u in self._units}
        self._telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    # ------------------------------------------------------------------
    @classmethod
    def for_circuit(
        cls, circuit, *, auto_swap: bool = True, telemetry=None
    ) -> "ExecutionEngine":
        """An engine replaying a raw circuit gate by gate (naive mode)."""
        engine = cls(
            None,
            telemetry=telemetry,
            root_span="run_circuit",
            root_attrs={"gates": len(circuit)},
        )
        units = []
        for index, gate in enumerate(circuit):
            units.append(
                ExecUnit(
                    index=index,
                    op_index=index,
                    kind="gate",
                    label=f"{gate.name}{gate.qubits}",
                    stage=0,
                    sources=None,
                    num_sources=1,
                    is_swap=False,
                    run=partial(
                        _apply_circuit_gate, gate=gate, auto_swap=auto_swap
                    ),
                )
            )
        engine._units = units
        engine.total_source_ops = len(units)
        engine._unit_of_source = {u.op_index: u.index for u in units}
        return engine

    @property
    def units(self) -> list[ExecUnit]:
        """The canonical op stream this engine replays."""
        return self._units

    @property
    def layers(self):
        """The composed layer stack, outermost first."""
        return self._layers

    # ------------------------------------------------------------------
    def _units_from(self, source_index: int) -> list[ExecUnit]:
        """The units a pass starting at schedule op *source_index* runs.

        Inside the product prefix these are its remaining plan ops one
        by one (a resumed state is not fresh), then the units after it.
        """
        if source_index <= 0:
            return self._units
        if source_index >= self.total_source_ops:
            if source_index == self.total_source_ops:
                return []
            raise ValueError(
                f"op index {source_index} is past the end of the program "
                f"({self.total_source_ops} ops)"
            )
        for at, unit in enumerate(self._prefix_units):
            if unit.op_index == source_index:
                return self._prefix_units[at:] + self._units[1:]
        unit_index = self._unit_of_source.get(source_index)
        if unit_index is None:
            raise ValueError(
                f"op index {source_index} falls inside a fused plan op; "
                f"a run resumes only at plan-op boundaries"
            )
        return self._units[unit_index:]

    def _default_state(self) -> DistributedState:
        if self._state_factory is not None:
            return self._state_factory()
        schedule = self._schedule
        if schedule is None:
            raise RuntimeError(
                "engine has no schedule and no state_factory; pass "
                "run(state=...)"
            )
        return DistributedState.for_schedule(schedule)

    def _acquire_state(self, ctx, explicit_state):
        """State + the units this pass runs (checkpoint > explicit > fresh)."""
        for layer in self._layers:
            provided = layer.provide_state(ctx)
            if provided is not None:
                return provided[0], self._units_from(provided[1])
        # An explicitly passed state wins on the first pass only; after
        # a fatal fault it may be torn, so restarts start fresh.
        if ctx.pass_index == 0 and explicit_state is not None:
            return explicit_state, self._units
        return self._default_state(), self._units

    # ------------------------------------------------------------------
    def _run_guarded(self, ctx, unit) -> None:
        guards = []
        for layer in self._layers:
            cm = layer.attempt_context(ctx, unit)
            if cm is not None:
                guards.append(cm)
        if not guards:
            unit.run(ctx.state)
            return
        with ExitStack() as stack:
            for cm in guards:
                stack.enter_context(cm)
            unit.run(ctx.state)

    def _dispatch(self, ctx, unit):
        """Run one unit, retrying transients under a policy; its seconds.

        Each attempt is one op span.  A transient failure turns its span
        into a ``fault`` span before the retry; a fatal one under a
        policy into an ``aborted`` span (the run-level ``fatal:`` event
        records it).  Without a policy there are no retries.
        """
        layers = self._layers
        policy = self._policy
        report = ctx.report
        telemetry = self._telemetry
        for attempt in range(self._max_retries + 1):
            bytes_before = ctx.state.stats.bytes_on_network
            span_cm = telemetry.tracer.span(
                unit.label, kind=unit.kind, op_index=unit.op_index,
                stage=unit.stage,
            )
            span = span_cm.__enter__()
            start = time.perf_counter()
            try:
                self._run_guarded(ctx, unit)
            except BaseException as exc:
                seconds = time.perf_counter() - start
                transient = isinstance(exc, self._transient_error)
                if transient:
                    # Nothing moved (transients strike before the
                    # transfer), but any staging work the op performed
                    # stays counted exactly once: the swap path is
                    # resumable, so the retry skips what is already done.
                    report.redundant_bytes += (
                        ctx.state.stats.bytes_on_network - bytes_before
                    )
                    report.transient_retries += 1
                    telemetry.metrics.counter(
                        "resilience.transient_retries"
                    ).inc()
                for layer in reversed(layers):
                    layer.on_attempt_end(
                        ctx, unit, attempt, seconds, 0, exc, transient
                    )
                if span is not None:
                    if transient:
                        span.name = (
                            f"transient at op {unit.op_index} "
                            f"(attempt {attempt})"
                        )
                        span.kind = "fault"
                    elif policy is not None:
                        span.kind = "aborted"
                span_cm.__exit__(None, None, None)
                if not transient:
                    raise
                if attempt >= policy.max_retries:
                    raise self._retry_budget_error(
                        f"op {unit.op_index}: {policy.max_retries} retries "
                        f"exhausted"
                    )
                delay = policy.backoff(attempt)
                report.backoff_seconds += delay
                self._sleep(delay)
                continue
            seconds = time.perf_counter() - start
            moved = ctx.state.stats.bytes_on_network - bytes_before
            for layer in reversed(layers):
                layer.on_attempt_end(
                    ctx, unit, attempt, seconds, moved, None, False
                )
            if span is not None and unit.is_swap:
                span.attrs["bytes"] = moved
            span_cm.__exit__(None, None, None)
            if telemetry.active:
                self._record_op(unit, seconds)
            return seconds
        raise AssertionError("unreachable")  # pragma: no cover

    def _record_op(self, unit, seconds) -> None:
        """``op.seconds`` of a finished unit, and its folded sources' spans.

        Ops folded into a fused unit still get their (zero-length)
        events, keeping one event per original schedule op.
        """
        tracer = self._telemetry.tracer
        metrics = self._telemetry.metrics
        metrics.histogram("op.seconds", kind=unit.kind).observe(seconds)
        if unit.num_sources > 1:
            mark = tracer.now()
            for source in unit.sources[1:]:
                tracer.add_span(
                    source.label,
                    kind=source.kind,
                    start=mark,
                    end=mark,
                    op_index=source.op_index,
                    stage=unit.stage,
                    fused_into=unit.op_index,
                )
                metrics.histogram("op.seconds", kind=source.kind).observe(0.0)

    # ------------------------------------------------------------------
    def run(self, *, state=None) -> EngineResult:
        """Execute to completion; raises a typed error past the budget."""
        units = self._units
        policy = self._policy
        if policy is not None:
            # Fault taxonomy lives a layer up; import late so plain runs
            # never touch it (and to keep the import graph acyclic).
            from repro.resilience.faults import (
                FATAL_FAULTS,
                RestartBudgetExceededError,
                RetryBudgetExceededError,
                TransientCommError,
            )

            self._max_retries = policy.max_retries
            self._transient_error = TransientCommError
            self._retry_budget_error = RetryBudgetExceededError
            fatal_faults = FATAL_FAULTS
        else:
            self._max_retries = 0
            self._transient_error = fatal_faults = ()

        report = RecoveryReport()
        telemetry = self._telemetry
        ctx = ExecutionContext(
            self, self._schedule, units, policy, telemetry, report
        )
        layers = self._layers
        tracer = telemetry.tracer
        metrics = telemetry.metrics
        traced = telemetry.active
        first_span = len(tracer.spans)
        explicit_state = state
        wall_start = time.perf_counter()
        try:
            with tracer.span(
                self._root_span, kind="run", **self._root_attrs
            ) as run_span:
                while True:
                    state, pass_units = self._acquire_state(
                        ctx, explicit_state
                    )
                    ctx.state = state
                    previous_bundle = state.telemetry
                    if traced:
                        state.use_telemetry(telemetry)
                    restore = traced and state is explicit_state
                    done = False
                    try:
                        for layer in layers:
                            layer.on_run_start(ctx)
                        ctx.bytes_at_ckpt = state.stats.bytes_on_network
                        ctx.seconds_since_ckpt = 0.0
                        try:
                            for unit in pass_units:
                                for layer in layers:
                                    layer.before_op(ctx, unit)
                                seconds = self._dispatch(ctx, unit)
                                ctx.productive_seconds += seconds
                                ctx.seconds_since_ckpt += seconds
                                for layer in reversed(layers):
                                    layer.after_op(ctx, unit)
                            # A returned run is a finished run: what the
                            # storage deferred runs inside the root span.
                            state.flush()
                            for layer in reversed(layers):
                                layer.on_run_end(ctx)
                            done = True
                        except BaseException as exc:
                            if policy is None or not isinstance(
                                exc, fatal_faults
                            ):
                                raise
                            # Bytes moved since the last checkpoint will
                            # be re-moved by the replay: pure recovery
                            # overhead.  Un-checkpointed op time is
                            # re-spent too.
                            report.redundant_bytes += (
                                state.stats.bytes_on_network
                                - ctx.bytes_at_ckpt
                            )
                            ctx.productive_seconds -= ctx.seconds_since_ckpt
                            tracer.event(
                                f"fatal: {type(exc).__name__}: {exc}",
                                kind="fault",
                            )
                            for layer in layers:
                                layer.on_failure(ctx, exc)
                            ctx.restarts += 1
                            if ctx.restarts > policy.max_restarts:
                                if run_span is not None:
                                    run_span.attrs["outcome"] = (
                                        "budget_exhausted"
                                    )
                                raise RestartBudgetExceededError(
                                    f"{ctx.restarts} restarts exceed budget "
                                    f"of {policy.max_restarts} "
                                    f"(last fault: {exc})"
                                ) from exc
                            report.restarts += 1
                            metrics.counter("resilience.restarts").inc()
                    finally:
                        if restore:
                            state.use_telemetry(previous_bundle)
                    if done:
                        break
                    ctx.pass_index += 1

            report.wall_overhead_seconds = max(
                0.0,
                (time.perf_counter() - wall_start) - ctx.productive_seconds,
            )
            trace = None
            if traced:
                trace = ExecutionTrace.from_spans(tracer.spans[first_span:])
            return EngineResult(
                state, time.perf_counter() - wall_start, trace, report
            )
        finally:
            for layer in reversed(layers):
                layer.finalize(ctx)


def _apply_circuit_gate(state, *, gate, auto_swap):
    state.apply_gate(gate, auto_swap=auto_swap)
