"""Op-level execution tracing.

Table 2's "Comm." column comes from instrumenting the run; this module
does the same for any schedule execution: per-operation wall time,
classified into kernel / specialization / communication, plus a text
timeline for eyeballing where a run spends its life.

Since the telemetry layer landed, the primary record of a run is the
hierarchical span tree collected by a
:class:`~repro.telemetry.spans.Tracer`; :class:`ExecutionTrace` is the
flat *view* over that tree (one :class:`TraceEvent` per op-level span,
built by :meth:`ExecutionTrace.from_spans`), kept because its
timing-free :meth:`~ExecutionTrace.signature` is the determinism anchor
the resilience suite compares runs with.  A trace is immutable; its
aggregates are computed once, when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.scheduling.program import ClusterOp, GateOp, SwapOp

__all__ = [
    "OP_EVENT_KINDS",
    "TraceEvent",
    "ExecutionTrace",
]

#: Span kinds that surface as flat :class:`TraceEvent`s.  Spans of any
#: other kind (``run``, ``kernel``, ``comm``, ``schedule``, ``storage``,
#: aborted attempts...) stay in the span tree only.
OP_EVENT_KINDS = frozenset(
    {"cluster", "specialized", "swap", "fault"}
)


@dataclass(frozen=True)
class TraceEvent:
    """One executed operation (or, under resilient execution, one fault).

    ``index`` numbers events in emission order; ``op_index`` is the
    position in the schedule's op stream.  The two differ only under
    retries/restarts, where one op can produce several events.
    ``bytes_moved`` is populated for swap events from the communication
    counters so chaos reports and normal traces share one event model.
    """

    index: int
    kind: str  # "cluster" | "specialized" | "swap" | "fault"
    label: str
    seconds: float
    bytes_moved: int | None = None
    op_index: int | None = None


@dataclass(frozen=True)
class ExecutionTrace:
    """All events of one run, with aggregates computed once.

    An immutable view: :meth:`from_spans` builds the events and sums
    their durations and bytes a single time.
    """

    events: tuple[TraceEvent, ...]
    #: The source spans the events were taken from.
    spans: tuple = field(repr=False, compare=False)
    #: Sum of all event durations.
    total_seconds: float = field(repr=False, compare=False)
    #: Total bytes moved across all events that recorded any.
    bytes_moved: int = field(repr=False, compare=False)
    _seconds_by_kind: dict = field(repr=False, compare=False)

    @classmethod
    def from_spans(cls, spans) -> "ExecutionTrace":
        """Build the flat op-event view over a tracer's span list.

        Only spans whose ``kind`` is in :data:`OP_EVENT_KINDS` become
        events, in recording order — internal kernel/comm/storage spans
        and run roots are skipped.  Swap events pick up
        ``bytes_moved`` from the span's ``bytes`` attribute.
        """
        spans = tuple(spans)
        events = []
        by_kind: dict[str, float] = {}
        total = 0.0
        moved = 0
        for span in spans:
            if span.kind not in OP_EVENT_KINDS:
                continue
            event = TraceEvent(
                index=len(events),
                kind=span.kind,
                label=span.name,
                seconds=span.seconds,
                bytes_moved=span.attrs.get("bytes"),
                op_index=span.attrs.get("op_index"),
            )
            events.append(event)
            by_kind[event.kind] = by_kind.get(event.kind, 0.0) + event.seconds
            total += event.seconds
            moved += event.bytes_moved or 0
        return cls(tuple(events), spans, total, moved, by_kind)

    # ------------------------------------------------------------------
    def seconds_by_kind(self) -> dict[str, float]:
        """Wall time aggregated per event kind."""
        return dict(self._seconds_by_kind)

    @property
    def comm_fraction(self) -> float:
        """Measured share of time in swaps (compare: Table 2's column)."""
        total = self.total_seconds
        if total <= 0:
            return 0.0
        return self.seconds_by_kind().get("swap", 0.0) / total

    def signature(self) -> list[tuple]:
        """A timing-free identity for determinism checks.

        Two executions of the same schedule under the same fault plan must
        produce equal signatures even though wall times differ.
        """
        return [
            (e.kind, e.label, e.op_index, e.bytes_moved) for e in self.events
        ]

    def timeline(self, *, width: int = 60) -> str:
        """A proportional text timeline (one row per op)."""
        total = max(self.total_seconds, 1e-12)
        by_kind = self.seconds_by_kind()
        lines = [f"{'op':>3} {'kind':<11} {'seconds':>9}  timeline"]
        for e in self.events:
            bar = "#" * max(1, round(width * e.seconds / total))
            lines.append(
                f"{e.index:>3} {e.kind:<11} {e.seconds:>9.4f}  {bar}"
            )
        summary = ", ".join(
            f"{kind} {seconds:.3f}s" for kind, seconds in sorted(by_kind.items())
        )
        lines.append(f"total {self.total_seconds:.3f}s ({summary})")
        return "\n".join(lines)


def _classify(op) -> tuple[str, str]:
    if isinstance(op, SwapOp):
        return "swap", f"swap -> globals {sorted(op.new_global_qubits)}"
    if isinstance(op, GateOp):
        return "specialized", f"{op.gate.name}{op.gate.qubits}"
    if isinstance(op, ClusterOp):
        return "cluster", f"k={op.num_qubits} ({op.num_gates} gates)"
    raise TypeError(f"not a schedule op: {type(op).__name__}")
