"""Hierarchical span tracing.

A :class:`Span` is one timed region of a run — an executed schedule op, a
kernel sweep over the shards, one group-local all-to-all — with a name, a
``kind`` (the event category exporters group by) and free-form
attributes.  Spans nest: the :class:`Tracer` keeps a stack, so a kernel
span opened while an op span is active becomes its child, and the whole
run folds into a tree that the Chrome-trace exporter and the flamegraph
summary render directly.

Two invariants hold for every tracer-produced tree (and are enforced by
:func:`verify_nesting`, which the tests drive):

* a child span lies inside its parent's ``[start, end]`` interval;
* sibling spans never overlap (execution here is sequential).

Tracing is **disabled by default** everywhere it is threaded through:
``Tracer(enabled=False)`` hands out one shared no-op context manager, so
the instrumented hot paths pay a single attribute check per op.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "NULL_TRACER", "NULL_SPAN_CONTEXT", "verify_nesting"]


@dataclass
class Span:
    """One timed, attributed region of a run.

    ``start``/``end`` are seconds relative to the owning tracer's epoch
    (``end is None`` while the span is still open).  ``parent_id`` links
    the nesting tree.
    """

    span_id: int
    name: str
    kind: str = ""
    start: float = 0.0
    end: float | None = None
    parent_id: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        """True once the span has been closed."""
        return self.end is not None

    @property
    def seconds(self) -> float:
        """Duration (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start


class _NullSpanContext:
    """Shared no-op context manager returned by a disabled tracer."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


NULL_SPAN_CONTEXT = _NullSpanContext()


class _SpanContext:
    """Context manager that closes its span on exit (exception or not)."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc):
        self._tracer._finish(self.span)
        return False


class Tracer:
    """Records a tree of spans over one run.

    Parameters
    ----------
    enabled:
        When False every :meth:`span` call returns the shared no-op
        context manager and nothing is recorded.  Whether it records
        never changes what the instrumented code runs.
    clock:
        Injectable monotonic clock (tests pass a fake for exact timing).
    """

    def __init__(
        self,
        *,
        enabled: bool = True,
        clock=time.perf_counter,
    ) -> None:
        self.enabled = enabled
        self._clock = clock
        self.epoch = clock()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    # ------------------------------------------------------------------
    def _now(self) -> float:
        return self._clock() - self.epoch

    def now(self) -> float:
        """Current time in tracer-epoch seconds (for :meth:`add_span`)."""
        return self._now()

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, *, kind: str = "", **attrs):
        """Open a child span of the current span; use as a context manager."""
        if not self.enabled:
            return NULL_SPAN_CONTEXT
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            span_id=self._next_id,
            name=name,
            kind=kind,
            start=self._now(),
            parent_id=parent,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _finish(self, span: Span) -> None:
        span.end = self._now()
        # Close any forgotten inner spans too, so one missing __exit__
        # cannot corrupt the stack for the rest of the run.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            if top.end is None:
                top.end = span.end

    def event(self, name: str, *, kind: str = "", **attrs) -> Span | None:
        """Record an instantaneous (zero-duration) span."""
        if not self.enabled:
            return None
        now = self._now()
        return self.add_span(name, kind=kind, start=now, end=now, **attrs)

    def add_span(
        self,
        name: str,
        *,
        kind: str = "",
        start: float,
        end: float,
        parent_id: int | None = None,
        **attrs,
    ) -> Span | None:
        """Append an already-timed span (e.g. a fused op's folded sources).

        The parent defaults to the currently open span.  Times are in
        tracer-epoch seconds, exactly as :attr:`Span.start` stores them.
        """
        if not self.enabled:
            return None
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        span = Span(
            span_id=self._next_id,
            name=name,
            kind=kind,
            start=start,
            end=end,
            parent_id=parent_id,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        return span


#: Shared disabled tracer: the default for every instrumented component.
NULL_TRACER = Tracer(enabled=False)


def verify_nesting(
    spans: list[Span], *, tolerance: float = 0.0
) -> list[str]:
    """Check the span-tree invariants; returns violation descriptions.

    * every child's interval lies inside its parent's (child ⊆ parent);
    * siblings never overlap.

    An empty return value means the tree is well formed.
    """
    problems: list[str] = []
    by_id = {s.span_id: s for s in spans}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        if not span.finished:
            problems.append(f"span {span.span_id} ({span.name}) never finished")
            continue
        children.setdefault(span.parent_id, []).append(span)
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"span {span.span_id} ({span.name}) has unknown parent "
                f"{span.parent_id}"
            )
        elif parent.end is not None and (
            span.start < parent.start - tolerance
            or span.end > parent.end + tolerance
        ):
            problems.append(
                f"span {span.span_id} ({span.name}) "
                f"[{span.start:.9f}, {span.end:.9f}] escapes parent "
                f"{parent.span_id} ({parent.name}) "
                f"[{parent.start:.9f}, {parent.end:.9f}]"
            )
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
        for prev, cur in zip(siblings, siblings[1:]):
            if prev.end is not None and cur.start < prev.end - tolerance:
                problems.append(
                    f"siblings overlap: {prev.span_id} ({prev.name}) ends "
                    f"{prev.end:.9f}, {cur.span_id} ({cur.name}) starts "
                    f"{cur.start:.9f}"
                )
    return problems
