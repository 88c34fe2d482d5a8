"""Benchmark-owned spans: recorded around calls into each layer.

The program's own telemetry is left off (its traced path changes which
kernels run), so the traced pass times the *same* code as the untraced
one from outside: harness spans around public entry points plus one
:class:`SpanLayer` on the engine.  Spans stay in memory until the child
exits; a layer's self time is its span minus its children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

from repro.runtime import RuntimeLayer


class NullRecorder:
    """Stand-in for untraced passes: a span costs one call, records nothing."""

    enabled = False
    group = None

    def span(self, name):
        return nullcontext()


NULL_RECORDER = NullRecorder()


class SpanRecorder:
    """In-memory span list with a parent stack (one thread).

    Each span is ``[name, start, end, parent_index, group]``; *group* is
    the round (or job) id shared by every span of one operation.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.group: str | None = None

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.group])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        """End span *index*, and any descendant an exception left open."""
        now = time.perf_counter()
        while self._stack:
            popped = self._stack.pop()
            self.spans[popped][2] = now
            if popped == index:
                return
        raise RuntimeError(f"span {index} is not open")

    def add(self, name: str, start: float, end: float, *, group, parent=None) -> int:
        """Record a finished span without touching the stack (async clients)."""
        self.spans.append([name, start, end, parent, group])
        return len(self.spans) - 1

    def self_seconds(self, group) -> tuple[dict[str, float], float]:
        """Per-name self time of one group and the wall time of its root.

        Self time of a span is its duration minus its direct children's;
        summed over the group the self times add up to the root span's
        wall time exactly, so the root's own self time *is* the residual.
        """
        child_total = {}
        members = [
            (i, s) for i, s in enumerate(self.spans) if s[4] == group
        ]
        for _, (_, start, end, parent, _) in members:
            if parent is not None:
                child_total[parent] = child_total.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        wall = 0.0
        for i, (name, start, end, parent, _) in members:
            out[name] = out.get(name, 0.0) + (end - start) - child_total.get(i, 0.0)
            if parent is None or self.spans[parent][4] != group:
                wall += end - start
        return out, wall

    def to_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "group": g}
            for n, s, e, p, g in self.spans
        ]


class SpanLayer(RuntimeLayer):
    """One span per engine unit, named ``unit.<kind>`` (cluster, swap, ...)."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self._recorder = recorder
        self._open: int | None = None

    def before_op(self, ctx, unit) -> None:
        self._open = self._recorder.open(f"unit.{unit.kind}")

    def after_op(self, ctx, unit) -> None:
        self._recorder.close(self._open)
        self._open = None
