"""Trace exporters: Chrome-trace JSON, JSONL event stream, flamegraph text.

The Chrome-trace exporter emits the ``traceEvents`` JSON object format
(``ph: "X"`` complete events with microsecond timestamps) that both
``chrome://tracing`` and Perfetto load directly, every span on one
driver lane (tid 0).  A span times what the calling thread ran, or
waited for while the sweep pool ran it; the ranks one sweep covers get
no spans of their own.

The JSONL exporter writes one self-contained JSON object per span (for
ad-hoc jq/pandas analysis); the flamegraph formatter renders the span
tree as an indented inclusive-time summary, merging same-named siblings.
"""

from __future__ import annotations

import json

from repro.telemetry.spans import Span

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "span_records",
    "write_jsonl",
    "format_flamegraph",
]

_DRIVER_TID = 0


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (set, frozenset)):
        return [_json_safe(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def chrome_trace(
    spans: list[Span], *, process_name: str = "repro"
) -> dict:
    """Build a Chrome-trace/Perfetto ``traceEvents`` JSON object.

    Unfinished spans are skipped (a valid trace file must not contain
    open-ended complete events).
    """
    events: list[dict] = [
        {
            "ph": "M",
            "pid": 0,
            "tid": _DRIVER_TID,
            "name": "process_name",
            "args": {"name": process_name},
        },
        {
            "ph": "M",
            "pid": 0,
            "tid": _DRIVER_TID,
            "name": "thread_name",
            "args": {"name": "driver"},
        },
    ]
    for span in spans:
        if not span.finished:
            continue
        args = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key, value in span.attrs.items():
            args[key] = _json_safe(value)
        events.append(
            {
                "ph": "X",
                "pid": 0,
                "tid": _DRIVER_TID,
                "ts": span.start * 1e6,
                "dur": span.seconds * 1e6,
                "name": span.name,
                "cat": span.kind or "span",
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path, spans: list[Span], *, process_name: str = "repro"
) -> int:
    """Write the Chrome-trace JSON to *path*; returns the event count."""
    trace = chrome_trace(spans, process_name=process_name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
        fh.write("\n")
    return len(trace["traceEvents"])


def span_records(spans: list[Span]) -> list[dict]:
    """One JSON-ready dict per span (the JSONL line format)."""
    out = []
    for span in spans:
        out.append(
            {
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "name": span.name,
                "kind": span.kind,
                "start": span.start,
                "end": span.end,
                "seconds": span.seconds,
                "attrs": _json_safe(span.attrs),
            }
        )
    return out


def write_jsonl(path, spans: list[Span]) -> int:
    """Write one JSON object per line; returns the line count."""
    records = span_records(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record))
            fh.write("\n")
    return len(records)


def format_flamegraph(
    spans: list[Span], *, width: int = 40, min_fraction: float = 0.0
) -> str:
    """Indented inclusive-time summary of the span tree.

    Same-named siblings merge into one row (with a call count), so a
    thousand ``kernel.apply`` spans under one stage collapse to one line.
    Rows shallower in the tree come first; each row shows inclusive
    seconds, the share of its root, and a proportional bar.
    """
    finished = [s for s in spans if s.finished]
    if not finished:
        return "(no spans)"
    children: dict[int | None, dict[str, list[Span]]] = {}
    by_id = {s.span_id: s for s in finished}
    for span in finished:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, {}).setdefault(span.name, []).append(span)

    root_total = sum(
        s.seconds for group in children.get(None, {}).values() for s in group
    )
    root_total = max(root_total, 1e-12)
    lines = [f"{'seconds':>10} {'share':>6}  span tree"]

    def render(parent_key: int | None, depth: int) -> None:
        groups = children.get(parent_key, {})
        ordered = sorted(
            groups.items(),
            key=lambda kv: -sum(s.seconds for s in kv[1]),
        )
        for name, group in ordered:
            seconds = sum(s.seconds for s in group)
            share = seconds / root_total
            if share < min_fraction:
                continue
            bar = "#" * max(1, round(width * share))
            count = f" x{len(group)}" if len(group) > 1 else ""
            lines.append(
                f"{seconds:>10.4f} {100 * share:>5.1f}%  "
                f"{'  ' * depth}{name}{count}  {bar}"
            )
            # Merge the children of every same-named sibling into one
            # sub-tree by rendering each member's children in turn under
            # a synthetic combined key.
            sub: dict[str, list[Span]] = {}
            for member in group:
                for child_name, child_group in children.get(
                    member.span_id, {}
                ).items():
                    sub.setdefault(child_name, []).extend(child_group)
            if sub:
                synthetic_key = ("merged", parent_key, name)
                children[synthetic_key] = sub  # type: ignore[index]
                render(synthetic_key, depth + 1)  # type: ignore[arg-type]

    render(None, 0)
    return "\n".join(lines)
