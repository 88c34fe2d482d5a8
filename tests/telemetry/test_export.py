"""Exporter tests: Chrome-trace JSON, JSONL stream, flamegraph text."""

from __future__ import annotations

import json

from repro.telemetry import (
    Tracer,
    chrome_trace,
    format_flamegraph,
    span_records,
    write_chrome_trace,
    write_jsonl,
)


def traced_run():
    """A small deterministic span tree."""
    clock = {"t": 0.0}

    def tick():
        clock["t"] += 1.0
        return clock["t"]

    tracer = Tracer(clock=lambda: clock["t"])
    with tracer.span("run", kind="run"):
        with tracer.span("kernel.apply", kind="kernel", k=2):
            tick()
        with tracer.span("comm.alltoall", kind="comm", bytes=4096):
            tick()
    return tracer


class TestChromeTrace:
    def test_valid_json_with_complete_events(self, tmp_path):
        tracer = traced_run()
        path = tmp_path / "trace.json"
        count = write_chrome_trace(path, tracer.spans)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count
        xs = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == len(tracer.spans)
        for e in xs:
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_one_driver_lane(self):
        data = chrome_trace(traced_run().spans)
        names = {
            e["tid"]: e["args"]["name"]
            for e in data["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {0: "driver"}
        assert {e["tid"] for e in data["traceEvents"]} == {0}

    def test_unfinished_spans_are_skipped(self):
        tracer = Tracer()
        tracer.span("open").__enter__()
        data = chrome_trace(tracer.spans)
        assert not [e for e in data["traceEvents"] if e["ph"] == "X"]

    def test_attrs_are_json_safe(self):
        tracer = Tracer()
        with tracer.span("op", qubits=frozenset({3, 1}), pair=(0, 2)):
            pass
        data = chrome_trace(tracer.spans)
        (x,) = [e for e in data["traceEvents"] if e["ph"] == "X"]
        assert x["args"]["qubits"] == [1, 3]
        assert x["args"]["pair"] == [0, 2]
        json.dumps(data)


class TestJsonl:
    def test_one_record_per_span(self, tmp_path):
        tracer = traced_run()
        path = tmp_path / "spans.jsonl"
        count = write_jsonl(path, tracer.spans)
        lines = path.read_text().splitlines()
        assert len(lines) == count == len(tracer.spans)
        first = json.loads(lines[0])
        assert first["name"] == "run" and first["parent_id"] is None

    def test_records_carry_all_fields(self):
        (record,) = span_records(traced_run().spans[:1])
        assert set(record) == {
            "span_id", "parent_id", "name", "kind", "start", "end",
            "seconds", "attrs",
        }


class TestFlamegraph:
    def test_merges_same_named_siblings(self):
        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("run"):
            for _ in range(3):
                tracer.add_span("kernel.apply", kind="kernel", start=0.0, end=0.0)
        text = format_flamegraph(tracer.spans)
        assert text.count("kernel.apply") == 1
        assert "x3" in text

    def test_empty_input(self):
        assert format_flamegraph([]) == "(no spans)"
