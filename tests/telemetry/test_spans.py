"""Tracer/Span unit tests: nesting, stack repair, events, verification."""

from __future__ import annotations

from repro.telemetry import NULL_TRACER, Tracer, verify_nesting
from repro.telemetry.spans import NULL_SPAN_CONTEXT


class FakeClock:
    """Deterministic clock; ``tick()`` advances it."""

    def __init__(self) -> None:
        self.t = 100.0  # non-zero epoch: spans must be epoch-relative

    def __call__(self) -> float:
        return self.t

    def tick(self, dt: float = 1.0) -> float:
        self.t += dt
        return self.t


def make_tracer(**kwargs):
    clock = FakeClock()
    return Tracer(clock=clock, **kwargs), clock


class TestTracer:
    def test_nested_spans_form_a_tree(self):
        tracer, clock = make_tracer()
        with tracer.span("outer", kind="run") as outer:
            clock.tick()
            with tracer.span("inner", kind="kernel", k=3) as inner:
                clock.tick()
            clock.tick()
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.attrs == {"k": 3}
        assert outer.seconds == 3.0 and inner.seconds == 1.0
        assert verify_nesting(tracer.spans) == []

    def test_times_are_epoch_relative(self):
        tracer, clock = make_tracer()
        clock.tick(5.0)
        with tracer.span("op"):
            clock.tick()
        (span,) = tracer.spans
        assert span.start == 5.0 and span.end == 6.0
        assert tracer.now() == clock() - tracer.epoch

    def test_current_tracks_the_open_span(self):
        tracer, _ = make_tracer()
        assert tracer.current is None
        with tracer.span("a") as a:
            assert tracer.current is a
            with tracer.span("b") as b:
                assert tracer.current is b
            assert tracer.current is a
        assert tracer.current is None

    def test_forgotten_inner_span_is_repaired(self):
        """Closing an outer span force-closes leaked children."""
        tracer, clock = make_tracer()
        outer_cm = tracer.span("outer")
        outer = outer_cm.__enter__()
        inner_cm = tracer.span("inner")
        inner = inner_cm.__enter__()
        clock.tick()
        outer_cm.__exit__(None, None, None)  # inner never exited
        assert inner.finished and inner.end == outer.end
        assert tracer.current is None
        assert verify_nesting(tracer.spans) == []

    def test_exception_still_closes_span(self):
        tracer, clock = make_tracer()
        try:
            with tracer.span("doomed"):
                clock.tick()
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert tracer.spans[0].finished

    def test_event_is_zero_duration_child(self):
        tracer, clock = make_tracer()
        with tracer.span("run") as run:
            clock.tick()
            evt = tracer.event("fault", kind="fault", detail="x")
        assert evt.seconds == 0.0
        assert evt.parent_id == run.span_id
        assert evt.attrs == {"detail": "x"}

    def test_add_span_defaults_parent_to_open_span(self):
        tracer, clock = make_tracer()
        with tracer.span("comm") as comm:
            start = tracer.now()
            clock.tick()
            added = tracer.add_span(
                "comm.alltoall", kind="comm", start=start,
                end=tracer.now(), bytes=1024,
            )
        assert added.parent_id == comm.span_id
        assert added.attrs == {"bytes": 1024}
        assert verify_nesting(tracer.spans) == []

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("x") is NULL_SPAN_CONTEXT
        with tracer.span("x") as span:
            assert span is None
        assert tracer.event("e") is None
        assert tracer.add_span("a", start=0.0, end=1.0) is None
        assert tracer.spans == []
        assert NULL_TRACER.enabled is False


class TestVerifyNesting:
    def test_flags_unfinished_span(self):
        tracer, _ = make_tracer()
        tracer.span("open").__enter__()
        problems = verify_nesting(tracer.spans)
        assert problems and "never finished" in problems[0]

    def test_flags_child_escaping_parent(self):
        tracer, clock = make_tracer()
        with tracer.span("parent"):
            clock.tick()
        tracer.add_span("bad", start=0.0, end=99.0, parent_id=0)
        problems = verify_nesting(tracer.spans)
        assert any("escapes parent" in p for p in problems)

    def test_flags_same_lane_sibling_overlap(self):
        tracer, _ = make_tracer()
        tracer.add_span("a", start=0.0, end=2.0)
        tracer.add_span("b", start=1.0, end=3.0)
        assert any("overlap" in p for p in verify_nesting(tracer.spans))

    def test_flags_unknown_parent(self):
        tracer, _ = make_tracer()
        tracer.add_span("orphan", start=0.0, end=1.0, parent_id=999)
        assert any("unknown parent" in p for p in verify_nesting(tracer.spans))

    def test_tolerance_forgives_clock_jitter(self):
        tracer, clock = make_tracer()
        with tracer.span("parent"):
            clock.tick()
        tracer.add_span("child", start=-1e-9, end=1.0, parent_id=0)
        assert verify_nesting(tracer.spans)  # strict: escapes
        assert verify_nesting(tracer.spans, tolerance=1e-6) == []
