"""Tests for execution tracing."""

import dataclasses

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator, DistributedState
from repro.plan import plan_for
from repro.runtime import ExecutionEngine
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.statevector import Simulator
from repro.telemetry import Telemetry


def traced(state, sched):
    """Execute *sched* on *state*; returns the op-level trace."""
    engine = ExecutionEngine(sched, telemetry=Telemetry.spans_only())
    return engine.run(state=state).trace


@pytest.fixture(scope="module")
def traced_run():
    n, l = 12, 8
    circ = generate_supremacy_circuit(n, 12, seed=17)
    sched = schedule_circuit(circ, SchedulerConfig(local_qubits=l, kmax=4, seed=3))
    state = DistributedState(
        n, l, init=sched.initial_state,
        initial_global_qubits=sched.initial_global_qubits or None,
    )
    trace = traced(state, sched)
    return circ, sched, state, trace


class TestTracing:
    def test_one_event_per_op(self, traced_run):
        _, sched, _, trace = traced_run
        assert len(trace.events) == len(list(sched.operations()))

    def test_execution_is_correct(self, traced_run):
        circ, _, state, _ = traced_run
        ref = Simulator(circ.num_qubits).run(circ).state
        assert state.to_statevector().allclose(ref, atol=1e-9)

    def test_swap_events_match_schedule(self, traced_run):
        _, sched, _, trace = traced_run
        swaps = [e for e in trace.events if e.kind == "swap"]
        assert len(swaps) == sched.num_swaps

    def test_kind_aggregation(self, traced_run):
        _, _, _, trace = traced_run
        by_kind = trace.seconds_by_kind()
        assert sum(by_kind.values()) == pytest.approx(trace.total_seconds)
        assert "cluster" in by_kind

    def test_comm_fraction_bounded(self, traced_run):
        _, _, _, trace = traced_run
        assert 0.0 <= trace.comm_fraction < 1.0

    def test_swap_events_carry_bytes_moved(self, traced_run):
        _, _, state, trace = traced_run
        swaps = [e for e in trace.events if e.kind == "swap"]
        assert all(e.bytes_moved is not None and e.bytes_moved > 0 for e in swaps)
        # One shared event model: the trace's byte totals are exactly the
        # communication counters'.
        assert trace.bytes_moved == state.stats.bytes_on_network

    def test_non_swap_events_have_no_bytes(self, traced_run):
        _, _, _, trace = traced_run
        others = [e for e in trace.events if e.kind != "swap"]
        assert all(e.bytes_moved is None for e in others)

    def test_op_index_populated(self, traced_run):
        _, sched, _, trace = traced_run
        assert [e.op_index for e in trace.events] == list(
            range(len(list(sched.operations())))
        )

    def test_signature_is_timing_free(self, traced_run):
        _, sched, _, trace = traced_run
        sig = trace.signature()
        assert len(sig) == len(trace.events)
        assert not any(
            isinstance(part, float) for entry in sig for part in entry
        )

    def test_timeline_render(self, traced_run):
        _, sched, _, trace = traced_run
        text = trace.timeline(width=30)
        assert "total" in text
        assert text.count("\n") >= len(trace.events)

    def test_trace_is_frozen_with_cached_aggregates(self, traced_run):
        _, _, _, trace = traced_run
        with pytest.raises(dataclasses.FrozenInstanceError):
            trace.events = ()
        assert trace.total_seconds == sum(e.seconds for e in trace.events)
        assert trace.bytes_moved == sum(
            e.bytes_moved or 0 for e in trace.events
        )

    def test_trace_carries_source_spans(self, traced_run):
        _, sched, _, trace = traced_run
        # the run-root span plus one span per op, at minimum
        assert len(trace.spans) > len(list(sched.operations()))
        op_spans = [
            s for s in trace.spans
            if s.kind in {"cluster", "specialized", "swap"}
        ]
        assert len(op_spans) == len(trace.events)

    def test_from_spans_filters_internal_kinds(self):
        from repro.distributed.tracing import ExecutionTrace
        from repro.telemetry import Tracer

        tracer = Tracer(clock=lambda: 0.0)
        with tracer.span("execute_schedule", kind="run"):
            with tracer.span("k=2 (3 gates)", kind="cluster", op_index=0):
                with tracer.span("kernel.apply", kind="kernel"):
                    pass
            with tracer.span("swap", kind="swap", op_index=1, bytes=512):
                with tracer.span("comm.alltoall", kind="comm"):
                    pass
        trace = ExecutionTrace.from_spans(tracer.spans)
        assert [e.kind for e in trace.events] == ["cluster", "swap"]
        assert trace.events[1].bytes_moved == 512
        assert [e.op_index for e in trace.events] == [0, 1]

    def test_absorbed_ops_classified(self):
        """A specialized diagonal the plan absorbed into a fused sweep
        still has its own event, of its own kind."""
        n, l = 10, 7
        circ = generate_supremacy_circuit(n, 10, seed=5)
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=l, seed=1))
        absorbed = {
            s.op_index for op in plan_for(sched).ops if op.num_sources > 1
            for s in op.sources if s.kind == "specialized"
        }
        assert absorbed
        state = DistributedState(
            n, l, init=sched.initial_state,
            initial_global_qubits=sched.initial_global_qubits or None,
        )
        trace = traced(state, sched)
        kinds = {e.op_index: e.kind for e in trace.events}
        assert {kinds[i] for i in absorbed} == {"specialized"}
        assert sorted(kinds) == list(range(len(list(sched.operations()))))

    def test_reused_telemetry_traces_each_run_alone(self):
        """Two runs on one bundle: each trace holds only its own run."""
        n, l = 10, 7
        circ = generate_supremacy_circuit(n, 10, seed=5)
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=l, seed=1))
        num_ops = len(list(sched.operations()))
        sim = DistributedSimulator(n, l, telemetry=Telemetry.enabled())
        first = sim.run_schedule(sched).trace
        second = sim.run_schedule(sched).trace
        assert len(first.events) == len(second.events) == num_ops
        assert first.signature() == second.signature()
