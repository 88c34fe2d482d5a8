"""Trace signature stability across retry/restart interleavings.

``ExecutionTrace.signature()`` is the determinism anchor: two executions
of the same schedule under the same fault plan must produce equal
signatures even though wall times differ — and the span trees produced
under faults must still satisfy the nesting invariants.
"""

from __future__ import annotations

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    ResilientExecutor,
    RetryPolicy,
    swap_op_indices,
)
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.telemetry import Telemetry, verify_nesting


@pytest.fixture(scope="module")
def schedule():
    circ = generate_supremacy_circuit(12, 16, seed=0)
    sched = schedule_circuit(
        circ, SchedulerConfig(local_qubits=10, kmax=4, seed=1)
    )
    assert sched.num_swaps >= 1
    return sched


def run(schedule, workdir, *, plan=None, telemetry=None):
    return ResilientExecutor(
        schedule,
        workdir,
        plan=plan,
        policy=RetryPolicy(max_retries=3, max_restarts=2),
        sleep=lambda _s: None,
        telemetry=telemetry,
    ).run()


def transient_plan(schedule):
    swaps = swap_op_indices(schedule)
    return FaultPlan(
        seed=3, faults=(FaultSpec(op_index=swaps[0], kind="transient"),)
    )


def crash_plan(schedule):
    swaps = swap_op_indices(schedule)
    return FaultPlan(
        seed=5,
        faults=(FaultSpec(op_index=swaps[-1], kind="crash", phase="mid"),),
    )


class TestSignatureStability:
    def test_fault_free_reruns_agree(self, schedule, tmp_path):
        a = run(schedule, tmp_path / "a")
        b = run(schedule, tmp_path / "b")
        assert a.trace.signature() == b.trace.signature()

    def test_retry_interleaving_is_deterministic(self, schedule, tmp_path):
        plan = transient_plan(schedule)
        a = run(schedule, tmp_path / "a", plan=plan)
        b = run(schedule, tmp_path / "b", plan=plan)
        assert a.report.transient_retries >= 1
        assert a.trace.signature() == b.trace.signature()

    def test_restart_interleaving_is_deterministic(self, schedule, tmp_path):
        plan = crash_plan(schedule)
        a = run(schedule, tmp_path / "a", plan=plan)
        b = run(schedule, tmp_path / "b", plan=plan)
        assert a.report.restarts == 1
        assert a.trace.signature() == b.trace.signature()

    def test_faults_are_part_of_the_signature(self, schedule, tmp_path):
        clean = run(schedule, tmp_path / "clean")
        faulty = run(schedule, tmp_path / "faulty", plan=transient_plan(schedule))
        assert clean.trace.signature() != faulty.trace.signature()

    def test_retries_only_add_fault_events(self, schedule, tmp_path):
        """Dropping fault events from a retried run recovers the clean run."""
        clean = run(schedule, tmp_path / "clean")
        faulty = run(schedule, tmp_path / "faulty", plan=transient_plan(schedule))
        clean_sig = clean.trace.signature()
        faulty_ops = [s for s in faulty.trace.signature() if s[0] != "fault"]
        assert faulty_ops == clean_sig

    def test_caller_tracer_reuse_does_not_pollute(self, schedule, tmp_path):
        """A shared telemetry bundle across runs still yields per-run traces."""
        telemetry = Telemetry.enabled()
        a = run(schedule, tmp_path / "a", telemetry=telemetry)
        b = run(schedule, tmp_path / "b", telemetry=telemetry)
        assert a.trace.signature() == b.trace.signature()
        assert len(a.trace.events) == len(b.trace.events)


class TestSpanNesting:
    def test_fault_free_span_tree_well_formed(self, schedule, tmp_path):
        result = run(schedule, tmp_path)
        assert result.spans
        assert verify_nesting(result.spans, tolerance=1e-9) == []

    def test_retry_span_tree_well_formed(self, schedule, tmp_path):
        result = run(schedule, tmp_path, plan=transient_plan(schedule))
        assert verify_nesting(result.spans, tolerance=1e-9) == []

    def test_restart_span_tree_well_formed(self, schedule, tmp_path):
        result = run(schedule, tmp_path, plan=crash_plan(schedule))
        assert result.report.restarts == 1
        assert verify_nesting(result.spans, tolerance=1e-9) == []

    def test_full_telemetry_under_faults_joins_bytes(self, schedule, tmp_path):
        """Metrics streamed across retries equal the merged CommStats."""
        telemetry = Telemetry.enabled()
        result = run(schedule, tmp_path, plan=crash_plan(schedule),
                     telemetry=telemetry)
        snap = telemetry.metrics.snapshot()
        assert snap["comm.bytes_on_network"] >= result.comm.bytes_on_network
        assert snap["resilience.restarts"] == 1
