"""Composition-matrix tests for the runtime engine.

Every subset of {trace, sanitize, faults, checkpoint} must produce final
amplitudes identical, byte for byte, to the bare plan run, and every
traced combination must produce an identical
``ExecutionTrace.signature()`` (modulo the extra ``fault`` events
injected combinations add).
"""

import itertools

import numpy as np
import pytest

from repro.plan import PlanConfig
from repro.resilience import FaultPlan, FaultSpec, swap_op_indices
from repro.runtime import (
    CheckpointLayer,
    ExecutionEngine,
    FaultLayer,
    IntegrityLayer,
    RetryPolicy,
    SanitizerLayer,
)
from repro.staticcheck import ShardSanitizer
from repro.telemetry import Telemetry

from tests.runtime.conftest import small_schedule


def _transient_plan(schedule):
    swap = swap_op_indices(schedule)[0]
    return FaultPlan(
        seed=1, faults=(FaultSpec(op_index=swap, kind="transient", times=2),)
    )


def _run_combo(
    schedule,
    ckpt_dir,
    *,
    trace,
    sanitize,
    faults,
    checkpoint,
):
    """One engine run with exactly the requested layer subset."""
    no_sleep = lambda _s: None  # noqa: E731
    layers = []
    telemetry = Telemetry.enabled() if trace else None
    if checkpoint:
        layers.append(CheckpointLayer(ckpt_dir, every=3))
    if faults:
        layers.append(FaultLayer(_transient_plan(schedule), sleep=no_sleep))
    if sanitize:
        layers.append(SanitizerLayer(ShardSanitizer()))
    engine = ExecutionEngine(
        schedule,
        layers=layers,
        policy=RetryPolicy() if faults else None,
        telemetry=telemetry,
        sleep=no_sleep,
    )
    return engine.run()


_MATRIX = list(itertools.product([False, True], repeat=4))


class TestCompositionMatrix:
    @pytest.mark.parametrize("trace,sanitize,faults,checkpoint", _MATRIX)
    def test_subset_matches_reference(
        self,
        tmp_path,
        schedule,
        reference,
        trace,
        sanitize,
        faults,
        checkpoint,
    ):
        result = _run_combo(
            schedule,
            tmp_path / "ckpt",
            trace=trace,
            sanitize=sanitize,
            faults=faults,
            checkpoint=checkpoint,
        )
        amps = result.state.to_statevector().data
        assert np.array_equal(amps, reference)

    def test_traced_signatures_identical_across_matrix(
        self, tmp_path, schedule
    ):
        base = None
        for i, (sanitize, faults, checkpoint) in enumerate(
            itertools.product([False, True], repeat=3)
        ):
            result = _run_combo(
                schedule,
                tmp_path / f"ckpt-{i}",
                trace=True,
                sanitize=sanitize,
                faults=faults,
                checkpoint=checkpoint,
            )
            signature = result.trace.signature()
            op_events = [e for e in signature if e[0] != "fault"]
            if base is None:
                base = op_events
            # The op-event stream is identical in every combination;
            # fault combinations add their (deterministic) fault events
            # on top.
            assert op_events == base
            if faults:
                assert len(signature) > len(op_events)
            else:
                assert signature == base

    def test_fault_events_are_deterministic(self, tmp_path, schedule):
        runs = [
            _run_combo(
                schedule,
                tmp_path / f"ckpt-{i}",
                trace=True,
                sanitize=False,
                faults=True,
                checkpoint=True,
            ).trace.signature()
            for i in range(2)
        ]
        assert runs[0] == runs[1]


class TestCrashRecoveryComposition:
    def test_crash_with_checkpoint_resume_is_bit_exact(
        self, tmp_path, schedule, reference
    ):
        no_sleep = lambda _s: None  # noqa: E731
        swap = swap_op_indices(schedule)[-1]
        plan = FaultPlan(
            seed=2, faults=(FaultSpec(op_index=swap, kind="crash"),)
        )
        telemetry = Telemetry.enabled()
        engine = ExecutionEngine(
            schedule,
            layers=[
                CheckpointLayer(tmp_path / "ckpt", every=2, resume=True),
                FaultLayer(plan, sleep=no_sleep),
                IntegrityLayer("swap"),
            ],
            policy=RetryPolicy(),
            telemetry=telemetry,
            sleep=no_sleep,
        )
        result = engine.run()
        assert result.report.restarts == 1
        assert np.array_equal(result.state.to_statevector().data, reference)
        assert any(e.kind == "fault" for e in result.trace.events)


class TestSeedSweep:
    @pytest.mark.parametrize("seed", range(20))
    def test_full_stack_matches_bare_plan_run(self, tmp_path, seed):
        """Property sweep: the full layer stack never changes the math."""
        no_sleep = lambda _s: None  # noqa: E731
        schedule = small_schedule(seed)
        bare = ExecutionEngine(schedule).run()
        stacked = ExecutionEngine(
            schedule,
            layers=[
                CheckpointLayer(tmp_path / "ckpt", every=4),
                FaultLayer(_transient_plan(schedule), sleep=no_sleep),
                SanitizerLayer(ShardSanitizer()),
            ],
            policy=RetryPolicy(),
            telemetry=Telemetry.enabled(),
            sleep=no_sleep,
        ).run()
        assert np.array_equal(
            stacked.state.to_statevector().data,
            bare.state.to_statevector().data,
        )
        # And the traced signature matches a plain traced run of the
        # unfused plan, op for op, once the injected fault events are
        # filtered out.
        traced = ExecutionEngine(
            schedule,
            plan_config=PlanConfig(fusion_kmax=0),
            telemetry=Telemetry.enabled(),
        ).run()
        stacked_ops = [
            e for e in stacked.trace.signature() if e[0] != "fault"
        ]
        assert stacked_ops == traced.trace.signature()
