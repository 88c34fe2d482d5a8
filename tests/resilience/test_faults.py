"""Tests for the deterministic fault plan / injector."""

import numpy as np
import pytest

from repro.distributed import DistributedSimulator, DistributedState
from repro.plan import plan_for
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    RankCrashError,
    ResilientExecutor,
    TransientCommError,
)
from repro.runtime import FaultLayer


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(op_index=0, kind="meteor")

    def test_rejects_bad_crash_phase(self):
        with pytest.raises(ValueError, match="phase"):
            FaultSpec(op_index=0, kind="crash", phase="after")

    def test_rejects_negative_index_and_times(self):
        with pytest.raises(ValueError):
            FaultSpec(op_index=-1, kind="crash")
        with pytest.raises(ValueError):
            FaultSpec(op_index=0, kind="crash", times=0)


class TestFaultPlanJson:
    def test_roundtrip(self):
        plan = FaultPlan(
            seed=42,
            faults=(
                FaultSpec(op_index=3, kind="crash", phase="mid", rank=1),
                FaultSpec(op_index=5, kind="transient", times=2),
                FaultSpec(op_index=7, kind="stall", stall_seconds=0.5),
                FaultSpec(op_index=9, kind="corrupt"),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_from_file(self, tmp_path):
        plan = FaultPlan(seed=1, faults=(FaultSpec(op_index=0, kind="corrupt"),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.from_file(path) == plan

    def test_faults_at(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(op_index=2, kind="crash"),
                FaultSpec(op_index=2, kind="stall"),
                FaultSpec(op_index=4, kind="corrupt"),
            )
        )
        assert len(plan.faults_at(2)) == 2
        assert plan.faults_at(3) == ()


class TestFaultInjector:
    def test_crash_before_fires_once(self):
        plan = FaultPlan(faults=(FaultSpec(op_index=1, kind="crash"),))
        injector = FaultInjector(plan)
        state = DistributedState(4, 3)
        with pytest.raises(RankCrashError):
            injector.on_op_start(1, state)
        # Consumed: the replay sails through.
        injector.on_op_start(1, state)
        assert len(injector.log) == 1

    def test_reset_rearms(self):
        plan = FaultPlan(faults=(FaultSpec(op_index=0, kind="crash"),))
        injector = FaultInjector(plan)
        state = DistributedState(4, 3)
        with pytest.raises(RankCrashError):
            injector.on_op_start(0, state)
        injector.reset()
        assert injector.log == []
        with pytest.raises(RankCrashError):
            injector.on_op_start(0, state)

    def test_corruption_is_deterministic(self):
        plan = FaultPlan(seed=5, faults=(FaultSpec(op_index=0, kind="corrupt"),))

        def corrupted_state():
            state = DistributedState(6, 4, init="plus")
            FaultInjector(plan).on_op_start(0, state)
            return state

        a, b = corrupted_state(), corrupted_state()
        assert a.shard_checksums() == b.shard_checksums()
        # And it really changed exactly one shard vs a clean state.
        clean = DistributedState(6, 4, init="plus")
        diffs = [
            r
            for r in range(clean.num_ranks)
            if a.shard_checksum(r) != clean.shard_checksum(r)
        ]
        assert len(diffs) == 1

    def test_corrupt_targets_requested_rank(self):
        plan = FaultPlan(
            seed=5, faults=(FaultSpec(op_index=0, kind="corrupt", rank=2),)
        )
        state = DistributedState(6, 4, init="plus")
        clean = DistributedState(6, 4, init="plus")
        FaultInjector(plan).on_op_start(0, state)
        for r in range(state.num_ranks):
            same = state.shard_checksum(r) == clean.shard_checksum(r)
            assert same == (r != 2)

    def test_stall_returns_seconds(self):
        plan = FaultPlan(
            faults=(FaultSpec(op_index=0, kind="stall", stall_seconds=1.5),)
        )
        state = DistributedState(4, 3)
        assert FaultInjector(plan).on_op_start(0, state) == 1.5

    def test_transient_fires_inside_exchange_only(self):
        plan = FaultPlan(faults=(FaultSpec(op_index=0, kind="transient"),))
        injector = FaultInjector(plan)
        state = DistributedState(6, 4, init="plus")
        # The boundary hook never raises transients...
        assert injector.on_op_start(0, state) == 0.0
        # ...the patched exchange does, before moving any bytes.
        with injector.exchange_guard(0, state):
            with pytest.raises(TransientCommError):
                state.storage.exchange_blocks(1)
        assert state.stats.bytes_on_network == 0

    def test_exchange_guard_restores_storage(self):
        plan = FaultPlan(faults=(FaultSpec(op_index=0, kind="transient"),))
        injector = FaultInjector(plan)
        state = DistributedState(6, 4, init="plus")
        with pytest.raises(TransientCommError):
            with injector.exchange_guard(0, state):
                assert "exchange_blocks" in state.storage.__dict__
                state.storage.exchange_blocks(1)
        # The instance-level patch is gone; the class method is back.
        assert "exchange_blocks" not in state.storage.__dict__

    def test_mid_crash_records_wasted_bytes(self):
        plan = FaultPlan(
            faults=(FaultSpec(op_index=0, kind="crash", phase="mid"),)
        )
        injector = FaultInjector(plan)
        state = DistributedState(6, 4, init="plus")
        with injector.exchange_guard(0, state):
            with pytest.raises(RankCrashError):
                state.storage.exchange_blocks(1)
        assert state.stats.bytes_on_network > 0


class TestFaultsAtFoldedOps:
    """A fault planned at an op the plan folds into a fused unit fires at
    the start of that unit (it used to be skipped silently)."""

    @pytest.fixture
    def folded(self, chaos_schedule):
        fused = next(
            op for op in plan_for(chaos_schedule).ops if op.num_sources > 1
        )
        return fused.sources[-1].op_index

    @pytest.mark.parametrize("kind", ["corrupt", "stall"])
    def test_fault_fires_inside_fused_unit(self, chaos_schedule, folded, kind):
        injector = FaultInjector(
            FaultPlan(
                seed=5,
                faults=(
                    FaultSpec(op_index=folded, kind=kind, stall_seconds=0.5),
                ),
            )
        )
        DistributedSimulator(12, 10).run_schedule(
            chaos_schedule, layers=[FaultLayer(injector, sleep=lambda s: None)]
        )
        assert [e["op_index"] for e in injector.log] == [folded]
        assert injector.log[0]["kind"] == kind

    def test_crash_fires_inside_fused_unit(self, chaos_schedule, folded):
        plan = FaultPlan(faults=(FaultSpec(op_index=folded, kind="crash"),))
        with pytest.raises(RankCrashError, match=f"before op {folded}"):
            DistributedSimulator(12, 10).run_schedule(
                chaos_schedule, layers=[FaultLayer(plan)]
            )

    def test_corruption_detected_and_recovered(
        self, tmp_path, chaos_schedule, chaos_reference, folded
    ):
        plan = FaultPlan(
            seed=13, faults=(FaultSpec(op_index=folded, kind="corrupt"),)
        )
        result = ResilientExecutor(
            chaos_schedule, tmp_path, plan=plan, verify="every",
            sleep=lambda s: None,
        ).run()
        assert [f["op_index"] for f in result.report.faults_injected] == [
            folded
        ]
        assert result.report.corruption_detections == 1
        assert result.report.restarts == 1
        assert np.array_equal(
            result.state.to_statevector().data, chaos_reference
        )
