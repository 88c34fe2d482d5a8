"""Custom shard storage must survive a checkpoint restart (regression).

Before the runtime engine, ``run_resilient`` rebuilt every restart state
in memory from the checkpoint metadata, silently dropping a
``DiskShards`` backend mid-run.  The engine's ``state_factory`` plumbing
(and ``CheckpointManager.load(state_factory=...)``) keeps the run on its
original backend through recovery.
"""

import numpy as np
import pytest

from repro.distributed import DiskShards, DistributedSimulator
from repro.distributed.checkpoint import CheckpointManager
from repro.resilience import FaultPlan, FaultSpec, swap_op_indices

from tests.runtime.conftest import L, N


def _disk_storage(tmp_path):
    return DiskShards(
        num_shards=1 << (N - L),
        shard_size=1 << L,
        directory=tmp_path / "shards",
    )


def _crash_plan(schedule):
    swap = swap_op_indices(schedule)[-1]
    return FaultPlan(
        seed=2, faults=(FaultSpec(op_index=swap, kind="crash"),)
    )


class TestDiskShardsSurviveRestart:
    def test_restart_keeps_storage_backend(
        self, tmp_path, schedule, reference
    ):
        storage = _disk_storage(tmp_path)
        sim = DistributedSimulator(N, L, storage=storage)
        result = sim.run_resilient(
            schedule, tmp_path / "ckpt", plan=_crash_plan(schedule)
        )
        assert result.report.restarts == 1
        # The recovered run is still on the original disk backend and
        # still bit-exact with the fault-free reference.
        assert result.state.storage is storage
        assert np.array_equal(
            result.state.to_statevector().data, reference
        )

    def test_fault_free_run_uses_backend_too(
        self, tmp_path, schedule, reference
    ):
        storage = _disk_storage(tmp_path)
        sim = DistributedSimulator(N, L, storage=storage)
        result = sim.run_resilient(schedule, tmp_path / "ckpt")
        assert result.report.restarts == 0
        assert result.state.storage is storage
        assert np.array_equal(
            result.state.to_statevector().data, reference
        )


class TestLoadStateFactory:
    def test_load_into_custom_vessel(self, tmp_path, schedule, reference):
        mgr = CheckpointManager(tmp_path / "ckpt")
        sim = DistributedSimulator(N, L)
        run = sim.run_schedule(schedule)
        mgr.save(run.state, next_op_index=7)

        storage = _disk_storage(tmp_path)
        state, next_op = mgr.load(
            state_factory=lambda: DistributedSimulator(
                N, L, storage=storage
            ).new_state()
        )
        assert next_op == 7
        assert state.storage is storage
        assert np.array_equal(state.to_statevector().data, reference)

    def test_load_rejects_mismatched_vessel(self, tmp_path, schedule):
        mgr = CheckpointManager(tmp_path / "ckpt")
        run = DistributedSimulator(N, L).run_schedule(schedule)
        mgr.save(run.state, next_op_index=0)
        with pytest.raises(ValueError, match="state_factory"):
            mgr.load(
                state_factory=lambda: DistributedSimulator(
                    N, L - 1
                ).new_state()
            )
