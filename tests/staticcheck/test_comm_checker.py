"""Byte conservation: predicted comm counters against real runs."""

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.plan import PlanConfig
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.staticcheck import check_comm_stats, predict_comm_stats


def make_schedule(n=10, l=7, *, depth=10, seed=1, **cfg):
    circ = generate_supremacy_circuit(n, depth, seed=seed)
    return schedule_circuit(
        circ, SchedulerConfig(local_qubits=l, kmax=4, seed=seed, **cfg)
    )


class TestPlanDerivation:
    def test_alltoall_count_matches_swaps(self):
        sched = make_schedule()
        pred = predict_comm_stats(sched, (1 << 7) * 16)
        assert sched.num_swaps > 0
        assert pred["alltoall_steps"] == sched.num_swaps

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "unfused, single_precision",
        [(False, False), (True, False), (False, True)],
        ids=["False", "True", "complex64"],
    )
    def test_prediction_matches_real_run(self, seed, unfused, single_precision):
        """The byte/step prediction equals what an actual distributed
        execution records — byte conservation, exactly, at the run's
        amplitude width, whether or not the plan absorbs specialized
        diagonals into neighbouring sweeps."""
        sched = make_schedule(seed=seed)
        state = DistributedSimulator(
            sched.num_qubits, sched.local_qubits,
            single_precision=single_precision,
        ).run_schedule(
            sched, plan_config=PlanConfig(fusion_kmax=0) if unfused else None
        ).state
        report = check_comm_stats(
            sched, state.stats, state.storage.shard_bytes
        )
        assert report.clean, report.format()

    def test_single_node_schedule_has_empty_plan(self):
        sched = make_schedule(9, 9)
        pred = predict_comm_stats(sched, (1 << 9) * 16)
        assert pred == {
            "alltoall_steps": 0,
            "group_alltoall_calls": 0,
            "bytes_on_network": 0,
        }
