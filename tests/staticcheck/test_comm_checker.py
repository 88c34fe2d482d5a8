"""Comm-plan derivation, byte prediction and deadlock detection."""

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.staticcheck import (
    BarrierOp,
    CollectiveOp,
    RecvOp,
    SendOp,
    check_collectives,
    check_comm_stats,
    check_deadlock,
    comm_plan_for_schedule,
    predict_comm_stats,
)

from tests.conftest import random_circuit


def make_schedule(n=10, l=7, *, depth=10, seed=1, **cfg):
    circ = generate_supremacy_circuit(n, depth, seed=seed)
    return schedule_circuit(
        circ, SchedulerConfig(local_qubits=l, kmax=4, seed=seed, **cfg)
    )


class TestPlanDerivation:
    def test_one_program_per_rank(self):
        sched = make_schedule()
        programs = comm_plan_for_schedule(sched)
        assert len(programs) == 1 << (sched.num_qubits - sched.local_qubits)

    def test_plan_is_self_consistent(self):
        programs = comm_plan_for_schedule(make_schedule())
        assert check_collectives(programs).clean
        assert check_deadlock(programs).clean

    def test_alltoall_count_matches_swaps(self):
        sched = make_schedule()
        programs = comm_plan_for_schedule(sched)
        alltoalls = sum(
            1 for op in programs[0] if op.kind == "alltoall"
        )
        assert alltoalls == predict_comm_stats(sched)["alltoall_steps"]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("absorb", [False, True])
    def test_prediction_matches_real_run(self, seed, absorb):
        """The symbolic byte/step prediction equals what an actual
        distributed execution records — byte conservation, exactly."""
        sched = make_schedule(seed=seed, absorb_diagonals=absorb)
        state = DistributedSimulator(
            sched.num_qubits, sched.local_qubits
        ).run_schedule(sched).state
        report = check_comm_stats(sched, state.stats)
        assert report.clean, report.format()

    def test_single_node_schedule_has_empty_plan(self):
        sched = make_schedule(9, 9)
        programs = comm_plan_for_schedule(sched)
        assert programs == [[]]
        pred = predict_comm_stats(sched)
        assert pred["bytes_on_network"] == 0


class TestDeadlockDetection:
    def test_send_recv_cycle(self):
        # 0 sends to 1 while 1 sends to 0: classic rendezvous deadlock.
        programs = [[SendOp(1, 64, 0)], [SendOp(0, 64, 0)]]
        report = check_deadlock(programs)
        assert "deadlock" in report.categories(), report.format()
        assert any("cycle" in f.message for f in report.errors)

    def test_matched_send_recv_is_clean(self):
        programs = [
            [SendOp(1, 64, 0), RecvOp(1, 64, 1)],
            [RecvOp(0, 64, 0), SendOp(0, 64, 1)],
        ]
        assert check_deadlock(programs).clean

    def test_recv_from_silent_rank(self):
        programs = [[RecvOp(1, 64, 0)], []]
        report = check_deadlock(programs)
        assert "deadlock" in report.categories()
        assert any("terminated" in f.message for f in report.errors)

    def test_barrier_group_disagreement_hangs(self):
        programs = [
            [BarrierOp((0, 1), 0)],
            [BarrierOp((1, 2), 0)],
            [BarrierOp((1, 2), 0)],
        ]
        report = check_deadlock(programs)
        assert "deadlock" in report.categories(), report.format()

    def test_collective_missing_member_hangs(self):
        group = (0, 1)
        programs = [
            [CollectiveOp("alltoall", group, 128, 0)],
            [],  # rank 1 never joins
        ]
        report = check_deadlock(programs)
        assert "deadlock" in report.categories()

    def test_matching_collectives_are_clean(self):
        group = (0, 1)
        programs = [
            [CollectiveOp("alltoall", group, 128, 0)],
            [CollectiveOp("alltoall", group, 128, 0)],
        ]
        assert check_deadlock(programs).clean

    def test_three_rank_send_cycle(self):
        programs = [
            [SendOp(1, 8, 0)],
            [SendOp(2, 8, 0)],
            [SendOp(0, 8, 0)],
        ]
        report = check_deadlock(programs)
        assert any("cycle" in f.message for f in report.errors)


class TestCollectiveMatcher:
    def test_out_of_range_group_member(self):
        programs = [[CollectiveOp("alltoall", (0, 99), 64, 0)]]
        report = check_collectives(programs)
        assert "collective-mismatch" in report.categories()
        assert any("outside the job" in f.message for f in report.errors)

    def test_kind_disagreement(self):
        programs = [
            [CollectiveOp("alltoall", (0, 1), 64, 0)],
            [CollectiveOp("renumber", (0, 1), 64, 0)],
        ]
        report = check_collectives(programs)
        assert "collective-mismatch" in report.categories()

    def test_group_local_then_world_collectives_are_clean(self):
        """Regression: ranks 0-1 finish a group-local all-to-all and post
        the next world-wide one while ranks 2-3 still owe theirs.  The
        matcher used to lead with rank 0 regardless and report "rank 2
        disagrees on group membership"; the deadlock checker, which
        fires whichever group is ready, always found the plan clean."""
        sched = schedule_circuit(
            random_circuit(5, 30, seed=0),
            SchedulerConfig(
                local_qubits=3, kmax=2, seed=0, skip_initial_hadamards=False
            ),
        )
        programs = comm_plan_for_schedule(sched)
        groups = {op.group for program in programs for op in program}
        assert {(0, 1), (2, 3), (0, 1, 2, 3)} <= groups
        assert check_collectives(programs).clean
        assert check_deadlock(programs).clean

    def test_ready_group_fires_before_a_mismatch_is_reported(self):
        world = CollectiveOp("alltoall", (0, 1, 2, 3), 64, 1)
        programs = [
            [CollectiveOp("alltoall", (0, 1), 64, 0), world],
            [CollectiveOp("alltoall", (0, 1), 64, 0), world],
            [CollectiveOp("alltoall", (2, 3), 64, 0), world],
            [CollectiveOp("alltoall", (2, 3), 64, 0), world],
        ]
        assert check_collectives(programs).clean
        programs[3][1] = CollectiveOp("alltoall", (0, 1, 2, 3), 32, 1)
        report = check_collectives(programs)
        assert [f.rank for f in report.errors] == [3]

    def test_finding_cap_bounds_cascades(self):
        # Two ranks that disagree on every one of 100 collectives must
        # not produce an unbounded finding list.
        a = [CollectiveOp("alltoall", (0, 1), 64, i) for i in range(100)]
        b = [CollectiveOp("alltoall", (0, 1), 32, i) for i in range(100)]
        report = check_collectives([a, b], max_findings=10)
        assert len(report.findings) <= 10
