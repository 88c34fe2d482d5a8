"""Tests for schedule visualization."""

from repro.circuit import generate_supremacy_circuit
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.scheduling.visualize import render_schedule, schedule_table


def make_schedule():
    circ = generate_supremacy_circuit(12, 10, seed=4)
    return schedule_circuit(
        circ, SchedulerConfig(local_qubits=8, kmax=4, seed=0)
    )


class TestRenderSchedule:
    def test_contains_all_qubit_lanes(self):
        sched = make_schedule()
        text = render_schedule(sched)
        for q in range(12):
            assert f"q {q:>3} |" in text

    def test_stage_headers(self):
        sched = make_schedule()
        text = render_schedule(sched)
        for i in range(len(sched.stages)):
            assert f"stage{i}" in text

    def test_legend_present(self):
        assert "legend:" in render_schedule(make_schedule())

    def test_cluster_labels_appear(self):
        text = render_schedule(make_schedule())
        assert "[A]" in text

    def test_width_cap(self):
        text = render_schedule(make_schedule(), max_width=40)
        assert all(len(line) <= 40 for line in text.splitlines())


class TestScheduleTable:
    def test_rows_per_stage(self):
        sched = make_schedule()
        table = schedule_table(sched)
        assert table.count("\n") >= len(sched.stages)
        assert f"{sched.num_swaps} swaps" in table
        assert f"{sched.num_clusters} clusters" in table
