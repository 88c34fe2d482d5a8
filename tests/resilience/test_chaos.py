"""The acceptance chaos sweep: every scenario, bit-exact recovery."""

import pytest

from repro.resilience import (
    RetryPolicy,
    default_scenarios,
    format_chaos_suite,
    format_recovery_report,
    run_chaos_suite,
    swap_op_indices,
)


@pytest.fixture(scope="module")
def suite(tmp_path_factory, chaos_schedule):
    return run_chaos_suite(
        chaos_schedule, tmp_path_factory.mktemp("chaos"), checkpoint_every=2
    )


class TestChaosSuite:
    def test_schedule_meets_acceptance_floor(self, chaos_schedule):
        assert chaos_schedule.num_qubits >= 12
        ranks = 1 << (chaos_schedule.num_qubits - chaos_schedule.local_qubits)
        assert ranks >= 4

    def test_covers_required_scenarios(self):
        names = {s.name for s in default_scenarios()}
        assert {
            "fault-free-control",
            "crash-before-swap",
            "crash-mid-swap",
            "corrupt-one-shard",
            "transient-then-success",
            "restart-budget-exhausted",
        } <= names
        assert len(names) >= 6

    def test_every_scenario_passes(self, suite):
        failures = [r.name for r in suite.results if not r.passed]
        assert suite.passed, f"failing scenarios: {failures}"

    def test_recovery_scenarios_are_bit_exact(self, suite):
        recovered = [r for r in suite.results if r.bit_exact is not None]
        assert recovered and all(r.bit_exact for r in recovered)

    def test_budget_exhaustion_is_typed(self, suite):
        budget = next(
            r for r in suite.results if r.name == "restart-budget-exhausted"
        )
        assert budget.passed
        assert "RestartBudgetExceededError" in budget.error

    def test_faults_actually_fired(self, suite, chaos_schedule):
        """Every planned fault shows up in the run's report."""
        swaps = swap_op_indices(chaos_schedule)
        for r in suite.results:
            if r.name in ("fault-free-control", "restart-budget-exhausted"):
                continue
            assert r.report.faults_injected, r.name
            plan = r.scenario.build_plan(chaos_schedule, swaps, RetryPolicy())
            fired = {
                (f["op_index"], f["kind"]) for f in r.report.faults_injected
            }
            planned = {(f.op_index, f.kind) for f in plan.faults}
            assert fired == planned, r.name

    def test_report_renders(self, suite):
        text = format_chaos_suite(suite)
        assert "scenarios passed" in text
        for r in suite.results:
            assert r.name in text
        one = next(r.report for r in suite.results if r.report is not None)
        assert "redundant bytes" in format_recovery_report(one)


class TestDeterminism:
    def test_same_plan_same_trace_and_report(
        self, tmp_path_factory, chaos_schedule, suite
    ):
        """Acceptance: the same plan twice yields identical traces and
        identical recovery reports (modulo measured wall seconds)."""
        rerun = run_chaos_suite(
            chaos_schedule,
            tmp_path_factory.mktemp("chaos-rerun"),
            checkpoint_every=2,
        )
        assert [r.name for r in rerun.results] == [
            r.name for r in suite.results
        ]
        for a, b in zip(suite.results, rerun.results):
            assert a.passed == b.passed
            assert a.trace_signature == b.trace_signature
            if a.report is None:
                assert b.report is None
                continue
            assert a.report.to_dict(deterministic=True) == b.report.to_dict(
                deterministic=True
            )
