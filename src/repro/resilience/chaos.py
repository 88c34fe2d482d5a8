"""Chaos harness: sweep fault scenarios, prove bit-exact recovery.

Each :class:`ChaosScenario` builds a :class:`FaultPlan` against a
concrete schedule (fault coordinates depend on where its swaps land),
runs it through :class:`~repro.resilience.supervisor.ResilientExecutor`,
and compares the recovered final state **bit-for-bit** against a
fault-free reference execution of the same schedule.  Bit-exactness (not
``allclose``) is the honest bar: recovery replays identical kernels on
identical checkpointed amplitudes, so even the last ulp must match.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.distributed.checkpoint import CheckpointManager
from repro.distributed.simulator import DistributedSimulator
from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    RestartBudgetExceededError,
)
from repro.resilience.supervisor import (
    RecoveryReport,
    ResilientExecutor,
    RetryPolicy,
)
from repro.scheduling.program import Schedule, SwapOp

__all__ = [
    "ChaosRunResult",
    "ChaosScenario",
    "ChaosSuiteResult",
    "default_scenarios",
    "run_chaos_suite",
    "run_scenario",
]


def _no_sleep(_seconds: float) -> None:
    """Default sleeper: account delays without actually waiting."""


@dataclass(frozen=True)
class ChaosScenario:
    """One named fault configuration.

    ``build_plan`` receives ``(schedule, swap_indices, policy)`` and
    returns the plan (or ``None`` for a fault-free control).
    ``expect_error`` marks scenarios that must *fail* with a typed error
    instead of recovering.
    """

    name: str
    description: str
    build_plan: Callable[[Schedule, list[int], RetryPolicy], FaultPlan | None]
    expect_error: type | None = None
    verify: str = "swap"


@dataclass
class ChaosRunResult:
    """Outcome of one scenario."""

    scenario: ChaosScenario
    passed: bool
    bit_exact: bool | None  # None when the scenario expects an error
    error: str | None
    report: RecoveryReport | None
    trace_signature: list = field(default_factory=list)

    @property
    def name(self) -> str:
        """Scenario name (convenience for reports)."""
        return self.scenario.name


@dataclass
class ChaosSuiteResult:
    """All scenario outcomes plus the shared reference metadata."""

    schedule_summary: dict
    results: list[ChaosRunResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when every scenario passed."""
        return all(r.passed for r in self.results)

    @property
    def num_passed(self) -> int:
        """Number of passing scenarios."""
        return sum(1 for r in self.results if r.passed)


def swap_op_indices(schedule: Schedule) -> list[int]:
    """Op-stream indices of the schedule's global-to-local swaps."""
    return [
        i
        for i, op in enumerate(schedule.operations())
        if isinstance(op, SwapOp)
    ]


def default_scenarios() -> list[ChaosScenario]:
    """The six-plus canonical fault scenarios of the acceptance sweep."""

    def control(schedule, swaps, policy):
        return None

    def crash_before_swap(schedule, swaps, policy):
        return FaultPlan(
            seed=11,
            faults=(FaultSpec(op_index=swaps[0], kind="crash", phase="before"),),
        )

    def crash_mid_swap(schedule, swaps, policy):
        return FaultPlan(
            seed=12,
            faults=(FaultSpec(op_index=swaps[-1], kind="crash", phase="mid"),),
        )

    def corrupt_one_shard(schedule, swaps, policy):
        # Strike between swaps; verify="every" catches it at the next op.
        target = max(0, swaps[0] - 1)
        return FaultPlan(
            seed=13, faults=(FaultSpec(op_index=target, kind="corrupt"),)
        )

    def transient_then_success(schedule, swaps, policy):
        return FaultPlan(
            seed=14,
            faults=(FaultSpec(op_index=swaps[0], kind="transient", times=2),),
        )

    def stalled_link(schedule, swaps, policy):
        return FaultPlan(
            seed=15,
            faults=(
                FaultSpec(
                    op_index=swaps[0], kind="stall", stall_seconds=0.25
                ),
            ),
        )

    def restart_budget_exhausted(schedule, swaps, policy):
        return FaultPlan(
            seed=16,
            faults=(
                FaultSpec(
                    op_index=swaps[0],
                    kind="crash",
                    phase="before",
                    times=policy.max_restarts + 2,
                ),
            ),
        )

    return [
        ChaosScenario(
            "fault-free-control",
            "no faults; baseline the harness itself",
            control,
        ),
        ChaosScenario(
            "crash-before-swap",
            "rank dies before the first all-to-all; checkpoint restart",
            crash_before_swap,
        ),
        ChaosScenario(
            "crash-mid-swap",
            "rank dies mid-exchange leaving a torn shard; restart discards it",
            crash_mid_swap,
        ),
        ChaosScenario(
            "corrupt-one-shard",
            "silent bit flip at rest, detected by CRC32 verification",
            corrupt_one_shard,
            verify="every",
        ),
        ChaosScenario(
            "transient-then-success",
            "two transient all-to-all errors, then success under backoff",
            transient_then_success,
        ),
        ChaosScenario(
            "stalled-link",
            "slow link charged as stall overhead; no recovery needed",
            stalled_link,
        ),
        ChaosScenario(
            "restart-budget-exhausted",
            "crash striking on every attempt must raise the typed error",
            restart_budget_exhausted,
            expect_error=RestartBudgetExceededError,
        ),
    ]


def _reference_amplitudes(schedule: Schedule) -> np.ndarray:
    """Fault-free final state of the schedule, in logical order."""
    result = DistributedSimulator(
        schedule.num_qubits, schedule.local_qubits
    ).run_schedule(schedule)
    return result.state.to_statevector().data.copy()


def run_scenario(
    schedule: Schedule,
    scenario: ChaosScenario,
    workdir: str | Path,
    *,
    policy: RetryPolicy | None = None,
    checkpoint_every: int = 2,
    reference: np.ndarray | None = None,
    sleep=_no_sleep,
) -> ChaosRunResult:
    """Run one scenario and judge it against the fault-free reference."""
    policy = policy or RetryPolicy()
    if reference is None:
        reference = _reference_amplitudes(schedule)
    swaps = swap_op_indices(schedule)
    if not swaps:
        raise ValueError("chaos scenarios need a schedule with >= 1 swap")
    plan = scenario.build_plan(schedule, swaps, policy)
    ckpt_dir = Path(workdir) / scenario.name
    CheckpointManager(ckpt_dir).clear()
    executor = ResilientExecutor(
        schedule,
        ckpt_dir,
        plan=plan,
        policy=policy,
        checkpoint_every=checkpoint_every,
        verify=scenario.verify,
        sleep=sleep,
    )
    try:
        result = executor.run()
    except Exception as exc:  # noqa: BLE001 — judged below
        expected = scenario.expect_error is not None and isinstance(
            exc, scenario.expect_error
        )
        return ChaosRunResult(
            scenario=scenario,
            passed=expected,
            bit_exact=None,
            error=f"{type(exc).__name__}: {exc}",
            report=None,
        )
    if scenario.expect_error is not None:
        return ChaosRunResult(
            scenario=scenario,
            passed=False,
            bit_exact=None,
            error=f"expected {scenario.expect_error.__name__}, run succeeded",
            report=result.report,
            trace_signature=result.trace.signature(),
        )
    recovered = result.state.to_statevector().data
    bit_exact = bool(np.array_equal(recovered, reference))
    return ChaosRunResult(
        scenario=scenario,
        passed=bit_exact,
        bit_exact=bit_exact,
        error=None if bit_exact else "final state differs from reference",
        report=result.report,
        trace_signature=result.trace.signature(),
    )


def run_chaos_suite(
    schedule: Schedule,
    workdir: str | Path,
    *,
    scenarios: list[ChaosScenario] | None = None,
    policy: RetryPolicy | None = None,
    checkpoint_every: int = 2,
    sleep=_no_sleep,
) -> ChaosSuiteResult:
    """Run every scenario against one shared fault-free reference."""
    scenarios = scenarios if scenarios is not None else default_scenarios()
    reference = _reference_amplitudes(schedule)
    suite = ChaosSuiteResult(schedule_summary=schedule.summary())
    for scenario in scenarios:
        suite.results.append(
            run_scenario(
                schedule,
                scenario,
                workdir,
                policy=policy,
                checkpoint_every=checkpoint_every,
                reference=reference,
                sleep=sleep,
            )
        )
    return suite
