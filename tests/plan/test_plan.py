"""Tests for repro.plan: compiled execution plans and their executor."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import Circuit, generate_supremacy_circuit
from repro.distributed import DistributedSimulator, DistributedState
from repro.gates import Gate
from repro.kernels import GATHER_CACHE, apply_gate_reference
from repro.plan import (
    CompiledProgram,
    PlanConfig,
    PlanOp,
    compile_program,
    plan_for,
)
from repro.plan.passes import PassContext, finalize_pass, lower_pass
from repro.plan.program import _counts_of
from repro.runtime import ExecutionEngine
from repro.scheduling import GateOp, SchedulerConfig, SwapOp, schedule_circuit
from repro.telemetry import Telemetry

_N, _L = 8, 5


def _small_case(seed, *, depth=8):
    circuit = generate_supremacy_circuit(_N, depth, seed=seed)
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=_L, kmax=3, seed=seed + 1)
    )
    return circuit, schedule


def _state_for(schedule, *, telemetry=None):
    """A fresh state initialised exactly as run_schedule would."""
    return DistributedState(
        _N,
        _L,
        init=getattr(schedule, "initial_state", "zero"),
        initial_global_qubits=schedule.initial_global_qubits or None,
        telemetry=telemetry,
    )


def _written(state):
    """*state* with one write since its init fill (a shard set to its own
    amplitudes): no longer fresh, so the engine runs every plan op."""
    state.storage.set(0, state.storage.read(0).copy())
    return state


def _unfused_program(schedule) -> CompiledProgram:
    """The plan without its refuse pass: one plan op per schedule op."""
    ctx = PassContext.for_schedule(schedule, PlanConfig())
    ops = finalize_pass(lower_pass((), ctx), ctx)
    return CompiledProgram(
        schedule=schedule, ops=ops, config=ctx.config, compile_seconds=0.0,
        counts=_counts_of(ops),
    )


def _reference_run(circuit):
    """Per-gate apply_gate_reference loop: the ground-truth state."""
    state = np.zeros(1 << circuit.num_qubits, dtype=np.complex128)
    state[0] = 1.0
    for gate in circuit:
        apply_gate_reference(state, gate.matrix, gate.qubits)
    return state


class TestCompile:
    def test_every_schedule_op_is_accounted_for(self):
        _, schedule = _small_case(0)
        plan = compile_program(schedule)
        # Each source op appears in exactly one plan op (fused runs carry
        # all their sources), so the tallies reconcile.
        assert plan.num_source_ops == sum(op.num_sources for op in plan.ops)
        c = plan.counts
        assert len(plan.ops) == (
            c["kernel_ops"] + c["fused_kernel_ops"] + c["swap_ops"]
            + c["passthrough_ops"]
        )
        assert plan.num_source_ops == len(plan.ops) + c["refused_away_ops"]
        # Passthrough is left for gates that renumber ranks only.
        for op in plan.ops:
            if op.exec_kind == "passthrough":
                assert isinstance(op.source_op, GateOp)
                assert not op.source_op.gate.is_diagonal

    def test_phase_multiply_runs_for_exactly_the_all_control_ops(self):
        """A kernel op's gate alone fixes its kernel: the run takes the
        phase multiply exactly for the all-control gates."""
        _, schedule = _small_case(1)
        plan = compile_program(schedule)
        sweeps = [op for op in plan.ops if op.gate is not None]
        assert any(op.exec_kind == "kernel" for op in sweeps)
        run = DistributedSimulator(_N, _L).run_schedule(
            schedule, state=_written(_state_for(schedule))
        )
        assert run.kernel_cost.diagonal_calls == sum(
            not op.gate.targets for op in sweeps
        )

    def test_fusion_merges_consecutive_diagonals(self):
        """Adjacent diagonals in one stage end up in one phase multiply
        (or inside a dense sweep) unless their union is too wide."""
        _, schedule = _small_case(2)
        fused = compile_program(schedule)
        unfused = _unfused_program(schedule)
        assert unfused.counts["refused_away_ops"] == 0
        assert len(fused.ops) < len(unfused.ops)
        kmax = min(fused.config.fusion_kmax, _L - 1)
        for a, b in zip(fused.ops, fused.ops[1:]):
            if a.gate is None or b.gate is None or a.stage != b.stage:
                continue
            if not (a.gate.targets or b.gate.targets):
                assert len(set(a.qubits) | set(b.qubits)) > kmax

    def test_plan_for_memoizes_per_schedule(self):
        _, schedule = _small_case(3)
        assert plan_for(schedule) is plan_for(schedule)
        assert plan_for(schedule) is not plan_for(
            schedule, PlanConfig(fusion_kmax=0)
        )

    @pytest.mark.parametrize("width, fused", [(10, 1), (12, 0)])
    def test_diagonal_runs_fuse_up_to_ten_qubits(self, width, fused):
        """Under ``fusion_kmax=10`` a run of diagonals over ten qubits is
        one phase multiply, over twelve it is cut."""
        circuit = Circuit(width + 1)  # an idle qubit: l - 1 >= width
        for q in range(0, width, 2):
            circuit.append(Gate("cz", (q, q + 1)))
        for q in range(width):
            circuit.append(Gate("t", (q,)))
        schedule = schedule_circuit(
            circuit, SchedulerConfig(local_qubits=width + 1, kmax=2, seed=1)
        )
        plan = compile_program(schedule, PlanConfig(fusion_kmax=10))
        assert not any(op.gate.targets for op in plan.ops)
        assert (len(plan.ops) == 1) == bool(fused)

    def test_summary_reports_counters(self):
        _, schedule = _small_case(4)
        plan = compile_program(schedule)
        summary = plan.summary()
        assert summary["num_plan_ops"] == len(plan.ops)
        assert summary["num_source_ops"] == plan.num_source_ops
        assert summary["fusion_kmax"] == plan.config.fusion_kmax


class TestExecutionCorrectness:
    @pytest.mark.parametrize("seed", range(20))
    def test_planned_run_matches_reference_kernel(self, seed):
        """>=20 seeds: the compiled plan reproduces the per-gate
        apply_gate_reference ground truth."""
        circuit, schedule = _small_case(seed)
        res = DistributedSimulator(_N, _L).run_schedule(schedule)
        assert np.allclose(
            res.state.to_statevector().data, _reference_run(circuit), atol=1e-9
        )

    @pytest.mark.parametrize("seed", [0, 7, 13])
    def test_unfused_plan_bit_exact_vs_direct_execution(self, seed):
        """Without the refuse pass the plan, run through the engine on a
        state that is not fresh, makes the exact kernel calls of applying
        every schedule op's gate straight through the state, so
        amplitudes are bit-identical."""
        _, schedule = _small_case(seed)
        ref = ExecutionEngine(_unfused_program(schedule)).run(
            state=_written(_state_for(schedule))
        ).state

        direct = _state_for(schedule)
        for op in schedule.operations():
            if isinstance(op, SwapOp):
                direct.swap_global_set(op.new_global_qubits)
            elif isinstance(op, GateOp):
                direct.apply_gate(op.gate)
            else:
                direct.apply_gate(op.fused)
        assert np.array_equal(
            direct.to_statevector().data, ref.to_statevector().data
        )

    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_fused_plan_matches_unfused(self, seed):
        _, schedule = _small_case(seed)
        a = _state_for(schedule)
        compile_program(schedule).execute(a)
        b = _state_for(schedule)
        _unfused_program(schedule).execute(b)
        assert np.allclose(
            a.to_statevector().data, b.to_statevector().data, atol=1e-12
        )

    def test_cross_rank_plan_sharing(self):
        """One CompiledProgram drives every virtual rank: the same plan
        object executes repeatedly and reuses cached phase factors."""
        _, schedule = _small_case(6)
        plan = plan_for(schedule)
        GATHER_CACHE.clear()
        s1 = _state_for(schedule)
        plan.execute(s1)
        # Each diagonal op fetches its factor once (every rank then
        # sweeps the shared array), so the cold run records one miss per
        # distinct factor — not per-rank re-hits.
        cold_misses = GATHER_CACHE.misses
        s2 = _state_for(schedule)
        assert plan_for(schedule) is plan
        plan.execute(s2)
        assert np.array_equal(
            s1.to_statevector().data, s2.to_statevector().data
        )
        # Warm run: every lookup hits, no new factor builds.
        assert GATHER_CACHE.misses == cold_misses


class TestTraceParity:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_signature_matches_unfused_trace(self, seed):
        """The fused plan emits the same ExecutionTrace signature as the
        unfused one (one plan op per schedule op): folded sources keep
        their zero-length events."""
        _, schedule = _small_case(seed)
        plan = plan_for(schedule)
        assert len(plan.ops) < plan.num_source_ops
        telemetry = Telemetry.enabled()
        trace = plan.execute(_state_for(schedule), telemetry=telemetry)

        unfused = ExecutionEngine(
            _unfused_program(schedule), telemetry=Telemetry.enabled()
        ).run(state=_state_for(schedule)).trace
        assert trace.signature() == unfused.signature()

    def test_traced_run_through_simulator(self):
        _, schedule = _small_case(1)
        sim = DistributedSimulator(_N, _L, telemetry=Telemetry.enabled())
        res = sim.run_schedule(schedule)
        assert res.trace is not None
        assert res.trace.signature()

    def test_untraced_run_returns_no_trace(self):
        _, schedule = _small_case(1)
        res = DistributedSimulator(_N, _L).run_schedule(schedule)
        assert res.trace is None


class TestPlanOpInvariants:
    def test_plan_ops_are_frozen(self):
        _, schedule = _small_case(0)
        op = compile_program(schedule).ops[0]
        assert isinstance(op, PlanOp)
        with pytest.raises(AttributeError):
            op.exec_kind = "other"

    def test_compiled_program_reports_compile_seconds(self):
        _, schedule = _small_case(0)
        plan = compile_program(schedule)
        assert isinstance(plan, CompiledProgram)
        assert plan.compile_seconds >= 0.0
