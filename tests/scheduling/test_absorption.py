"""Diagonal-gate absorption (Sec. 3.5), decided by the plan compiler.

A specialized diagonal on stage-global qubits lowers to an all-control
plan op; refusion folds it into a neighbouring sweep, where its global
qubits stay controls whose values each rank's number spells.  These
tests pin that down on hand-built one-stage schedules and end to end.
"""

import numpy as np
import pytest

from repro.circuit import Circuit, generate_supremacy_circuit
from repro.distributed import DistributedSimulator, DistributedState, NeedsSwapError
from repro.gates import Gate
from repro.kernels.blocks import BlockGate
from repro.plan import PlanConfig, compile_program, plan_for
from repro.scheduling import (
    ClusterOp,
    GateOp,
    Schedule,
    SchedulerConfig,
    Stage,
    schedule_circuit,
)
from repro.statevector import Simulator, StateVector
from repro.util.rng import random_statevector

H = Gate("h", (0,))


def _plan(ops, global_qubits=(5,), *, n=6, l=5, config=None):
    """The plan of one stage holding *ops* with *global_qubits* global."""
    gates = [g for op in ops for g in (op.gates if isinstance(op, ClusterOp) else (op.gate,))]
    schedule = Schedule(
        circuit=Circuit(n, gates),
        local_qubits=l,
        stages=[Stage(global_qubits=frozenset(global_qubits), ops=list(ops))],
    )
    return compile_program(schedule, config)


def _controls(op) -> set:
    """The qubits *op*'s gate holds as controls."""
    return {op.qubits[j] for j in op.gate.controls}


def _block(op, **values) -> np.ndarray:
    """*op*'s dense gate while the named qubits (``q5=1``) hold values."""
    fixed = {op.qubits.index(int(q[1:])): v for q, v in values.items()}
    return op.gate.restrict(fixed).dense()


class TestAbsorbDiagonalsPass:
    def test_pure_global_phase_folds_forward(self):
        plan = _plan([GateOp(Gate("t", (5,))), ClusterOp((0, 1), (H,))])
        (op,) = plan.ops
        assert op.exec_kind == "fused_kernel" and op.num_sources == 2
        assert 5 in _controls(op)

    def test_mixed_diagonal_folds_into_covering_cluster(self):
        cz = Gate("cz", (0, 5))  # local 0, global 5
        (op,) = _plan([GateOp(cz), ClusterOp((0, 1), (H,))]).ops
        assert [s.kind for s in op.sources] == ["specialized", "cluster"]
        assert _controls(op) == {1, 5}

    def test_uncovered_diagonal_stays_standalone(self):
        """A diagonal whose union with the cluster is wider than
        ``fusion_kmax`` cannot be absorbed: it stays one phase multiply."""
        cz = Gate("cz", (2, 5))
        plan = _plan(
            [GateOp(cz), ClusterOp((0, 1), (H,))],
            config=PlanConfig(fusion_kmax=3),
        )
        assert [op.exec_kind for op in plan.ops] == ["kernel", "kernel"]
        assert not plan.ops[0].gate.targets  # the phase multiply
        assert _controls(plan.ops[0]) == {2, 5}

    def test_trailing_diagonal_folds_backward(self):
        cz = Gate("cz", (0, 5))
        (op,) = _plan([ClusterOp((0, 1), (H,)), GateOp(cz)]).ops
        assert [s.kind for s in op.sources] == ["cluster", "specialized"]

    def test_monomial_op_blocks_crossing(self):
        """A rank renumbering on the diagonal's global qubit must not be
        crossed: the X on it is a passthrough between two plan ops."""
        t_gate = Gate("t", (5,))
        plan = _plan([
            GateOp(t_gate),
            GateOp(Gate("x", (5,))),  # renumbers ranks on qubit 5
            ClusterOp((0,), (H,)),
        ])
        assert [op.exec_kind for op in plan.ops] == [
            "kernel", "passthrough", "kernel",
        ]
        assert plan.ops[0].sources[0].label == f"t{t_gate.qubits}"

    def test_monomial_without_relabel_is_a_kernel_op(self):
        """CNOT with a global control and a local target renumbers no
        rank: between two clusters it lowers to a kernel op whose global
        qubit is a control, and the plan, fused or not, has no
        passthrough and gives the single-node simulator's state."""
        ops = [
            ClusterOp((0, 1), (Gate("h", (0,)), Gate("cnot", (0, 1)))),
            GateOp(Gate("cnot", (5, 1))),
            ClusterOp((1, 2), (Gate("h", (1,)), Gate("cz", (1, 2)))),
        ]
        gates = [g for op in ops for g in (
            op.gates if isinstance(op, ClusterOp) else (op.gate,))]
        want = Simulator(6).run(
            Circuit(6, gates), state=StateVector(6, random_statevector(6, 2))
        ).state
        for config in (PlanConfig(fusion_kmax=0), None):
            plan = _plan(ops, config=config)
            assert plan.counts["passthrough_ops"] == 0
            if config is not None:
                assert [op.exec_kind for op in plan.ops] == ["kernel"] * 3
                assert _controls(plan.ops[1]) == {5}
                assert len(plan.ops[1].gate.targets) == 1
            state = DistributedState.from_statevector(
                StateVector(6, random_statevector(6, 2)), 5
            )
            plan.execute(state)
            assert state.to_statevector().allclose(want, atol=1e-12)

    def test_covers_all_gates(self):
        circ = generate_supremacy_circuit(12, 10, seed=0)
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=8, seed=1))
        sched.validate()
        plan = plan_for(sched)
        indices = [s.op_index for op in plan.ops for s in op.sources]
        assert indices == list(range(len(list(sched.operations()))))


class TestAbsorbedClusterOp:
    """The fused op that absorbed a global diagonal: each value of the
    global qubit picks the block that rank runs."""

    def test_matrix_for_rank_applies_phase(self):
        (op,) = _plan([GateOp(Gate("t", (5,))), ClusterOp((0,), (H,))]).ops
        assert np.allclose(_block(op, q5=0), H.matrix)
        assert np.allclose(_block(op, q5=1), np.exp(1j * np.pi / 4) * H.matrix)

    def test_matrix_for_rank_conditional_z(self):
        """CZ(local, global): rank bit 1 applies Z before the cluster."""
        (op,) = _plan([GateOp(Gate("cz", (0, 5))), ClusterOp((0,), (H,))]).ops
        z = Gate("z", (0,)).matrix
        assert np.allclose(_block(op, q5=0), H.matrix)
        assert np.allclose(_block(op, q5=1), H.matrix @ z)

    def test_post_diagonal_order(self):
        (op,) = _plan([ClusterOp((0,), (H,)), GateOp(Gate("cz", (0, 5)))]).ops
        z = Gate("z", (0,)).matrix
        assert np.allclose(_block(op, q5=1), z @ H.matrix)

    def test_counters(self):
        cluster = ClusterOp((0, 1), (Gate("h", (0,)), Gate("h", (1,))))
        plan = _plan([
            GateOp(Gate("t", (5,))), cluster, GateOp(Gate("cz", (0, 5))),
        ])
        (op,) = plan.ops
        assert op.num_sources == 3 and plan.num_source_ops == 3
        assert set(op.qubits) == {0, 1, 5} and _controls(op) == {5}
        assert plan.counts["refused_away_ops"] == 2


class TestEndToEnd:
    @pytest.mark.parametrize("n,depth,l", [(12, 10, 8), (14, 12, 9)])
    def test_absorbed_schedule_matches_reference(self, n, depth, l):
        circ = generate_supremacy_circuit(n, depth, seed=3)
        ref = Simulator(n).run(circ).state
        sched = schedule_circuit(
            circ, SchedulerConfig(local_qubits=l, kmax=4, seed=2)
        )
        assert any(
            op.num_sources > 1
            and _controls(op) & sched.stages[op.stage].global_qubits
            for op in plan_for(sched).ops
        )
        res = DistributedSimulator(n, l).run_schedule(sched)
        assert res.state.to_statevector().allclose(ref, atol=1e-9)

    def test_absorption_removes_diagonal_sweeps(self):
        """Counted on states written since their init fill, so that the
        leading ops run as sweeps, not as one product write."""
        n, depth, l = 14, 12, 9
        circ = generate_supremacy_circuit(n, depth, seed=1)
        sched = schedule_circuit(
            circ, SchedulerConfig(local_qubits=l, kmax=4, seed=2)
        )

        def written():
            state = DistributedState.for_schedule(sched)
            state.storage.set(0, state.storage.read(0).copy())
            return state

        unfused = DistributedSimulator(n, l).run_schedule(
            sched, plan_config=PlanConfig(fusion_kmax=0), state=written()
        )
        res_abs = DistributedSimulator(n, l).run_schedule(sched, state=written())
        assert res_abs.kernel_cost.diagonal_calls < max(
            unfused.kernel_cost.diagonal_calls, 1
        )
        assert res_abs.kernel_cost.total_calls <= unfused.kernel_cost.total_calls
        assert res_abs.state.to_statevector().allclose(
            unfused.state.to_statevector(), atol=1e-9
        )

    def test_global_qubits_must_be_controls(self):
        """An op's control may be local or global; a global target needs
        a swap first."""
        sv = StateVector(8, random_statevector(8, 0))
        gate = BlockGate.split(Gate("ch", (0, 1), _controlled_h()).matrix, [1])
        for qubits in [(0, 2), (0, 6)]:  # control 2 local, 6 global
            d = DistributedState.from_statevector(sv, 5)
            d.apply_compiled(gate, qubits)
            want = sv.copy()
            want.apply_gate(Gate("ch", qubits, gate.dense()))
            assert d.to_statevector().allclose(want, atol=1e-12)
        with pytest.raises(NeedsSwapError):
            d.apply_compiled(gate, (6, 0))


def _controlled_h() -> np.ndarray:
    """H on bit 0 while bit 1 is set."""
    matrix = np.eye(4, dtype=complex)
    matrix[np.ix_([2, 3], [2, 3])] = H.matrix
    return matrix
