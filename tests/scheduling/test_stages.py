"""Tests for the stage finder (swap minimization, Sec. 3.6.1 step 1)."""

import numpy as np
import pytest

from repro.circuit import Circuit, generate_supremacy_circuit
from repro.gates import Gate
from repro.scheduling import find_stages
from repro.scheduling.stages import _CircuitView
from repro.util.bits import bit_mask


class TestCircuitView:
    def test_anywhere_flags_worst_case(self):
        c = Circuit(3, [Gate("t", (0,)), Gate("cz", (0, 1)), Gate("h", (2,))])
        view = _CircuitView(c, specialize=True, worst_case_dense=True)
        # worst case: T treated dense; CZ always specializable; H dense.
        assert view.anywhere == [False, True, False]

    def test_anywhere_flags_median(self):
        c = Circuit(3, [Gate("t", (0,)), Gate("cz", (0, 1)), Gate("h", (2,))])
        view = _CircuitView(c, specialize=True, worst_case_dense=False)
        assert view.anywhere == [True, True, False]

    def test_no_specialization(self):
        c = Circuit(2, [Gate("cz", (0, 1))])
        view = _CircuitView(c, specialize=False, worst_case_dense=True)
        assert view.anywhere == [False]

    def test_max_executable_all_local(self):
        c = Circuit(3, [Gate("h", (0,)), Gate("cz", (0, 1)), Gate("h", (1,))])
        view = _CircuitView(c, specialize=True, worst_case_dense=True)
        executed, fronts = view.max_executable([0, 0, 0], 0)
        assert sorted(executed) == [0, 1, 2]
        assert view.remaining(fronts) == 0

    def test_max_executable_blocks_on_global_dense(self):
        c = Circuit(2, [Gate("h", (0,)), Gate("cz", (0, 1)), Gate("h", (0,))])
        view = _CircuitView(c, specialize=True, worst_case_dense=True)
        executed, _ = view.max_executable([0, 0], bit_mask({0}))
        # h(0) blocked immediately; cz blocked behind it.
        assert executed == []

    def test_max_executable_cz_passes_through_global(self):
        c = Circuit(2, [Gate("cz", (0, 1)), Gate("h", (1,))])
        view = _CircuitView(c, specialize=True, worst_case_dense=True)
        executed, _ = view.max_executable([0, 0], bit_mask({0}))
        assert sorted(executed) == [0, 1]

    def test_qubits_needing_local(self):
        c = Circuit(3, [Gate("cz", (0, 1)), Gate("h", (1,)), Gate("t", (2,))])
        view = _CircuitView(c, specialize=True, worst_case_dense=True)
        assert view.qubits_needing_local([0, 0, 0]) == {1, 2}

    def test_first_block_distance(self):
        c = Circuit(2, [Gate("cz", (0, 1)), Gate("cz", (0, 1)), Gate("h", (0,))])
        view = _CircuitView(c, specialize=True, worst_case_dense=True)
        dist = view.first_block_distance([0, 0])
        assert dist[0] == 2.0  # two CZs before the dense H
        assert dist[1] == float("inf")  # qubit 1 never needs locality


class TestFindStages:
    def test_single_node_one_stage(self):
        circ = generate_supremacy_circuit(9, 8, seed=0)
        plan = find_stages(circ, 9)
        assert plan.num_swaps == 0
        assert len(plan.stages[0][1]) == len(circ)

    def test_covers_all_gates_exactly_once(self):
        circ = generate_supremacy_circuit(12, 10, seed=1)
        plan = find_stages(circ, 8, seed=0)
        all_ids = plan.all_gate_ids()
        assert sorted(all_ids) == list(range(len(circ)))

    def test_stage_global_sets_have_size_g(self):
        circ = generate_supremacy_circuit(12, 10, seed=1)
        plan = find_stages(circ, 8, seed=0)
        for global_set, _ in plan.stages:
            assert len(global_set) == 4

    def test_stage_gates_respect_global_set(self):
        circ = generate_supremacy_circuit(12, 10, seed=1)
        plan = find_stages(circ, 8, seed=0)
        for global_set, gate_ids in plan.stages:
            for gid in gate_ids:
                gate = circ[gid]
                if any(q in global_set for q in gate.qubits):
                    assert gate.is_diagonal and gate.num_qubits >= 2

    def test_stage_order_is_topological_per_qubit(self):
        circ = generate_supremacy_circuit(12, 10, seed=2)
        plan = find_stages(circ, 8, seed=0)
        position = {}
        for pos, gid in enumerate(plan.all_gate_ids()):
            position[gid] = pos
        per_qubit = circ.gate_indices_by_qubit()
        for q_gates in per_qubit:
            for a, b in zip(q_gates, q_gates[1:]):
                assert position[a] < position[b]

    def test_paper_swap_counts_42q(self):
        """Fig. 5 / Sec. 3.6.1: depth-25 42-qubit circuits need 2 swaps,
        independent of the local qubit count (29..32)."""
        circ = generate_supremacy_circuit(
            42, 25, seed=0, include_initial_hadamards=False
        )
        for l in (29, 32):
            plan = find_stages(circ, l, seed=1, restarts=3)
            assert plan.num_swaps == 2, f"l={l}: {plan.num_swaps}"

    def test_paper_36q_one_swap_no_trailing(self):
        """Sec. 3.6.1: the search reduces the 36-qubit circuit to 1 swap
        (under the no-trailing-layer instance convention)."""
        circ = generate_supremacy_circuit(
            36, 25, seed=0,
            include_initial_hadamards=False,
            include_trailing_singles=False,
        )
        plan = find_stages(circ, 30, seed=1, restarts=4)
        assert plan.num_swaps == 1

    def test_specialization_ablation_not_worse(self):
        """Disabling CZ specialization can only increase the swap count."""
        circ = generate_supremacy_circuit(
            20, 12, seed=0, include_initial_hadamards=False
        )
        with_spec = find_stages(circ, 15, specialize=True, seed=1)
        without = find_stages(circ, 15, specialize=False, seed=1)
        assert without.num_swaps >= with_spec.num_swaps

    def test_oversized_gate_rejected(self):
        circ = Circuit(5, [Gate("rand", (0, 1, 2), np.eye(8, dtype=complex))])
        # A dense 3-qubit gate cannot run with only 2 local qubits.
        dense = Circuit(5)
        from repro.gates import random_unitary

        dense.append(Gate("rand", (0, 1, 2), random_unitary(3, 0)))
        with pytest.raises(ValueError):
            find_stages(dense, 2)
