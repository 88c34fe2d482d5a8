"""QubitLayout: one swap rule, consumed by the executor and the checker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import Circuit
from repro.distributed import DistributedState, QubitLayout
from repro.distributed.state import _write_order
from repro.gates import random_unitary
from repro.kernels.apply import sweep_order
from repro.kernels.blocks import BlockGate
from repro.scheduling import Schedule, Stage
from repro.statevector import StateVector
from repro.staticcheck import predict_comm_stats
from repro.util.rng import random_statevector


@st.composite
def swap_sequences(draw):
    n = draw(st.integers(4, 9))
    l = draw(st.integers((n + 1) // 2, n - 1))  # g <= l
    seed = draw(st.integers(0, 10_000))
    count = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    global_sets = [
        frozenset(int(q) for q in rng.choice(n, size=n - l, replace=False))
        for _ in range(count)
    ]
    return n, l, seed, global_sets


class TestPlanSwap:
    @settings(max_examples=40, deadline=None)
    @given(swap_sequences())
    def test_executed_recipe_preserves_state_and_matches_prediction(self, case):
        n, l, seed, global_sets = case
        sv = StateVector(n, random_statevector(n, seed))
        state = DistributedState.from_statevector(sv, l)
        for new_global in global_sets:
            before = state.layout
            step = before.plan_swap(new_global)
            state.swap_global_set(new_global)
            assert state.layout == step.after
            assert before == QubitLayout(l, before.bit_of_qubit)  # untouched
            assert step.after.global_set() == new_global
            assert sorted(step.after.bit_of_qubit) == list(range(n))
            assert (step.q == 0) == (before.global_set() == new_global)
            # A swap interrupted before its exchange resumes with it alone.
            resumed = step.staged.plan_swap(new_global)
            assert resumed.rank_source is None and not resumed.transpositions
            assert (resumed.q, resumed.after) == (step.q, step.after)
            assert np.array_equal(state.to_statevector().data, sv.data)

        # The checker's prediction from the stage global sets alone is the
        # run's counters (a schedule of empty stages, one swap between each).
        identity_globals = frozenset(range(l, n))
        stages = [Stage(g, []) for g in [identity_globals, *global_sets]]
        schedule = Schedule(circuit=Circuit(n, []), local_qubits=l, stages=stages)
        predicted = predict_comm_stats(schedule, state.storage.shard_bytes)
        for key, value in predicted.items():
            assert getattr(state.stats, key) == value, key

    def test_layout_is_frozen(self):
        layout = QubitLayout.initial(5, 3)
        with pytest.raises(AttributeError):
            layout.bit_of_qubit = (4, 3, 2, 1, 0)
        assert layout.swap_bits(0, 1) is not layout
        assert layout.bit_of_qubit == (0, 1, 2, 3, 4)

    def test_initial_places_globals_sorted_on_top(self):
        layout = QubitLayout.initial(5, 3, {3, 1})
        assert layout.global_set() == {1, 3}
        assert layout.bits([1, 3]) == [3, 4]
        assert layout.qubit_at(4) == 3 and layout.is_local(0)
        assert layout.local_set() == {0, 2, 4}

    def test_recipe_fields(self):
        """n=5, l=3, identity layout, make {0, 4} global: qubit 3 comes in
        (already on the lowest global bit), qubit 0 goes out via a staging
        swap to the top local bit, one 1-qubit exchange."""
        step = QubitLayout.initial(5, 3).plan_swap({0, 4})
        assert step.q == 1
        assert step.rank_source is None
        assert step.transpositions == ((0, 2),)
        assert step.staged.bit_of_qubit == (2, 1, 0, 3, 4)
        assert step.after.bit_of_qubit == (3, 1, 0, 2, 4)

    def test_renumbering_is_reported(self):
        # Incoming qubit 4 sits on global bit 4; it must move down to bit 3.
        step = QubitLayout.initial(5, 3).plan_swap({0, 3})
        assert step.rank_source.tolist() == [0, 2, 1, 3]

    @pytest.mark.parametrize(
        "bad", [{0}, {0, 1, 2}, {0, 7}], ids=["few", "many", "range"]
    )
    def test_rejects_bad_global_sets(self, bad):
        with pytest.raises(ValueError):
            QubitLayout.initial(5, 3).plan_swap(bad)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            QubitLayout(2, (0, 0, 1))


@st.composite
def sweeps_before_a_swap(draw):
    """A layout, a dense op on it (targets local) and the global set of
    the swap that closes the stage."""
    n = draw(st.integers(4, 16))
    l = draw(st.integers((n + 1) // 2, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    layout = QubitLayout(l, tuple(int(b) for b in rng.permutation(n)))
    m = int(rng.integers(1, min(4, l) + 1))
    d = int(rng.integers(0, min(3, n - m) + 1))
    targets = [int(q) for q in rng.choice(sorted(layout.local_set()), m, replace=False)]
    others = [q for q in range(n) if q not in targets]
    controls = [int(q) for q in rng.choice(others, d, replace=False)]
    blocks = np.stack([random_unitary(m, rng) for _ in range(1 << d)])
    gate = BlockGate(m + d, tuple(range(m, m + d)), blocks)
    closing = frozenset(int(q) for q in rng.choice(n, n - l, replace=False))
    return layout, gate, layout.bits(targets + controls), closing


class TestPermuteLowBits:
    """The transition a dense sweep's write-back leaves
    (:meth:`QubitLayout.permute_low_bits`), with and without the closing
    swap's staging folded in."""

    @settings(max_examples=200, deadline=None)
    @given(sweeps_before_a_swap())
    def test_laws(self, case):
        layout, gate, bits, closing = case
        l = layout.local_qubits
        order = sweep_order(gate, bits, l)
        folded = _write_order(layout, gate, bits, closing)
        if order is None:
            assert folded is None
            return
        for this in (order, folded):
            # Only bits below the window move, and the window stays
            # below l (and below the window limit of 12 bits).
            assert len(this) <= min(l, 12)
            after = layout.permute_low_bits(this)
            for q, bit in enumerate(layout.bit_of_qubit):
                if bit >= len(this):
                    assert after.bit_of_qubit[q] == bit
            assert after.global_set() == layout.global_set()
        unfolded = layout.permute_low_bits(order).plan_swap(closing)
        step = layout.permute_low_bits(folded).plan_swap(closing)
        if l <= 12:
            assert step.transpositions == ()
        if folded != order:
            assert step.transpositions == () != unfolded.transpositions
        assert step.q == unfolded.q
        if unfolded.rank_source is None:
            assert step.rank_source is None
        else:
            assert np.array_equal(step.rank_source, unfolded.rank_source)
        assert step.after.global_set() == unfolded.after.global_set()
        assert step.after == unfolded.after

    def test_panel_order(self):
        """Targets (ascending) on the lowest bits, then the in-window
        controls, then the other window bits; a control from l up stays
        outside the window."""
        layout = QubitLayout.initial(8, 6)
        gate = BlockGate(4, (2, 3), np.stack([random_unitary(2, 0)] * 4))
        order = sweep_order(gate, (4, 1, 3, 6), 6)
        assert order == (1, 4, 3, 0, 2)
        after = layout.permute_low_bits(order)
        assert after.bit_of_qubit == (3, 0, 4, 2, 1, 5, 6, 7)
        assert layout.permute_low_bits(range(4)) is layout

    def test_rejects_rank_bits_and_non_permutations(self):
        layout = QubitLayout.initial(6, 4)
        with pytest.raises(ValueError):
            layout.permute_low_bits(range(5))
        with pytest.raises(ValueError):
            layout.permute_low_bits((0, 0, 1))
