"""The distributed state's table-free paths.

* a state whose shards share one array sweeps them as one block, one
  without goes shard by shard (rank by rank, given a global control),
  traced or not; both do the same arithmetic, so every op leaves
  bit-identical shards either way;
* the staging swap's single transposed copy equals the chain of SWAP
  kernels it replaces, bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.kernels.apply
from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedState, InMemoryShards
from repro.gates import Gate, random_unitary
from repro.kernels.blocks import BlockGate
from repro.plan import plan_for
from repro.plan.executor import _run_op
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.statevector import StateVector
from repro.telemetry import Telemetry
from repro.util.rng import random_statevector
from tests.conftest import assert_oracle, oracle_state, shards_apart


def _shards(state) -> list[np.ndarray]:
    return [state.storage.get(r).copy() for r in range(state.num_ranks)]


def _same_shards(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(_shards(a), _shards(b)))


def _random_state(n, l, seed, **kwargs) -> DistributedState:
    state = DistributedState(n, l, **kwargs)
    amps = random_statevector(n, seed)
    for r in range(state.num_ranks):
        state.storage.get(r)[:] = amps[r << l:(r + 1) << l]
    return state


def _traced_by_shard(n, l, seed) -> DistributedState:
    """A traced state whose shards share no block: it sweeps them one by
    one."""
    return _random_state(
        n, l, seed, storage=shards_apart(1 << (n - l), 1 << l),
        telemetry=Telemetry.enabled(),
    )


class _OneBlock(InMemoryShards):
    """In-memory shards in one array whatever their size."""

    def _allocate(self) -> np.ndarray:
        return np.zeros(self.num_shards * self.shard_size, dtype=self.dtype)


@pytest.fixture()
def small_chunks(monkeypatch):
    """Many blocks per shard: a 4-qubit sweep gets 16 ``c`` per block."""
    monkeypatch.setattr(repro.kernels.apply, "DEFAULT_CHUNK", 16)


class TestTracedEqualsUntraced:
    @pytest.mark.parametrize(
        "bits", [(0, 1, 2), (9, 3, 7, 1), (8, 9), (5,), (2, 4, 5, 8, 0, 9)]
    )
    def test_dense_op_bit_identical(self, bits, small_chunks):
        n, l = 13, 10
        u = random_unitary(len(bits), 1)
        plain = _random_state(n, l, 4)
        traced = _traced_by_shard(n, l, 4)
        for state in (plain, traced):
            state._sweep(BlockGate.of(u), bits)
        assert _same_shards(plain, traced)

    def test_diagonal_op_bit_identical(self):
        n, l = 13, 10
        diag = np.exp(1j * np.linspace(0, 3, 4))
        plain = _random_state(n, l, 5)
        traced = _traced_by_shard(n, l, 5)
        for state in (plain, traced):
            state._sweep(BlockGate.diagonal(diag), (2, 7))
        assert _same_shards(plain, traced)

    def test_tensor_phase_factor_bit_identical(self):
        """Past 16 local qubits the phase factor is a broadcast tensor."""
        n, l = 18, 17
        diag = np.exp(1j * np.linspace(0, 3, 4))
        # In-memory shards this large are separate arrays; a backend that
        # keeps them in one block still sweeps them as one.
        block = _OneBlock(2, 1 << l)
        assert block._spans() == [range(2)]
        plain = _random_state(n, l, 6, storage=block)
        traced = _traced_by_shard(n, l, 6)
        for state in (plain, traced):
            state._sweep(BlockGate.diagonal(diag), (3, 16))
        assert _same_shards(plain, traced)

    def test_tensor_phase_factor_with_global_control(self):
        """A broadcast-tensor factor over a block, one per value of a
        global control bit."""
        n, l = 19, 17
        diag = np.exp(1j * np.linspace(0, 3, 8))
        plain = _random_state(n, l, 6, storage=_OneBlock(4, 1 << l))
        traced = _traced_by_shard(n, l, 6)
        for state in (plain, traced):
            state._sweep(BlockGate.diagonal(diag), (3, 18, 16))
        assert _same_shards(plain, traced)
        want = StateVector(n, random_statevector(n, 6))
        want.apply_gate(Gate("d", (3, 18, 16), np.diag(diag)))
        assert plain.to_statevector().allclose(want, atol=1e-12)

    def test_wide_op_bit_identical(self):
        """An op wider than 8 bits (past DEFAULT_FUSION_KMAX: only a
        scheduler kmax >= 9 builds one) is a dense sweep like any other,
        over the block as shard by shard."""
        n, l = 12, 10
        bits = (0, 1, 2, 3, 4, 5, 6, 8, 9)
        u = random_unitary(len(bits), 2)
        plain = _random_state(n, l, 7)
        traced = _traced_by_shard(n, l, 7)
        for state in (plain, traced):
            state._sweep(BlockGate.of(u), bits)
        assert _same_shards(plain, traced)
        want = oracle_state([Gate("u", bits, u)], n, random_statevector(n, 7))
        assert_oracle(plain.to_statevector(), want, 1)

    def test_block_sweep_is_what_the_untraced_run_does(self, small_chunks):
        """Guards the comparisons above: without a block the untraced run
        goes rank by rank too, and still lands on the same bits."""
        bits, u = (9, 3, 7, 1), random_unitary(4, 1)
        block = _random_state(13, 10, 4)
        ranked = _random_state(13, 10, 4, storage=shards_apart(8, 1 << 10))
        assert block.storage._spans() == [range(8)]
        for state in (block, ranked):
            state._sweep(BlockGate.of(u), bits)
        assert _same_shards(block, ranked)

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_every_plan_op_bit_identical(self, seed):
        """Traced shard by shard vs untraced as one block, compared after
        each op."""
        circuit = generate_supremacy_circuit(12, 12, seed=seed)
        schedule = schedule_circuit(
            circuit, SchedulerConfig(local_qubits=8, kmax=4, seed=seed + 1)
        )
        plain = DistributedState.for_schedule(schedule)
        traced = DistributedState.for_schedule(
            schedule, storage=shards_apart(16, 1 << 8),
            telemetry=Telemetry.enabled(),
        )
        for index, op in enumerate(plan_for(schedule).ops):
            _run_op(op, plain)
            _run_op(op, traced)
            assert _same_shards(plain, traced), (index, op.exec_kind)


class TestLocalBitPermutation:
    @pytest.mark.parametrize(
        "transpositions",
        [
            [(1, 2)],
            [(0, 7)],
            [(2, 5), (3, 6), (4, 7), (2, 8), (3, 9), (2, 8)],
            [(0, 2), (0, 4)],
            [(3, 6), (4, 7), (5, 8), (6, 9)],
            [(1, 2), (1, 2)],
        ],
        ids=str,
    )
    def test_equals_chain_of_swap_kernels(self, transpositions):
        n, l = 12, 10
        composed = _random_state(n, l, 2)
        chained = _random_state(n, l, 2)
        composed._apply_local_bit_permutation(transpositions)
        for bit_a, bit_b in transpositions:
            chained._swap_local_bits(bit_a, bit_b)
        assert _same_shards(composed, chained)
        assert composed.stats.local_swap_kernels == chained.stats.local_swap_kernels

    def test_random_chains(self):
        rng = np.random.default_rng(0)
        n, l = 11, 9
        for trial in range(10):
            transpositions = []
            for _ in range(int(rng.integers(1, 7))):
                a, b = (int(x) for x in rng.choice(l, size=2, replace=False))
                transpositions.append((a, b))
            composed = _random_state(n, l, trial)
            chained = _random_state(n, l, trial)
            composed._apply_local_bit_permutation(transpositions)
            for bit_a, bit_b in transpositions:
                chained._swap_local_bits(bit_a, bit_b)
            assert _same_shards(composed, chained), transpositions
