"""Dense sweeps carry the layout.

A windowed dense sweep writes its GEMM product back in panel order
(targets on the lowest bits, then the in-window controls, then the other
window bits) and the state adopts that bit permutation; the sweep before
a stage's closing swap writes straight into the swap's staged order, so
the staging copy does not run.  Every backend — the block of small
shards, one array per shard, ``DiskShards`` — pooled or serial, must
leave the same bytes and the same layout, and the logical state must be
within the oracle's budget.  Resumes (between a folded sweep and its
swap, or inside the product prefix) and retried exchanges land on the
uninterrupted run's bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.distributed.storage as storage_module
import repro.kernels.apply as kernels
from repro.circuit import generate_supremacy_circuit
from repro.distributed import DiskShards, DistributedState
from repro.distributed.checkpoint import CheckpointManager
from repro.gates import Gate, random_unitary
from repro.kernels.blocks import BlockGate
from repro.plan import plan_for
from repro.plan.executor import closing_swaps
from repro.resilience import FaultPlan, FaultSpec, swap_op_indices
from repro.runtime import (
    CheckpointLayer,
    ExecutionEngine,
    FaultLayer,
    RetryPolicy,
    RuntimeLayer,
)
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.statevector import StateVector
from repro.util.rng import random_statevector
from tests.conftest import assert_oracle, oracle_state

SERIAL = 1 << 62
BACKENDS = ("block", "by_shard", "disk")
WAYS = [(backend, pooled) for backend in BACKENDS for pooled in (False, True)]

#: (n, l, seed): the staging folds (l <= 12; at l = 11 bit 11 is the
#: lowest rank bit), and no fold (l > 12, the staging moves bit 12).
CASES = {"l7": (12, 7, 3), "l11": (15, 11, 1), "l13": (16, 13, 2)}


def _schedule(n, l, seed):
    circuit = generate_supremacy_circuit(n, 16, seed=seed)
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=l, kmax=4, seed=seed + 1)
    )
    assert schedule.num_swaps
    return circuit, schedule


class _Final:
    """What a run leaves: every shard's bytes, the layout, the counters
    and the logical state."""

    def __init__(self, state):
        self.shards = [
            state.storage.read(r).tobytes() for r in range(state.num_ranks)
        ]
        self.layout = state.layout
        self.stats = state.stats
        self.calls_by_k = dict(state.kernel_cost.calls_by_k)
        self.logical = state.to_statevector()


def _run(
    schedule, backend, pooled, directory, monkeypatch,
    layers=lambda fresh: (), **engine_kwargs,
):
    """One engine run of *schedule* on *backend*: its :class:`_Final`.
    *layers* builds the layer stack from the run's state factory."""
    n, l = schedule.num_qubits, schedule.local_qubits
    with monkeypatch.context() as patch:
        patch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1 if pooled else SERIAL)
        if backend == "by_shard":
            patch.setattr(storage_module, "_BLOCK_SHARD_BYTES", 0)
        storage = None
        if backend == "disk":
            storage = DiskShards(1 << (n - l), 1 << l, directory)
        def fresh():
            return DistributedState.for_schedule(schedule, storage=storage)

        try:
            state = ExecutionEngine(
                schedule, layers=layers(fresh), state_factory=fresh,
                **engine_kwargs,
            ).run().state
            assert (state.storage._spans() == [range(state.num_ranks)]) == (
                backend == "block"
            )
            return _Final(state)
        finally:
            if storage is not None:
                storage.close()


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return _schedule(*CASES[request.param])


class TestEveryBackend:
    def test_same_bytes_and_layout_and_the_oracle(
        self, case, tmp_path, monkeypatch
    ):
        circuit, schedule = case
        l = schedule.local_qubits
        runs = {
            way: _run(schedule, *way, tmp_path / f"{way[0]}{way[1]}", monkeypatch)
            for way in WAYS
        }
        want = runs["block", False]
        for way, got in runs.items():
            assert got.shards == want.shards, way
            assert got.layout == want.layout, way
            assert got.stats == want.stats, way
        oracle = oracle_state(circuit, schedule.num_qubits)
        assert_oracle(want.logical, oracle, len(circuit))
        assert want.stats.alltoall_steps == schedule.num_swaps
        if l <= 12:
            # Every staging folded into the sweep before its swap.
            assert want.stats.local_swap_kernels == 0
        else:
            # Some staging moves bit 12 or up: it runs at the swap.
            assert want.stats.local_swap_kernels > 0

    def test_staging_records_count_the_copies_that_run(self, case, monkeypatch):
        """``CommStats.local_swap_kernels`` and the cost model's 2-qubit
        staging records count the transpositions the staging copies
        actually ran: none where the sweep before the swap staged it."""
        _, schedule = case
        ran = []
        real = DistributedState._apply_local_bit_permutation

        def spy(self, transpositions):
            ran.append(len(transpositions))
            return real(self, transpositions)

        monkeypatch.setattr(DistributedState, "_apply_local_bit_permutation", spy)
        state = ExecutionEngine(schedule).run(state=_written(schedule)).state
        assert len(ran) == schedule.num_swaps
        assert state.stats.local_swap_kernels == sum(ran)
        assert (sum(ran) == 0) == (schedule.local_qubits <= 12)
        sweeps = [op for op in plan_for(schedule).ops if op.gate is not None]
        widths = [len(op.gate.targets) for op in sweeps] + [2] * sum(ran)
        assert state.kernel_cost.calls_by_k == {
            m: widths.count(m) for m in set(widths)
        }

    @pytest.mark.parametrize("backend, pooled", WAYS)
    def test_global_control_on_the_lowest_rank_bit(
        self, backend, pooled, tmp_path, monkeypatch
    ):
        """At l = 11 a control on bit 11 (a rank bit) sits in the block's
        window but not in a shard's; either way only bits below 11 move,
        to the same places."""
        n, l = 13, 11
        rng = np.random.default_rng(7)
        blocks = np.stack([random_unitary(2, rng) for _ in range(4)])
        # Targets on bits 2 and 9, controls on bits 10 (local) and 11.
        gate = BlockGate(4, (2, 3), blocks)
        bits = (2, 9, 10, 11)
        amps = random_statevector(n, 3)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1 if pooled else SERIAL)
            if backend == "by_shard":
                patch.setattr(storage_module, "_BLOCK_SHARD_BYTES", 0)
            storage = None
            if backend == "disk":
                storage = DiskShards(1 << (n - l), 1 << l, tmp_path)
            state = DistributedState.from_statevector(
                StateVector(n, amps.copy()), l, storage=storage
            )
            state.apply_compiled(gate, bits)
            got = _Final(state)
            if storage is not None:
                storage.close()
        want = oracle_state([Gate("fused", bits, gate.dense())], n, amps)
        assert_oracle(got.logical, want, 1)
        # Targets first, then the in-window control, then the other bits
        # below 11; the rank bits stay.
        assert got.layout.bit_of_qubit[:4] == (3, 4, 0, 5)
        assert got.layout.bit_of_qubit[9:] == (1, 2, 11, 12)
        block = DistributedState.from_statevector(StateVector(n, amps.copy()), l)
        block.apply_compiled(gate, bits)
        assert got.shards == _Final(block).shards


def _wide_op(name):
    """``(gate, bits)`` of a wide op on 14 qubits: 9 dense bits, or 10
    bits of which 5 are controls — bit 11 (the lowest rank bit at l = 11,
    inside the block's window) and bit 13 (above it) among them."""
    rng = np.random.default_rng(len(name))
    if name == "k9":
        return BlockGate.of(random_unitary(9, rng)), (0, 1, 2, 3, 4, 5, 6, 8, 10)
    # gate bits 5..9 are the controls: bits 0, 6, 10, 11, 13
    blocks = np.stack([random_unitary(5, rng) for _ in range(32)])
    return BlockGate(10, (5, 6, 7, 8, 9), blocks), (1, 3, 5, 7, 9, 0, 6, 10, 11, 13)


class TestWideOps:
    """Ops wider than 8 bits are dense sweeps like any other: the same
    bytes and layout on every backend, pooled or serial, and the oracle's
    state."""

    N, L = 14, 11

    @pytest.mark.parametrize("name", ["k9", "k10_five_controls"])
    def test_every_backend(self, name, tmp_path, monkeypatch):
        gate, bits = _wide_op(name)
        # Past DEFAULT_FUSION_KMAX (8): only a scheduler kmax >= 9 builds one.
        assert len(bits) > 8
        amps = random_statevector(self.N, 5)
        runs = {}
        for backend, pooled in WAYS:
            with monkeypatch.context() as patch:
                patch.setattr(
                    kernels, "SPLIT_MIN_AMPLITUDES", 1 if pooled else SERIAL
                )
                if backend == "by_shard":
                    patch.setattr(storage_module, "_BLOCK_SHARD_BYTES", 0)
                storage = None
                if backend == "disk":
                    storage = DiskShards(
                        1 << (self.N - self.L), 1 << self.L,
                        tmp_path / f"{name}{pooled}",
                    )
                state = DistributedState.from_statevector(
                    StateVector(self.N, amps.copy()), self.L, storage=storage
                )
                state.apply_compiled(gate, bits)
                runs[backend, pooled] = _Final(state)
                if storage is not None:
                    storage.close()
        want = runs["block", False]
        assert want.layout.bit_of_qubit != tuple(range(self.N))  # panel order
        for way, got in runs.items():
            assert got.shards == want.shards, way
            assert got.layout == want.layout, way
        oracle = oracle_state([Gate(name, bits, gate.dense())], self.N, amps)
        assert_oracle(want.logical, oracle, 1)


class _KillBefore(RuntimeLayer):
    def __init__(self, unit_index):
        self.unit_index = unit_index

    def before_op(self, ctx, unit):
        if unit.index == self.unit_index:
            raise RuntimeError(f"killed before unit {unit.index}")


class TestResume:
    @pytest.mark.parametrize("backend", ["block", "disk"])
    def test_between_a_folded_sweep_and_its_swap(
        self, backend, tmp_path, monkeypatch
    ):
        _, schedule = _schedule(*CASES["l7"])
        uninterrupted = _run(schedule, backend, False, tmp_path / "ref", monkeypatch)
        units = ExecutionEngine(schedule).units
        swaps = [u for u in units if u.is_swap]
        for unit in swaps:
            directory = tmp_path / f"swap{unit.index}"
            manager = CheckpointManager(directory / "ckpt")
            with pytest.raises(RuntimeError, match="killed"):
                _run(
                    schedule, backend, False, directory / "a", monkeypatch,
                    layers=lambda fresh: [
                        CheckpointLayer(manager, every=1),
                        _KillBefore(unit.index),
                    ],
                )
            saved, next_op = manager.load()
            assert next_op == unit.op_index
            # The sweep before the swap staged it already.
            swap = next(
                op for op in plan_for(schedule).ops
                if op.sources[0].op_index == unit.op_index
            )
            step = saved.layout.plan_swap(swap.source_op.new_global_qubits)
            assert step.transpositions == ()
            resumed = _run(
                schedule, backend, False, directory / "b", monkeypatch,
                layers=lambda fresh: [
                    CheckpointLayer(
                        manager, every=1, resume=True, state_factory=fresh
                    )
                ],
            )
            assert resumed.shards == uninterrupted.shards
            assert resumed.layout == uninterrupted.layout

    def test_inside_the_product_prefix(self, tmp_path):
        """The prefix's last op with targets stages the first swap: a
        fresh write, the op-by-op run and a resume at every plan op
        inside the prefix reach the same layout (the last two the same
        bytes too)."""
        _, schedule = _schedule(*CASES["l7"])
        ops = plan_for(schedule).ops
        engine = ExecutionEngine(schedule)
        prefix = len(engine._prefix_units)
        assert prefix >= 2 and ops[prefix].exec_kind == "swap"
        assert any(at < prefix for at in closing_swaps(ops))
        fresh = engine.run().state
        per_op = engine.run(state=_written(schedule)).state
        assert fresh.layout == per_op.layout
        assert fresh.to_statevector().allclose(per_op.to_statevector(), atol=1e-14)
        assert fresh.stats == per_op.stats
        assert fresh.stats.local_swap_kernels == 0
        for done in range(1, prefix):
            state = _written(schedule)
            for unit in engine._prefix_units[:done]:
                unit.run(state)
            manager = CheckpointManager(tmp_path / str(done))
            manager.save(state, engine._prefix_units[done].op_index)
            resumed = ExecutionEngine(
                schedule, layers=[CheckpointLayer(manager, every=0, resume=True)]
            ).run().state
            assert resumed.layout == per_op.layout, done
            assert np.array_equal(
                resumed.to_statevector().data, per_op.to_statevector().data
            ), done


def _written(schedule):
    """A state for *schedule* written since its init: ops run one by one."""
    state = DistributedState.for_schedule(schedule)
    state.storage.set(0, state.storage.read(0).copy())
    return state


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["l7", "l13"])
def test_transient_exchange_fault_retries_to_the_same_bytes(
    backend, name, tmp_path, monkeypatch
):
    _, schedule = _schedule(*CASES[name])
    clean = _run(schedule, backend, False, tmp_path / "clean", monkeypatch)
    plan = FaultPlan(
        seed=1,
        faults=tuple(
            FaultSpec(op_index=swap, kind="transient", times=2)
            for swap in swap_op_indices(schedule)
        ),
    )
    retried = _run(
        schedule, backend, False, tmp_path / "retried", monkeypatch,
        layers=lambda fresh: [FaultLayer(plan, sleep=lambda _s: None)],
        policy=RetryPolicy(), sleep=lambda _s: None,
    )
    assert retried.shards == clean.shards
    assert retried.layout == clean.layout
    assert retried.stats == clean.stats
