"""Tests for DistributedState: layout, swaps, specialization."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.circuit import generate_supremacy_circuit
from repro.distributed import (
    DiskShards,
    DistributedSimulator,
    DistributedState,
    NeedsSwapError,
)
from repro.distributed import state as state_module
from repro.gates import Gate, random_unitary
from repro.kernels import kernel_cost
from repro.kernels.blocks import BlockGate
from repro.plan import plan_for
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.statevector import StateVector
from repro.util.bits import scatter_bits
from repro.util.rng import random_statevector
from tests.conftest import shards_apart


def dist_from_random(
    n=8, l=5, seed=0, storage=None
) -> tuple[DistributedState, StateVector]:
    sv = StateVector(n, random_statevector(n, seed))
    return DistributedState.from_statevector(sv, l, storage=storage), sv


class TestConstruction:
    def test_zero_init(self):
        d = DistributedState(6, 4)
        sv = d.to_statevector()
        assert sv.probability_of(0) == pytest.approx(1.0)

    def test_plus_init(self):
        d = DistributedState(6, 4, init="plus")
        assert np.allclose(d.to_statevector().data, 2.0 ** (-3))

    def test_scatter_gather_roundtrip(self):
        d, sv = dist_from_random()
        assert d.to_statevector().allclose(sv, atol=1e-12)

    def test_initial_global_qubits_layout(self):
        d = DistributedState(6, 4, initial_global_qubits={1, 3})
        assert d.global_qubit_set() == {1, 3}
        # zero state is layout-invariant
        assert d.to_statevector().probability_of(0) == pytest.approx(1.0)

    def test_first_gather_imports_no_masked_arrays(self):
        """A fresh process's first gather leaves ``numpy.ma`` unimported
        (``np.unique`` imports it, a tenth of a second on first use)."""
        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)),
        )
        code = (
            "import sys\n"
            "from repro.distributed import DistributedState\n"
            "state = DistributedState(10, 7, initial_global_qubits={0, 4, 9})\n"
            "assert state.to_statevector().probability_of(0) == 1\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert done.stdout.split() == ["False"], done.stdout

    def test_initial_global_size_checked(self):
        with pytest.raises(ValueError):
            DistributedState(6, 4, initial_global_qubits={1})

    def test_bad_local_qubits(self):
        with pytest.raises(ValueError):
            DistributedState(4, 0)

    def test_norm(self):
        d, _ = dist_from_random()
        assert d.norm() == pytest.approx(1.0)


def _indexed_chunks(state):
    """The chunks of ``logical_chunks`` through fancy indices: the
    physical index of every in-chunk logical index, gathered per rank."""
    n, l = state.num_qubits, state.local_qubits
    c = min(state_module._CHUNK_QUBITS, n)
    positions = state.layout.bit_of_qubit
    offset_mask = (1 << l) - 1
    inner = scatter_bits(np.arange(1 << c, dtype=np.int64), positions[:c])
    ranked = [b - l for b in positions[:c] if b >= l]
    parts = []
    for rank_bits in scatter_bits(np.arange(1 << len(ranked)), ranked).tolist():
        slots = np.flatnonzero(inner >> l == rank_bits)
        parts.append((rank_bits, slots, inner[slots] & offset_mask))
    for chunk in range(1 << (n - c)):
        out = np.empty(1 << c, dtype=state.storage.dtype)
        base = scatter_bits(chunk, positions[c:])
        for rank_bits, slots, offsets in parts:
            shard = state.storage.read(rank_bits | base >> l)
            out[slots] = shard[offsets | (base & offset_mask)]
        yield out


class TestLogicalChunks:
    """The strided-view gather gives the index gather's bytes, so every
    digest over it stays the same bit for bit."""

    @pytest.mark.parametrize("chunk_qubits", [3, 6, 16])
    @pytest.mark.parametrize("storage", ["block", "by_shard", "disk"])
    def test_same_digest_as_the_index_gather(
        self, storage, chunk_qubits, monkeypatch, tmp_path
    ):
        n, l = 11, 7
        schedule = schedule_circuit(
            generate_supremacy_circuit(n, 14, seed=5),
            SchedulerConfig(local_qubits=l, kmax=4, seed=1),
        )
        assert schedule.num_swaps >= 1
        shards = {
            "block": lambda: None,
            "by_shard": lambda: shards_apart(1 << (n - l), 1 << l),
            "disk": lambda: DiskShards(1 << (n - l), 1 << l, tmp_path),
        }[storage]()
        state = DistributedSimulator(n, l, storage=shards).run_schedule(
            schedule
        ).state
        # Relabelled, with a global qubit among the lowest six: a chunk of
        # six or more qubits spans ranks.
        assert state.bit_of_qubit != tuple(range(n))
        assert any(b >= l for b in state.bit_of_qubit[:6])
        monkeypatch.setattr(state_module, "_CHUNK_QUBITS", chunk_qubits)
        digests = []
        for chunks in (state.logical_chunks(), _indexed_chunks(state)):
            digest = hashlib.sha256()
            for chunk in chunks:
                digest.update(chunk)
            digests.append(digest.hexdigest())
        assert digests[0] == digests[1]
        if storage == "disk":
            shards.close()


class TestLocalGates:
    def test_local_gate_matches_serial(self):
        d, sv = dist_from_random()
        g = Gate("rand", (1, 3), random_unitary(2, 0))
        d.apply_gate(g)
        sv.apply_gate(g)
        assert d.to_statevector().allclose(sv, atol=1e-10)
        assert d.stats.alltoall_steps == 0

    def test_kernel_cost_recorded(self):
        d, _ = dist_from_random()
        d.apply_gate(Gate("h", (0,)))
        assert d.kernel_cost.total_calls == 1

    def test_structured_op_costs_its_dense_width(self):
        """A CZ-heavy 4-qubit cluster is 8 blocks of a 1-qubit gate: it is
        charged 2 multiply-adds per amplitude, not 16."""
        d, sv = dist_from_random()
        matrix = np.eye(16, dtype=complex)
        for c in range(8):  # bit 3 is the target, bits 0-2 controls
            phase = np.exp(0.3j * c)
            rows = [c, c | 8]
            matrix[np.ix_(rows, rows)] = phase * random_unitary(1, c)
        gate = Gate("cluster", (0, 2, 3, 4), matrix)
        d.apply_gate(gate)
        sv.apply_gate(gate)
        assert d.to_statevector().allclose(sv, atol=1e-12)
        assert d.kernel_cost.calls_by_k == {1: 1}
        assert d.kernel_cost.total_flops == kernel_cost(8, 1).flops


class TestDiagonalSpecialization:
    @pytest.mark.parametrize(
        "gate",
        [
            Gate("t", (7,)),            # 1q diagonal on a global qubit
            Gate("cz", (6, 7)),         # CZ global-global
            Gate("cz", (2, 6)),         # CZ local-global
            Gate("z", (5,)),            # Z on a global qubit
        ],
        ids=lambda g: f"{g.name}{g.qubits}",
    )
    def test_diagonal_global_no_comm(self, gate):
        d, sv = dist_from_random()
        d.apply_gate(gate)
        sv.apply_gate(gate)
        assert d.to_statevector().allclose(sv, atol=1e-12)
        assert d.stats.alltoall_steps == 0
        assert d.stats.rank_renumberings == 0


class TestGlobalControls:
    @pytest.mark.parametrize("n,l", [(8, 5), (17, 14)], ids=["block", "arrays"])
    @pytest.mark.parametrize("relabel", ["renumbering-swap", "monomial-x"])
    @pytest.mark.parametrize("m", [0, 2])
    def test_after_rank_relabel(self, n, l, relabel, m):
        """A swap that renumbers ranks and an X on a global qubit both
        relabel the shards; an op with global controls afterwards still
        gives each rank the blocks its own rank bits pick."""
        d, sv = dist_from_random(n, l, seed=3)
        assert (d.storage._spans() == [range(d.num_ranks)]) == (l == 5)
        if relabel == "renumbering-swap":
            d.swap_global_set({0, l, l + 1})
            assert d.stats.rank_renumberings == 1
        else:
            d.apply_gate(Gate("x", (l,)))
            sv.apply_gate(Gate("x", (l,)))
        qubits = (1, 2, *sorted(d.global_qubit_set())[:2])
        rng = np.random.default_rng(m)
        if m:
            blocks = np.stack([random_unitary(2, rng) for _ in range(4)])
            gate = BlockGate(4, (2, 3), blocks)
        else:
            gate = BlockGate.diagonal(np.exp(1j * rng.uniform(0, 6, 16)))
        d.apply_compiled(gate, qubits)
        sv.apply_gate(Gate("fused", qubits, gate.dense()))
        assert d.to_statevector().allclose(sv, atol=1e-12)

    def test_global_target_needs_swap(self):
        d, _ = dist_from_random()
        with pytest.raises(NeedsSwapError):
            d.apply_compiled(BlockGate.of(random_unitary(2, 0)), (1, 6))

    def test_one_kernel_call_per_plan_sweep(self):
        """128 ranks: a plan op is charged once, at its dense width, however
        many ranks or control values it runs for (on a state written
        since its init, which runs every plan op)."""
        schedule = schedule_circuit(
            generate_supremacy_circuit(14, 16, seed=2),
            SchedulerConfig(local_qubits=7, kmax=4, seed=1),
        )
        plan = plan_for(schedule)
        sweeps = [op for op in plan.ops if op.gate is not None]
        assert any(
            set(op.qubits) & schedule.stages[op.stage].global_qubits
            for op in sweeps
        )
        state = DistributedState.for_schedule(schedule)
        state.storage.set(0, state.storage.read(0).copy())
        run = DistributedSimulator(14, 7).run_schedule(schedule, state=state)
        cost, stats = run.kernel_cost, run.state.stats
        # At l = 7 every staging folds into the sweep before its swap.
        assert stats.local_swap_kernels == 0
        assert cost.total_calls == len(sweeps) + stats.local_swap_kernels
        widths = [len(op.gate.targets) for op in sweeps] + [2] * stats.local_swap_kernels
        assert cost.calls_by_k == {m: widths.count(m) for m in set(widths)}


class TestMonomialSpecialization:
    @pytest.mark.parametrize(
        "gate",
        [
            Gate("x", (7,)),            # X on global: pure renumbering
            Gate("cnot", (6, 7)),       # both global
            Gate("cnot", (7, 2)),       # global control, local target
            Gate("swap", (5, 6)),       # swap two globals
        ],
        ids=lambda g: f"{g.name}{g.qubits}",
    )
    def test_monomial_global_no_comm(self, gate):
        d, sv = dist_from_random()
        d.apply_gate(gate)
        sv.apply_gate(gate)
        assert d.to_statevector().allclose(sv, atol=1e-12)
        assert d.stats.alltoall_steps == 0

    def test_one_descriptor_per_global_value(self, monkeypatch):
        """A global-control CNOT on 8 ranks is one sweep of dense width 1:
        one descriptor over the block of shards (one span), whose top bit
        picks X or the identity; on separate arrays one descriptor per
        value of its global bit, not one per rank."""
        import repro.distributed.state as state_module

        built = []
        real = state_module._kernel

        def spy(gate, bits, *args, **kwargs):
            built.append(bits)
            return real(gate, bits, *args, **kwargs)

        monkeypatch.setattr(state_module, "_kernel", spy)
        for block, descriptors in [(True, 1), (False, 2)]:
            built.clear()
            d, sv = dist_from_random(
                storage=None if block else shards_apart(8, 32)
            )
            gate = Gate("cnot", (7, 2))
            d.apply_gate(gate)
            sv.apply_gate(gate)
            assert d.to_statevector().allclose(sv, atol=1e-12)
            assert len(built) == descriptors
            assert d.kernel_cost.calls_by_k == {1: 1}
            assert d.stats.rank_renumberings == 0

    def test_cnot_local_control_global_target_needs_swap(self):
        d, _ = dist_from_random()
        with pytest.raises(NeedsSwapError):
            d.apply_gate(Gate("cnot", (2, 7)))

    def test_dense_global_needs_swap(self):
        d, _ = dist_from_random()
        with pytest.raises(NeedsSwapError):
            d.apply_gate(Gate("h", (6,)))

    def test_auto_swap_resolves(self):
        d, sv = dist_from_random()
        g = Gate("h", (6,))
        d.apply_gate(g, auto_swap=True)
        sv.apply_gate(g)
        assert d.to_statevector().allclose(sv, atol=1e-10)
        assert d.stats.alltoall_steps == 1


class TestSwaps:
    def test_swap_global_set_semantics(self):
        d, sv = dist_from_random(n=8, l=5)
        d.swap_global_set({0, 1, 2})
        assert d.global_qubit_set() == {0, 1, 2}
        assert d.to_statevector().allclose(sv, atol=1e-12)
        assert d.stats.alltoall_steps == 1

    def test_swap_noop_when_already_global(self):
        d, _ = dist_from_random(n=8, l=5)
        d.swap_global_set({5, 6, 7})
        assert d.stats.alltoall_steps == 0

    def test_partial_swap(self):
        d, sv = dist_from_random(n=8, l=5)
        # swap only qubit 7 out, qubit 0 in: q=1 group-local all-to-all
        d.swap_global_set({0, 5, 6})
        assert d.global_qubit_set() == {0, 5, 6}
        assert d.to_statevector().allclose(sv, atol=1e-12)
        assert d.stats.events[-1].group_size == 2

    def test_swap_all_global_to_local(self):
        d, sv = dist_from_random(n=8, l=5)
        d.swap_all_global_to_local()
        assert d.global_qubit_set() == {0, 1, 2}  # lowest-bit victims
        assert d.to_statevector().allclose(sv, atol=1e-12)

    def test_make_local(self):
        d, sv = dist_from_random(n=8, l=5)
        d.make_local({6, 7})
        assert d.is_local(6) and d.is_local(7)
        assert d.to_statevector().allclose(sv, atol=1e-12)

    def test_make_local_noop(self):
        d, _ = dist_from_random(n=8, l=5)
        d.make_local({0, 1})
        assert d.stats.alltoall_steps == 0

    def test_make_local_too_many(self):
        d, _ = dist_from_random(n=8, l=5)
        with pytest.raises(ValueError):
            d.make_local({0, 1, 2, 3, 4, 7})

    def test_swap_wrong_size(self):
        d, _ = dist_from_random(n=8, l=5)
        with pytest.raises(ValueError):
            d.swap_global_set({1, 2})

    def test_single_precision_distributed(self):
        """Sec. 5: single precision halves memory; results stay faithful."""
        import numpy as np

        from repro.circuit import generate_supremacy_circuit
        from repro.distributed import DistributedSimulator
        from repro.statevector import Simulator

        n, l = 9, 6
        circ = generate_supremacy_circuit(n, 8, seed=1)
        double = Simulator(n).run(circ).state
        sim = DistributedSimulator(n, l, single_precision=True)
        res = sim.run(circ, auto_swap=True)
        assert res.state.storage.dtype == np.complex64
        assert res.state.storage.shard_bytes == (1 << l) * 8
        gathered = res.state.to_statevector()
        assert abs(gathered.fidelity(double) - 1.0) < 1e-5

    def test_single_precision_storage_mismatch_rejected(self):
        import pytest as _pytest

        from repro.distributed import InMemoryShards

        storage = InMemoryShards(8, 32)  # complex128
        with _pytest.raises(ValueError, match="single_precision"):
            DistributedState(8, 5, storage=storage, single_precision=True)

    def test_gates_after_swap_use_new_layout(self):
        d, sv = dist_from_random(n=8, l=5)
        d.swap_global_set({0, 1, 2})
        g = Gate("rand", (7, 5), random_unitary(2, 4))  # now local
        d.apply_gate(g)
        sv.apply_gate(g)
        assert d.to_statevector().allclose(sv, atol=1e-10)
        assert d.stats.alltoall_steps == 1  # only the explicit swap
