"""The product prefix: a fresh state's leading ops, kept factored.

The engine runs the leading kernel ops as one unit, up to the first op
that would join a group of more than 16 qubits (or a swap or a
passthrough).  On a fresh state (its init fill and nothing since) that
unit is one write of the product state those ops leave, each op applied
to the factor of its group (``DistributedState.write_product``); on any
other state it runs the ops one by one.  Both must agree with the
single-node oracle.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DiskShards, DistributedSimulator, DistributedState
from repro.distributed.checkpoint import CheckpointManager
from repro.gates import random_unitary
from repro.kernels.blocks import BlockGate
from repro.plan import plan_for
from repro.runtime import ExecutionEngine
from repro.runtime.layers import CheckpointLayer
from repro.runtime.engine import _product_prefix
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.statevector import Simulator
from repro.telemetry import Telemetry


def _case(n, l, seed, *, plus=True, depth=8):
    circuit = generate_supremacy_circuit(
        n, depth, seed=seed, include_initial_hadamards=plus
    )
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=l, kmax=4, seed=seed + 1)
    )
    assert schedule.initial_state == ("plus" if plus else "zero")
    return circuit, schedule


def _groups(ops):
    """The qubit groups *ops* join, targets and controls alike."""
    groups = []
    for op in ops:
        joined = [g for g in groups if g & set(op.qubits)]
        groups = [g for g in groups if g not in joined]
        groups.append(set(op.qubits).union(*joined))
    return groups


def _merged(ops):
    """True when two of *ops* share a qubit (the prefix is not disjoint)."""
    qubits = [q for op in ops for q in op.qubits]
    return len(qubits) > len(set(qubits))


def _written(state):
    """*state* with a shard set to its own amplitudes: not fresh."""
    state.storage.set(0, state.storage.read(0).copy())
    return state


@pytest.fixture
def writes(monkeypatch):
    """Every ``write_product`` call of the test, by op count."""
    calls = []
    original = DistributedState.write_product

    def spy(self, ops, **kwargs):
        calls.append(len(ops))
        return original(self, ops, **kwargs)

    monkeypatch.setattr(DistributedState, "write_product", spy)
    return calls


class TestOracle:
    @pytest.mark.parametrize("plus", [True, False])
    @pytest.mark.parametrize(
        "n, l, seed",
        [(8, 5, 0), (9, 7, 1), (10, 5, 2), (11, 8, 3), (12, 6, 4),
         (12, 10, 5), (13, 9, 6), (14, 7, 7), (14, 12, 8),
         (18, 10, 0), (18, 13, 1)],
    )
    def test_fresh_write_matches_oracle_and_fallback(
        self, writes, n, l, seed, plus
    ):
        circuit, schedule = _case(n, l, seed, plus=plus)
        oracle = Simulator(n).run(circuit).state
        fresh = ExecutionEngine(schedule).run().state
        ops = plan_for(schedule).ops
        prefix = _product_prefix(ops)
        assert prefix >= 2 and writes == [prefix] and _merged(ops[:prefix])
        fallback = ExecutionEngine(schedule).run(
            state=_written(DistributedState.for_schedule(schedule))
        ).state
        assert writes == [prefix]
        got = fresh.to_statevector()
        assert got.allclose(oracle, atol=1e-12)
        assert got.allclose(fallback.to_statevector(), atol=1e-12)

    @pytest.mark.parametrize("n, l", [(12, 7), (13, 9), (18, 11)])
    def test_storage_layouts_agree_bit_for_bit(self, tmp_path, writes, n, l):
        """The block of all shards and the rank-by-rank write do the same
        arithmetic on every amplitude."""
        _, schedule = _case(n, l, 9)
        ops = plan_for(schedule).ops
        assert _merged(ops[:_product_prefix(ops)])
        block = DistributedSimulator(n, l).run_schedule(schedule).state
        assert block.storage._spans() == [range(block.num_ranks)]
        with DiskShards(1 << (n - l), 1 << l, tmp_path) as disk:
            by_rank = DistributedSimulator(n, l, storage=disk).run_schedule(
                schedule
            ).state.to_statevector()
        assert len(writes) == 2
        assert np.array_equal(block.to_statevector().data, by_rank.data)


class TestFallback:
    """A state written since its init fill runs the ops one by one."""

    def test_set_of_own_contents(self, writes):
        _, schedule = _case(10, 7, 0)
        state = _written(DistributedState.for_schedule(schedule))
        assert state.fresh_init is None
        ExecutionEngine(schedule).run(state=state)
        assert writes == []

    def test_scatter(self, writes):
        _, schedule = _case(10, 7, 1, plus=False)
        state = DistributedState.for_schedule(schedule)
        # |0...0> reads the same in every layout.
        state._scatter(state.to_statevector())
        assert state.fresh_init is None
        ExecutionEngine(schedule).run(state=state)
        assert writes == []

    def test_checkpoint_load(self, tmp_path, writes):
        _, schedule = _case(10, 7, 2)
        manager = CheckpointManager(tmp_path)
        manager.save(DistributedState.for_schedule(schedule), 0)
        state, next_op = manager.load()
        assert next_op == 0 and state.fresh_init is None
        ExecutionEngine(schedule).run(state=state)
        assert writes == []

    @pytest.mark.parametrize("on_disk", [False, True])
    def test_write_through_get(self, tmp_path, writes, on_disk):
        """``get`` hands out a writable shard: amplitudes loaded through
        it are run, not overwritten by a product write."""
        n, l = 10, 7
        circuit, schedule = _case(n, l, 5, plus=False)
        rng = np.random.default_rng(5)
        with DiskShards(1 << (n - l), 1 << l, tmp_path) as disk:
            state = DistributedState.for_schedule(
                schedule, storage=disk if on_disk else None
            )
            for rank in range(state.num_ranks):
                state.storage.get(rank)[:] = rng.normal(size=1 << l)
            assert state.fresh_init is None
            loaded = state.to_statevector()
            got = ExecutionEngine(schedule).run(state=state).state
            got = got.to_statevector()
        assert writes == []
        oracle = Simulator(n).run(circuit, state=loaded).state
        assert got.allclose(oracle, atol=1e-12)

    def test_reopened_disk_storage(self, tmp_path, writes):
        """``init=None`` adopts the files as found: never fresh."""
        n, l = 10, 7
        _, schedule = _case(n, l, 3)
        with DiskShards(1 << (n - l), 1 << l, tmp_path) as disk:
            DistributedState.for_schedule(schedule, storage=disk)
        with DiskShards(1 << (n - l), 1 << l, tmp_path) as disk:
            state = DistributedState(
                n, l, storage=disk, init=None,
                initial_global_qubits=schedule.initial_global_qubits or None,
            )
            assert state.fresh_init is None
            ExecutionEngine(schedule).run(state=state)
        assert writes == []

    def test_any_write_voids_freshness(self, tmp_path):
        _, schedule = _case(10, 7, 4)
        ops = plan_for(schedule).ops
        state = DistributedState.for_schedule(schedule)
        assert state.fresh_init == "plus"
        # Reading writes nothing.
        state.norm()
        state.shard_checksums()
        state.to_statevector()
        CheckpointManager(tmp_path).save(state, 0)
        assert state.fresh_init == "plus"
        with pytest.raises(ValueError, match="read-only"):
            state.storage.read(0)[0] = 1
        state.storage.get(1)
        assert state.fresh_init is None
        state = DistributedState.for_schedule(schedule)
        state.apply_compiled(ops[0].gate, ops[0].qubits)
        assert state.fresh_init is None
        with pytest.raises(RuntimeError, match="fresh"):
            state.write_product([(ops[0].gate, ops[0].qubits)])


class TestResume:
    """A checkpoint taken between two of the prefix's plan ops (as a run
    that swept them one by one saves it) resumes there: the loaded state
    is not fresh, so the prefix's remaining plan ops run one by one."""

    def _resumed(self, tmp_path, schedule, next_op, done_ops):
        state = _written(DistributedState.for_schedule(schedule))
        for plan_op in done_ops:
            state.apply_compiled(plan_op.gate, plan_op.qubits)
        manager = CheckpointManager(tmp_path)
        manager.save(state, next_op)
        layer = CheckpointLayer(manager, every=0, resume=True)
        return ExecutionEngine(schedule, layers=[layer])

    def test_at_a_plan_op_inside_the_prefix(self, tmp_path, writes):
        self._check_every_resume_point(tmp_path, writes, 10, 7)

    def test_at_a_plan_op_inside_a_prefix_of_joined_groups(
        self, tmp_path, writes
    ):
        self._check_every_resume_point(tmp_path, writes, 18, 11)

    def _check_every_resume_point(self, tmp_path, writes, n, l):
        _, schedule = _case(n, l, 4)
        ops = plan_for(schedule).ops
        prefix = ops[:_product_prefix(ops)]
        assert len(prefix) >= 2 and _merged(prefix)
        for done in range(1, len(prefix)):
            engine = self._resumed(
                tmp_path / str(done), schedule,
                prefix[done].sources[0].op_index, prefix[:done],
            )
            resumed = engine.run().state
            assert writes == []
            per_op = ExecutionEngine(schedule).run(
                state=_written(DistributedState.for_schedule(schedule))
            ).state
            assert np.array_equal(
                resumed.to_statevector().data, per_op.to_statevector().data
            )

    def test_inside_a_fused_plan_op_is_refused(self, tmp_path):
        _, schedule = _case(10, 7, 4)
        ops = plan_for(schedule).ops
        fused = next(
            op for op in ops[:_product_prefix(ops)] if op.num_sources > 1
        )
        engine = self._resumed(
            tmp_path, schedule, fused.sources[0].op_index + 1, []
        )
        with pytest.raises(ValueError, match="inside a fused plan op"):
            engine.run()


class TestUnit:
    def test_one_event_per_schedule_op(self, writes):
        _, schedule = _case(12, 8, 5)
        plan = plan_for(schedule)
        engine = ExecutionEngine(plan, telemetry=Telemetry.enabled())
        assert engine.units[0].num_sources == sum(
            op.num_sources for op in plan.ops[:_product_prefix(plan.ops)]
        )
        trace = engine.run().trace
        assert writes
        assert len(trace.events) == plan.num_source_ops
        assert [e.op_index for e in trace.events] == list(
            range(plan.num_source_ops)
        )

    def test_prefix_stops_at_first_overlap(self):
        """An overlap ends the prefix only when it would join more than 16
        qubits; with 12 qubits none does, so the prefix ends at the
        first swap or passthrough."""
        _, schedule = _case(12, 8, 6)
        ops = plan_for(schedule).ops
        prefix = _product_prefix(ops)
        assert _merged(ops[:prefix])
        assert ops[prefix].exec_kind in ("swap", "passthrough")
        assert all(
            op.exec_kind in ("kernel", "fused_kernel") for op in ops[:prefix]
        )


class TestBound:
    """A group of qubits the prefix's ops join holds at most 16 (1 MiB
    of complex128), whatever ``l`` is."""

    @staticmethod
    def _kernel(*qubits):
        return SimpleNamespace(exec_kind="kernel", qubits=qubits)

    def test_stops_exactly_where_a_group_would_pass_16(self):
        k = self._kernel
        ops = [k(*range(8)), k(*range(8, 16)), k(7, 8), k(20, 21), k(15, 16)]
        assert _product_prefix(ops) == 4
        assert _product_prefix(ops[:4] + [k(0, 15)]) == 5
        ops[3] = k(16)  # a group of one, which k(15, 16) joins to 16
        assert _product_prefix(ops) == 4
        assert _product_prefix(ops[:2] + [k(0, 8, 16)]) == 2
        swap = SimpleNamespace(exec_kind="swap", qubits=(0,))
        assert _product_prefix([k(0), swap, k(1)]) == 1

    @pytest.mark.parametrize("plus", [True, False])
    @pytest.mark.parametrize("n, l", [(20, 12), (20, 17), (18, 10)])
    def test_real_prefix_stops_at_the_bound(self, n, l, plus):
        _, schedule = _case(n, l, 0, plus=plus)
        ops = plan_for(schedule).ops
        prefix = _product_prefix(ops)
        assert max(map(len, _groups(ops[:prefix]))) <= 16
        assert ops[prefix].exec_kind in ("kernel", "fused_kernel")
        assert max(map(len, _groups(ops[:prefix + 1]))) > 16


class TestAccounting:
    def test_write_is_one_pass_and_comm_unchanged(self):
        """The cost model charges the write once, as one pass (a
        zero-width phase multiply), not the sweeps it replaced; the
        communication counters are those of the op-by-op run."""
        _, schedule = _case(14, 7, 2, depth=16)
        ops = plan_for(schedule).ops
        prefix = _product_prefix(ops)
        assert _merged(ops[:prefix])
        fresh = DistributedSimulator(14, 7).run_schedule(schedule)
        fallback = DistributedSimulator(14, 7).run_schedule(
            schedule, state=_written(DistributedState.for_schedule(schedule))
        )
        cost, stats = fresh.kernel_cost, fresh.state.stats
        sweeps = [op for op in ops[prefix:] if op.gate is not None]
        # At l = 7 every staging folds into the sweep before its swap.
        assert stats.local_swap_kernels == 0
        assert cost.total_calls == 1 + len(sweeps) + stats.local_swap_kernels
        widths = (
            [0]
            + [len(op.gate.targets) for op in sweeps]
            + [2] * stats.local_swap_kernels
        )
        assert cost.calls_by_k == {m: widths.count(m) for m in set(widths)}
        assert (
            fallback.kernel_cost.total_calls - cost.total_calls == prefix - 1
        )
        assert stats == fallback.state.stats


class TestDisk:
    def test_write_loads_no_shard(self, tmp_path, writes):
        """The write overwrites: even with its init fill already on disk
        (a reader flushed it), no shard is read back."""
        n, l = 12, 8
        _, schedule = _case(n, l, 7)
        ops = plan_for(schedule).ops[:_product_prefix(plan_for(schedule).ops)]
        with DiskShards(1 << (n - l), 1 << l, tmp_path) as disk:
            state = DistributedState.for_schedule(schedule, storage=disk)
            state.norm()
            read = disk.io_stats["bytes_read"]
            state.write_product([(op.gate, op.qubits) for op in ops])
            state.flush()
            assert disk.io_stats["bytes_read"] == read
            assert disk.io_stats["shard_loads"] == 0


class TestFactors:
    def test_overlapping_ops_of_every_kernel(self, tmp_path):
        """Ops joining groups, each run on its group's factor with the
        kernel a sweep would pick (phase multiply, dense sweep, tensordot
        beyond 8 qubits), global controls included: both storage layouts
        agree bit for bit and match the op-by-op sweeps."""
        n, l = 12, 9
        rng = np.random.default_rng(1)

        def phases(k):
            return BlockGate.diagonal(np.exp(1j * rng.uniform(0, 6, 1 << k)))

        ops = [
            (phases(2), (9, 11)),
            (BlockGate.of(random_unitary(2, rng)), (0, 3)),
            (BlockGate(3, (2,), np.stack(
                [random_unitary(2, rng) for _ in range(2)]
            )), (5, 6, 10)),
            (phases(2), (3, 5)),
            (BlockGate.of(random_unitary(2, rng)), (1, 0)),
            (BlockGate.of(random_unitary(9, rng)), tuple(range(8, -1, -1))),
            (phases(2), (11, 2)),
        ]
        for init in ("plus", "zero"):
            block = DistributedState(n, l, init=init)
            block.write_product(ops)
            with DiskShards(1 << (n - l), 1 << l, tmp_path / init) as disk:
                by_rank = DistributedState(n, l, init=init, storage=disk)
                by_rank.write_product(ops)
                by_rank = by_rank.to_statevector()
            swept = DistributedState(n, l, init=init)
            for gate, qubits in ops:
                swept.apply_compiled(gate, qubits)
            got = block.to_statevector()
            assert np.array_equal(got.data, by_rank.data)
            assert got.allclose(swept.to_statevector(), atol=1e-12)


class TestRankScalars:
    def test_ops_on_rank_bits_only(self, tmp_path):
        """A diagonal on rank bits alone scales whole shards: both storage
        layouts round it alike, and it matches the op-by-op sweeps."""
        n, l = 12, 8
        rng = np.random.default_rng(0)
        ops = [
            (BlockGate.diagonal(np.exp(1j * rng.uniform(0, 6, 4))), (9, 11)),
            (BlockGate.of(random_unitary(2, rng)), (0, 3)),
            (BlockGate(3, (2,), np.stack(
                [random_unitary(2, rng) for _ in range(2)]
            )), (5, 6, 10)),
        ]
        for init in ("plus", "zero"):
            block = DistributedState(n, l, init=init)
            block.write_product(ops)
            with DiskShards(1 << (n - l), 1 << l, tmp_path / init) as disk:
                by_rank = DistributedState(n, l, init=init, storage=disk)
                by_rank.write_product(ops)
                by_rank = by_rank.to_statevector()
            swept = DistributedState(n, l, init=init)
            for gate, qubits in ops:
                swept.apply_compiled(gate, qubits)
            got = block.to_statevector()
            assert np.array_equal(got.data, by_rank.data)
            assert got.allclose(swept.to_statevector(), atol=1e-12)
