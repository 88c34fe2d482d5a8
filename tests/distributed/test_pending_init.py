"""The pending init: a fresh state writes nothing until it is first used.

``ShardStorage.initialize`` records ``zero`` or ``plus`` and writes
nothing.  The first read or write fills the shards; a write of every
amplitude (the product write) takes the fill's place, which then never
runs.  Every storage path must give a reader the init, and a run the
same bytes, as if the fill had run at construction: the block of small
shards, one array per shard, and ``DiskShards``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DiskShards, DistributedState, ShardStorage
from repro.distributed import storage as storage_module
from repro.distributed.checkpoint import CheckpointManager
from repro.plan import plan_for
from repro.runtime import ExecutionEngine
from repro.runtime.engine import _product_prefix
from repro.scheduling import Schedule, SchedulerConfig, Stage, schedule_circuit
from repro.service.jobs import state_fingerprint
from repro.statevector import Simulator, StateVector

N, L = 10, 7


@pytest.fixture(params=["block", "by_shard", "disk"])
def make(request, tmp_path, monkeypatch):
    """A new, empty storage of ``2**(N - L)`` shards on the path under
    test (each ``DiskShards`` in a directory of its own, closed at the
    end)."""
    opened = []

    def make():
        if request.param == "disk":
            opened.append(DiskShards(
                1 << (N - L), 1 << L, tmp_path / f"shards{len(opened)}"
            ))
            return opened[-1]
        with monkeypatch.context() as patch:
            if request.param == "by_shard":
                patch.setattr(storage_module, "_BLOCK_SHARD_BYTES", 0)
            storage = storage_module.InMemoryShards(1 << (N - L), 1 << L)
        assert (storage._spans() == [range(1 << (N - L))]) == (
            request.param == "block"
        )
        return storage

    yield make
    for disk in opened:
        disk.close()


@pytest.fixture
def fills(monkeypatch):
    """The init fills that ran, one entry (the init) each."""
    ran = []
    real = ShardStorage._materialize

    def spy(self, *, overwrites=False):
        if self.pending and not overwrites:
            ran.append(self.fresh_init)
        real(self, overwrites=overwrites)

    monkeypatch.setattr(ShardStorage, "_materialize", spy)
    return ran


def _init_vector(init):
    if init == "plus":
        return np.full(1 << N, 2.0 ** (-N / 2), dtype=np.complex128)
    vector = np.zeros(1 << N, dtype=np.complex128)
    vector[0] = 1.0
    return vector


def _shards(state):
    return [np.array(state.storage.read(r)) for r in range(state.num_ranks)]


def _case(init, seed=0):
    circuit = generate_supremacy_circuit(
        N, 8, seed=seed, include_initial_hadamards=init == "plus"
    )
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=L, kmax=4, seed=seed + 1)
    )
    assert schedule.initial_state == init
    return circuit, schedule


READERS = {
    "read": _shards,
    "to_statevector": lambda state: state.to_statevector().data,
    "state_fingerprint": state_fingerprint,
    "norm": lambda state: state.norm(),
    "shard_checksums": lambda state: state.shard_checksums(),
}


@pytest.mark.parametrize("init", ["zero", "plus"])
class TestPendingInit:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_reader_sees_the_init(self, make, fills, init, reader):
        """Each reader of a pending state gets its init, fills it once
        and keeps it fresh."""
        want = READERS[reader](DistributedState.from_statevector(
            StateVector(N, _init_vector(init)), L
        ))
        state = DistributedState(N, L, storage=make(), init=init)
        assert state.storage.pending and state.fresh_init == init
        assert fills == []
        got = READERS[reader](state)
        if reader == "read":
            assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
        elif reader == "to_statevector":
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want
        assert not state.storage.pending and state.fresh_init == init
        assert fills == [init]
        READERS[reader](state)
        assert fills == [init]

    def test_checkpoint_save_then_resume(self, make, tmp_path, init):
        state = DistributedState(N, L, storage=make(), init=init)
        manager = CheckpointManager(tmp_path / "ckpt")
        manager.save(state, 0)
        assert state.fresh_init == init
        vessel = DistributedState(N, L, storage=make(), init=init)
        for loaded, _ in (
            manager.load(),
            manager.load(state_factory=lambda: vessel),
        ):
            assert not loaded.storage.pending and loaded.fresh_init is None
            assert np.array_equal(
                loaded.to_statevector().data, _init_vector(init)
            )

    def test_from_statevector_is_never_pending(self, make, init):
        state = DistributedState.from_statevector(
            StateVector(N, _init_vector(init)), L, storage=make()
        )
        assert not state.storage.pending and state.fresh_init is None
        assert np.array_equal(state.to_statevector().data, _init_vector(init))

    def test_overwriting_sweep_of_some_ranks(self, make, fills, init):
        """An ``overwrites=True`` sweep that leaves spans alone: their
        ranks get the init, the others what their parts write.  The
        block is one span, so a part for rank 1 leaves none alone."""
        storage = make()
        storage.initialize(init)

        def ones(array, start, stop):
            array[:] = 1

        storage.sweep(lambda ranks: (ones, 1) if 1 in ranks else None,
                      overwrites=True)
        block = storage._spans() == [range(1 << (N - L))]
        assert fills == ([] if block else [init])
        assert storage.fresh_init is None
        want = _init_vector(init).reshape(-1, 1 << L)
        want[slice(None) if block else 1] = 1
        for rank, shard in enumerate(want):
            assert np.array_equal(storage.read(rank), shard)

    def test_product_write_runs_no_fill(self, make, fills, init):
        """The product write overwrites every amplitude: no fill runs,
        and the run matches the oracle."""
        circuit, schedule = _case(init)
        state = DistributedState.for_schedule(schedule, storage=make())
        got = ExecutionEngine(schedule).run(state=state).state
        assert fills == []
        assert got.to_statevector().allclose(
            Simulator(N).run(circuit).state, atol=1e-12
        )

    def test_read_before_the_first_op(self, make, fills, init):
        """A state read before its run fills once, still takes the
        product write, and ends with the bytes of one that was not."""
        _, schedule = _case(init, seed=1)
        plain = ExecutionEngine(schedule).run(
            state=DistributedState.for_schedule(schedule, storage=make())
        ).state
        read = DistributedState.for_schedule(schedule, storage=make())
        read.norm()
        assert read.fresh_init == init and fills == [init]
        read = ExecutionEngine(schedule).run(state=read).state
        assert fills == [init]
        assert [s.tobytes() for s in _shards(read)] == [
            s.tobytes() for s in _shards(plain)
        ]

    def test_first_unit_not_a_product_prefix(self, make, fills, init):
        """A schedule that starts with a swap fills the pending init once,
        first, and still matches the oracle."""
        circuit, schedule = _case(init, seed=2)
        first = schedule.stages[0].global_qubits
        other = frozenset(sorted(set(range(N)) - first)[:N - L])
        schedule = Schedule(
            schedule.circuit, L, [Stage(other, [])] + schedule.stages,
            schedule.initial_state, schedule.kmax,
        )
        assert _product_prefix(plan_for(schedule).ops) == 0
        state = DistributedState.for_schedule(schedule, storage=make())
        got = ExecutionEngine(schedule).run(state=state).state
        assert fills == [init]
        assert got.to_statevector().allclose(
            Simulator(N).run(circuit).state, atol=1e-12
        )


@pytest.mark.parametrize("init", ["zero", "plus"])
class TestDiskPendingInit:
    def test_no_bytes_until_the_first_write(self, tmp_path, init):
        """The files get no content until the product write, which stores
        every shard without loading it."""
        _, schedule = _case(init)
        ops = plan_for(schedule).ops
        prefix = ops[:_product_prefix(ops)]
        with DiskShards(1 << (N - L), 1 << L, tmp_path) as disk:
            state = DistributedState.for_schedule(schedule, storage=disk)
            disk.flush()
            assert disk.io_stats["bytes_written"] == 0
            assert disk.io_stats["shard_stores"] == 0
            state.apply_factored([(op.gate, op.qubits) for op in prefix])
            disk.flush()
            assert disk.io_stats["bytes_written"] == (1 << N) * 16
            assert disk.io_stats["shard_loads"] == 0

    def test_close_makes_the_init_durable(self, tmp_path, init):
        with DiskShards(1 << (N - L), 1 << L, tmp_path) as disk:
            DistributedState(N, L, storage=disk, init=init)
        with DiskShards(1 << (N - L), 1 << L, tmp_path) as disk:
            state = DistributedState(N, L, storage=disk, init=None)
            assert not disk.pending and state.fresh_init is None
            assert np.array_equal(
                state.to_statevector().data, _init_vector(init)
            )
