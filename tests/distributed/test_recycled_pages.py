"""Recycled shard arrays: a new state reuses a dropped state's pages.

An ``InMemoryShards`` array of at least ``_RECYCLE_MIN_BYTES`` goes to
one process-wide spare list when its storage is freed, and the next
storage of that size and dtype takes it instead of asking for fresh
pages.  The tests lower the constant so their states stay small, and
give each test a spare list of its own.  A recycled array still holds
the dropped state's amplitudes: no reader may see them, and no run may
differ from one on fresh memory by a bit.
"""

from __future__ import annotations

import gc
import sys
import threading

import numpy as np
import pytest

from repro.distributed import DistributedSimulator, DistributedState
from repro.distributed import storage as storage_module
from repro.distributed.checkpoint import CheckpointManager
from repro.telemetry.runtime import Telemetry
from tests.conftest import assert_oracle, oracle_state
from tests.distributed.test_pending_init import READERS, _case

N, L = 10, 7
#: Each shard (2**7 amplitudes, of complex64 too) and the block of all
#: of them reach this.
RECYCLE_BYTES = 1 << 10


@pytest.fixture
def spares(monkeypatch):
    """This test's own spare list, with the threshold lowered."""
    spares = storage_module._SpareArrays()
    monkeypatch.setattr(storage_module, "_SPARES", spares)
    monkeypatch.setattr(storage_module, "_RECYCLE_MIN_BYTES", RECYCLE_BYTES)
    return spares


@pytest.fixture(params=["block", "by_shard"])
def layout(request, monkeypatch):
    """Shards in one block, or one array per shard."""
    if request.param == "by_shard":
        monkeypatch.setattr(storage_module, "_BLOCK_SHARD_BYTES", 0)
    return request.param


def _storage(n=N, l=L, dtype=np.complex128):
    return storage_module.InMemoryShards(1 << (n - l), 1 << l, dtype=dtype)


def _addresses(storage):
    return sorted(a.__array_interface__["data"][0] for a in storage._recyclable)


def _poisoned(n=N, l=L):
    """Build a state, fill every amplitude with junk, drop it: its arrays
    are now the spare ones.  Returns their addresses."""
    state = DistributedState(n, l, init=None)
    for rank in range(state.num_ranks):
        state.storage.set(rank, np.full(1 << l, 7 + 7j))
    addresses = _addresses(state.storage)
    del state
    return addresses


class TestTheSpareList:
    def test_the_next_state_of_a_shape_gets_the_arrays(self, spares, layout):
        gc.disable()  # freed by reference counting, not by the collector
        try:
            first = _storage()
            recyclable = sum(a.nbytes for a in first._recyclable)
            assert first.page_bytes == {"fresh": recyclable, "recycled": 0}
            addresses = _addresses(first)
            assert len(addresses) == (1 if layout == "block" else 1 << (N - L))
            del first
            assert spares.nbytes == recyclable
            second = _storage()
        finally:
            gc.enable()
        assert _addresses(second) == addresses
        assert second.page_bytes == {"fresh": 0, "recycled": recyclable}
        assert spares.nbytes == 0

    def test_a_run_state_is_freed_by_reference_counting(self, spares, layout):
        """No cycle holds a state after its run: with the collector off
        (as in the benchmark's timed rounds) its arrays come back."""
        _, schedule = _case("plus")
        gc.disable()
        try:
            result = DistributedSimulator(N, L).run_schedule(schedule)
            held = sum(a.nbytes for a in result.state.storage._recyclable)
            del result
            assert spares.nbytes == held > 0
        finally:
            gc.enable()

    def test_a_new_shape_empties_the_list_before_it_allocates(
        self, spares, layout
    ):
        _poisoned()
        assert spares.nbytes > 0
        for shape in ({"n": N + 1, "l": L + 1}, {"dtype": np.complex64}):
            other = _storage(**shape)
            assert spares.nbytes == 0
            assert other.page_bytes["recycled"] == 0
            own = other.page_bytes["fresh"]
            del other
            assert spares.nbytes == own

    def test_retention_is_one_storage(self, spares, layout):
        """The list holds the last storage freed, never more."""
        states = [_storage() for _ in range(3)]
        one = sum(a.nbytes for a in states[0]._recyclable)
        while states:
            states.pop()
            assert spares.nbytes == one

    def test_small_arrays_stay_with_malloc(self, spares, monkeypatch):
        monkeypatch.setattr(storage_module, "_RECYCLE_MIN_BYTES", 1 << 30)
        storage = _storage()
        assert storage._recyclable == []
        assert storage.page_bytes["fresh"] == (1 << N) * 16
        del storage
        assert spares.nbytes == 0

    def test_an_outstanding_view_keeps_its_array(self, spares, layout):
        """A view ``read`` handed out pins its array: it never enters the
        list, and the next state's writes never reach it."""
        state = DistributedState(N, L, init="plus")
        view = state.storage.read(1)
        want = view.copy()
        del state
        if layout == "block":
            assert spares.nbytes == 0
        else:
            assert spares.nbytes == ((1 << (N - L)) - 1) << L << 4
        _, schedule = _case("zero")
        for _ in range(2):
            DistributedSimulator(N, L).run_schedule(schedule)
        assert np.array_equal(view, want)

    def test_a_bare_storage_reads_zeros(self, spares, layout):
        """With no init, recycled arrays owe a zero fill: they read as
        fresh pages do."""
        _poisoned()
        storage = _storage()
        assert storage.page_bytes["fresh"] == 0
        assert storage.pending and storage.fresh_init is None
        for rank in range(storage.num_shards):
            assert not storage.read(rank).any()


@pytest.mark.parametrize("init", ["zero", "plus", None])
class TestNoStaleAmplitude:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_reader(self, spares, layout, init, reader):
        want = READERS[reader](DistributedState(N, L, init=init))
        _poisoned()
        state = DistributedState(N, L, init=init)
        assert state.storage.page_bytes["fresh"] == 0
        got = READERS[reader](state)
        if reader == "read":
            assert [s.tobytes() for s in got] == [s.tobytes() for s in want]
        elif reader == "to_statevector":
            assert got.tobytes() == want.tobytes()
        else:
            assert got == want

    def test_logical_chunks(self, spares, layout, init):
        want = [c.copy() for c in DistributedState(N, L, init=init).logical_chunks()]
        _poisoned()
        state = DistributedState(N, L, init=init)
        got = [c.copy() for c in state.logical_chunks()]
        assert [c.tobytes() for c in got] == [c.tobytes() for c in want]

    def test_checkpoint_save(self, spares, layout, init, tmp_path):
        fresh = CheckpointManager(tmp_path / "fresh")
        fresh.save(DistributedState(N, L, init=init), 0)
        want = fresh.load()[0].to_statevector().data
        _poisoned()
        recycled = CheckpointManager(tmp_path / "recycled")
        state = DistributedState(N, L, init=init)
        assert state.storage.page_bytes["fresh"] == 0
        recycled.save(state, 0)
        del state
        loaded, _ = recycled.load()  # its vessel is recycled too
        assert loaded.storage.page_bytes["fresh"] == 0
        assert loaded.to_statevector().data.tobytes() == want.tobytes()


@pytest.mark.parametrize("init", ["zero", "plus"])
class TestRunsAreBitForBit:
    def _run(self, schedule, *, op_by_op):
        state = DistributedState.for_schedule(schedule)
        if op_by_op:  # a writer ends freshness: no product write
            state.storage.set(0, state.storage.read(0).copy())
        DistributedSimulator(N, L).run_schedule(schedule, state=state)
        return state

    @pytest.mark.parametrize("op_by_op", [False, True])
    def test_as_on_fresh_memory(self, spares, layout, init, op_by_op):
        _, schedule = _case(init)
        fresh = self._run(schedule, op_by_op=op_by_op)
        assert fresh.storage.page_bytes["recycled"] == 0
        want = [np.array(fresh.storage.read(r)) for r in range(fresh.num_ranks)]
        layout_want = fresh.layout
        del fresh
        _poisoned()
        got = self._run(schedule, op_by_op=op_by_op)
        assert got.storage.page_bytes["fresh"] == 0
        assert got.layout == layout_want
        for rank, shard in enumerate(want):
            assert got.storage.read(rank).tobytes() == shard.tobytes()


def test_threads_build_and_drop_states(spares, layout):
    """Workers (more than cores) that build and drop states at once hand
    arrays between them under the lock, and every result still matches
    the oracle."""
    cases = [_case("zero", seed) for seed in range(2)]
    oracles = [oracle_state(circuit, N) for circuit, _ in cases]
    workers = 4
    results: list = [[] for _ in range(workers)]

    def work(i):
        _, schedule = cases[i % len(cases)]
        for _ in range(4):
            state = DistributedSimulator(N, L).run_schedule(schedule).state
            results[i].append(
                (state.to_statevector().data, state.storage.page_bytes["recycled"])
            )
            del state

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, got in enumerate(results):
        circuit, _ = cases[i % len(cases)]
        assert len(got) == 4
        for data, _ in got:
            assert_oracle(data, oracles[i % len(cases)], len(circuit))
    assert any(recycled for got in results for _, recycled in got)


def test_a_traced_run_reports_fresh_and_recycled_bytes(spares, layout):
    _, schedule = _case("zero")
    _poisoned()
    telemetry = Telemetry.enabled()
    result = DistributedSimulator(N, L, telemetry=telemetry).run_schedule(schedule)
    metrics = telemetry.metrics.snapshot()
    assert metrics["storage.page.bytes{source=fresh}"] == 0
    assert metrics["storage.page.bytes{source=recycled}"] == (
        result.state.storage.page_bytes["recycled"]
    ) == (1 << N) * 16
