"""Tests for the shard storage backends."""

import numpy as np
import pytest

from repro.distributed import (
    DiskShards,
    DistributedState,
    InMemoryShards,
    QubitLayout,
)
from repro.distributed import storage as storage_module
from repro.util.rng import random_statevector
from tests.conftest import sweep_ranks


def _in_memory(num_shards, shard_size, *, by_shard, monkeypatch):
    """``InMemoryShards`` in the block of all shards, or (*by_shard*) one
    array per shard, as it keeps shards past 128 KiB."""
    with monkeypatch.context() as patch:
        if by_shard:
            patch.setattr(storage_module, "_BLOCK_SHARD_BYTES", 0)
        storage = InMemoryShards(num_shards, shard_size)
    assert (storage._block is None) == by_shard
    return storage


@pytest.fixture(params=["memory", "memory_by_shard", "disk"])
def storage_factory(request, tmp_path, monkeypatch):
    def make(num_shards=4, shard_size=8):
        if request.param == "disk":
            return DiskShards(num_shards, shard_size, tmp_path)
        return _in_memory(
            num_shards, shard_size,
            by_shard=request.param == "memory_by_shard",
            monkeypatch=monkeypatch,
        )

    return make


#: (swap qubits, stage bytes, one array per shard); the ids of the block
#: runs predate the per-shard ones.
_TILINGS = [
    pytest.param(
        q, stage, by_shard, id=f"{q}-{stage}" + ("-by_shard" if by_shard else "")
    )
    for by_shard in (False, True)
    for q in (1, 3, 5)
    for stage in (1 << 6, 1 << 11, 1 << 20)
]


class TestShardStorage:
    def test_get_set_roundtrip(self, storage_factory):
        st = storage_factory()
        data = np.arange(8, dtype=np.complex128)
        st.set(2, data)
        assert np.array_equal(np.asarray(st.get(2)), data)

    def test_set_validates_shape(self, storage_factory):
        st = storage_factory()
        with pytest.raises(ValueError):
            st.set(0, np.zeros(5, dtype=np.complex128))

    def test_shard_bytes(self, storage_factory):
        assert storage_factory().shard_bytes == 8 * 16

    def test_non_power_of_two_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            InMemoryShards(3, 8)
        with pytest.raises(ValueError):
            DiskShards(4, 6, tmp_path)

    def test_exchange_blocks_full_swap(self, storage_factory):
        """Fig. 3b semantics: rank s's block b goes to rank b's block s."""
        st = storage_factory(num_shards=4, shard_size=8)
        for r in range(4):
            st.set(r, np.arange(8, dtype=np.complex128) + 100 * r)
        st.exchange_blocks(2)  # groups of 4, block size 2
        for b in range(4):
            shard = np.asarray(st.get(b))
            for s in range(4):
                expected = 100 * s + np.arange(b * 2, b * 2 + 2)
                assert np.array_equal(shard[s * 2 : (s + 1) * 2], expected), (b, s)

    def test_exchange_blocks_group_local(self, storage_factory):
        """q=1 swap with 4 ranks: two independent groups of 2."""
        st = storage_factory(num_shards=4, shard_size=4)
        for r in range(4):
            st.set(r, np.arange(4, dtype=np.complex128) + 10 * r)
        st.exchange_blocks(1)
        # group 0 = ranks {0,1}: rank0 keeps block0, gets rank1's block0.
        assert np.array_equal(np.asarray(st.get(0)), [0, 1, 10, 11])
        assert np.array_equal(np.asarray(st.get(1)), [2, 3, 12, 13])
        # group 1 = ranks {2,3} exchanges internally, never with group 0.
        assert np.array_equal(np.asarray(st.get(2)), [20, 21, 30, 31])
        assert np.array_equal(np.asarray(st.get(3)), [22, 23, 32, 33])

    def test_exchange_is_involution(self, storage_factory):
        st = storage_factory(num_shards=4, shard_size=8)
        rng = np.random.default_rng(0)
        originals = []
        for r in range(4):
            data = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            st.set(r, data)
            originals.append(data)
        st.exchange_blocks(2)
        st.exchange_blocks(2)
        for r in range(4):
            assert np.allclose(np.asarray(st.get(r)), originals[r])

    @pytest.mark.parametrize("swap_qubits,stage_bytes,by_shard", _TILINGS)
    def test_in_memory_exchange_tiling(
        self, monkeypatch, swap_qubits, stage_bytes, by_shard
    ):
        """Every tile size (one block, several tiles, one tile; on the
        block, tiles over one group or several) moves rank s's block b to
        rank b's block s, in place."""
        ranks, size, group = 64, 32, 1 << swap_qubits
        block = size // group
        st = _in_memory(ranks, size, by_shard=by_shard, monkeypatch=monkeypatch)
        monkeypatch.setattr(
            storage_module, "_EXCHANGE_STAGE_BYTES", stage_bytes
        )
        for r in range(ranks):
            st.get(r)[:] = np.arange(size) + 1j * r
        arrays = [st.get(r) for r in range(ranks)]
        st.exchange_blocks(swap_qubits)
        for r in range(ranks):
            base, b = r - r % group, r % group
            assert st.get(r) is arrays[r]
            for s in range(group):
                assert np.array_equal(
                    st.get(r)[s * block:(s + 1) * block],
                    np.arange(b * block, (b + 1) * block) + 1j * (base + s),
                ), (r, s)

    def test_exchange_too_many_qubits(self, storage_factory):
        with pytest.raises(ValueError):
            storage_factory(num_shards=4).exchange_blocks(3)

    def test_permute_shards(self, storage_factory):
        st = storage_factory(num_shards=4, shard_size=4)
        for r in range(4):
            st.set(r, np.full(4, r, dtype=np.complex128))
        st.permute_shards(np.array([2, 0, 3, 1]))
        assert np.asarray(st.get(0))[0] == 2
        assert np.asarray(st.get(1))[0] == 0
        assert np.asarray(st.get(3))[0] == 1

    def test_permute_validates(self, storage_factory):
        with pytest.raises(ValueError):
            storage_factory().permute_shards(np.array([0, 0, 1, 2]))

    def test_every_call_that_may_write_counts(self, storage_factory):
        """Every writer, and the hand-out of a writable shard, ends the
        init the storage holds, writing it first; ``read`` (a read-only
        view) writes it and keeps it."""
        st = storage_factory(num_shards=4, shard_size=4)
        plus = np.full(4, 0.25, dtype=np.complex128)  # 16 amplitudes
        writers = [
            lambda: st.set(1, np.ones(4, dtype=np.complex128)),
            lambda: sweep_ranks(st, lambda r: None),
            lambda: st.exchange_blocks(1),
            lambda: st.permute_shards(np.array([1, 0, 2, 3])),
            lambda: st.get(0),
        ]
        for call in writers:
            st.initialize("plus")
            call()
            assert (st.fresh_init, st.pending) == (None, False)
            assert np.array_equal(st.read(2), plus)
        st.initialize("plus")
        view = st.read(0)
        assert (st.fresh_init, st.pending) == ("plus", False)
        assert np.array_equal(view, plus)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = 2
        assert st.fresh_init == "plus"


def _spans_of(st) -> list[range]:
    """The spans a sweep of *st* must walk: the block of all in-memory
    shards is one, any other shard one of its own."""
    if isinstance(st, InMemoryShards) and st._block is not None:
        return [range(st.num_shards)]
    return [range(r, r + 1) for r in range(st.num_shards)]


def _fill(value):
    """A kernel builder whose part overwrites its span with *value*."""

    def part(array, start, stop):
        array[:] = value

    return lambda ranks: (part, 1)


class TestSweepContract:
    """``sweep(kernel_for)`` asks for one kernel per span, in rank order,
    and keeps the pending init's books by span."""

    def test_kernel_for_runs_once_per_span(self, storage_factory):
        st = storage_factory(num_shards=4, shard_size=8)
        for r in range(4):
            st.set(r, np.full(8, r, dtype=np.complex128))
        asked = []

        def kernel_for(ranks):
            asked.append(ranks)

            def part(array, start, stop):  # one unit per rank of the span
                shards = array.reshape(len(ranks), -1)
                shards[start:stop] += 10 * np.arange(
                    ranks.start + start, ranks.start + stop
                )[:, None]

            return part, len(ranks)

        st.sweep(kernel_for)
        assert asked == _spans_of(st)
        for r in range(4):
            assert np.array_equal(st.read(r), np.full(8, 11 * r)), r

    def test_none_span_on_pending_init_gets_the_fill(self, storage_factory):
        """A span left alone by an overwriting sweep holds the init, the
        others what their parts wrote."""
        st = storage_factory(num_shards=4, shard_size=4)
        st.initialize("plus")
        spans = _spans_of(st)
        written = spans[-1]
        st.sweep(
            lambda ranks: _fill(2)(ranks) if ranks == written else None,
            overwrites=True,
        )
        assert (st.fresh_init, st.pending) == (None, False)
        for r in range(4):
            want = 2 if r in written else 0.25
            assert np.array_equal(st.read(r), np.full(4, want)), r

    def test_overwriting_every_span_writes_no_fill(
        self, storage_factory, monkeypatch
    ):
        st = storage_factory(num_shards=4, shard_size=4)
        st.initialize("zero")
        fills = []
        real = type(st)._sweep

        def spy(self, parts, *, label, overwrites):
            fills.extend(label for _ in parts if label.startswith("init"))
            return real(self, parts, label=label, overwrites=overwrites)

        monkeypatch.setattr(type(st), "_sweep", spy)
        st.sweep(_fill(3), label="product", overwrites=True)
        for r in range(4):
            assert np.array_equal(st.read(r), np.full(4, 3)), r
        assert fills == [] and not st.pending

    def test_raising_part_names_op_rank_and_file(self, tmp_path):
        """A part that raises during a ``DiskShards`` flush: the note names
        its op, its rank and that rank's file."""
        st = DiskShards(4, 4, tmp_path)
        st.permute_shards(np.array([1, 0, 3, 2]))

        def kernel_for(ranks):
            def part(array, start, stop):
                if ranks.start == 2:
                    raise FloatingPointError("bad amplitude")

            return part, 1

        st.sweep(kernel_for, label="op k=2 m=1 bits=[0, 1]")
        with pytest.raises(FloatingPointError) as excinfo:
            st.flush()
        (note,) = excinfo.value.__notes__
        assert "'op k=2 m=1 bits=[0, 1]'" in note
        assert "rank 2" in note and "shard_000003.dat" in note
        st._pending.clear()
        st.close()


class TestSwapAcrossLayouts:
    """``swap_global_set`` (renumbering, staging, exchange) leaves the same
    bytes, layout and ``CommStats`` on the block of all shards, on one
    array per shard and on ``DiskShards``, and the same logical state."""

    @pytest.mark.parametrize(
        "n,l,new_global,renumbers,stages",
        [
            pytest.param(10, 6, {5, 7, 8, 9}, False, False, id="q1-bare"),
            pytest.param(10, 6, {0, 6, 8, 9}, True, True, id="q1-renumber-stage"),
            # 16 groups of 2 ranks: a tile spans several groups
            pytest.param(12, 7, {0, 8, 9, 10, 11}, False, True, id="q1-groups"),
            # one group, which is one tile
            pytest.param(10, 6, {0, 1, 2, 3}, False, True, id="q-is-g"),
            # 16 ranks of 16 amplitudes: blocks of one amplitude
            pytest.param(8, 4, {0, 1, 2, 3}, False, False, id="q-is-l"),
            pytest.param(11, 6, {1, 4, 6, 9, 10}, True, True, id="q3-of-5"),
        ],
    )
    def test_same_bytes_layout_and_stats(
        self, n, l, new_global, renumbers, stages, tmp_path, monkeypatch
    ):
        amplitudes = random_statevector(n, seed=n + l)
        step = QubitLayout.initial(n, l).plan_swap(new_global)
        assert (step.rank_source is not None, bool(step.transpositions)) == (
            renumbers, stages,
        )
        runs = {}
        for name in ("block", "by_shard", "disk"):
            if name == "disk":
                storage = DiskShards(1 << (n - l), 1 << l, tmp_path)
            else:
                storage = _in_memory(
                    1 << (n - l), 1 << l,
                    by_shard=name == "by_shard", monkeypatch=monkeypatch,
                )
            state = DistributedState(n, l, storage=storage, init=None)
            state._scatter(amplitudes)
            state.swap_global_set(new_global)
            assert state.global_qubit_set() == new_global
            shards = [state.storage.read(r).tobytes() for r in range(1 << (n - l))]
            logical = state.to_statevector().data.tobytes()
            runs[name] = (shards, state.layout, state.stats, logical)
            if name == "disk":
                storage.close()
        assert runs["block"] == runs["by_shard"] == runs["disk"]
        assert runs["block"][3] == amplitudes.data.tobytes()


class TestInMemorySpecific:
    def test_local_block(self, tmp_path):
        """One span over every shard where they sit side by side, in rank
        order after a relabel too."""
        memory = InMemoryShards(4, 8)
        memory.permute_shards(np.array([2, 0, 3, 1]))
        shapes = []

        def kernel_for(ranks):
            def part(array, start, stop):
                shapes.append(array.shape)
                array[:] = np.arange(32)

            return part, 1

        memory.sweep(kernel_for)
        assert shapes == [(4 * 8,)]
        assert [memory.get(r)[0].real for r in range(4)] == [0, 8, 16, 24]
        # Past 128 KiB a shard is an array of its own (steady heap use).
        assert InMemoryShards(2, 1 << 13)._spans() == [range(2)]
        assert InMemoryShards(2, 1 << 14)._spans() == [range(1), range(1, 2)]
        assert DiskShards(2, 8, tmp_path)._spans() == [range(1), range(1, 2)]


class TestDiskSpecific:
    def test_permute_moves_no_data(self, tmp_path):
        """Disk permutation is label indirection — file contents unchanged."""
        st = DiskShards(4, 4, tmp_path)
        for r in range(4):
            st.set(r, np.full(4, r, dtype=np.complex128))
        before = {p.name: p.read_bytes() for p in tmp_path.glob("shard_*.dat")}
        st.permute_shards(np.array([1, 2, 3, 0]))
        after = {p.name: p.read_bytes() for p in tmp_path.glob("shard_*.dat")}
        assert before == after
        assert np.asarray(st.get(0))[0] == 1

    def test_reopen_preserves(self, tmp_path):
        st = DiskShards(2, 4, tmp_path)
        st.set(1, np.arange(4, dtype=np.complex128))
        st2 = DiskShards(2, 4, tmp_path)
        assert np.array_equal(np.asarray(st2.get(1)), np.arange(4))


class TestDiskShardsHandles:
    """Satellite: memmap handle reuse and idempotent close."""

    def test_get_reuses_one_handle(self, tmp_path):
        st = DiskShards(4, 8, tmp_path)
        assert st.get(1) is st.get(1)
        assert len(st._handles) == 1

    def test_close_is_idempotent_and_reopens(self, tmp_path):
        st = DiskShards(4, 8, tmp_path)
        data = np.arange(8, dtype=np.complex128)
        st.set(3, data)
        st.close()
        st.close()  # second close is a no-op, not an error
        assert not st._handles
        # Handles reopen lazily; the data survived the close.
        assert np.array_equal(np.asarray(st.get(3)), data)
        st.close()

    def test_close_after_permute_keeps_labels(self, tmp_path):
        st = DiskShards(2, 4, tmp_path)
        st.set(0, np.full(4, 1.0, dtype=np.complex128))
        st.set(1, np.full(4, 2.0, dtype=np.complex128))
        st.permute_shards(np.array([1, 0]))
        st.close()
        assert np.asarray(st.get(0))[0] == 2.0
        st.close()


class TestDiskShardsPipelined:
    """Armed mode: double-buffered flush and exchange, bit-exact."""

    def test_armed_exchange_matches_serial(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        serial = DiskShards(8, 16, tmp_path / "serial")
        armed = DiskShards(8, 16, tmp_path / "armed")
        rng = np.random.default_rng(5)
        for r in range(8):
            data = rng.normal(size=16) + 1j * rng.normal(size=16)
            serial.set(r, data.astype(np.complex128))
            armed.set(r, data.astype(np.complex128))
        serial.exchange_blocks(2)
        with ThreadPoolExecutor(max_workers=1) as pool:
            armed.arm_pipeline(pool, depth=2)
            armed.exchange_blocks(2)
            armed.disarm_pipeline()
        for r in range(8):
            assert np.array_equal(
                np.asarray(armed.get(r)), np.asarray(serial.get(r))
            ), r
        assert armed.io_stats["exchange_prefetched_pairs"] > 0
        assert serial.io_stats["exchange_prefetched_pairs"] == 0
        serial.close()
        armed.close()

    def test_drain_is_the_durability_point(self, tmp_path):
        """One synchronous fsync per file written since the last drain,
        armed or not; nothing is fsynced per op or in the background."""
        from concurrent.futures import ThreadPoolExecutor

        st = DiskShards(4, 8, tmp_path)
        with ThreadPoolExecutor(max_workers=1) as pool:
            st.arm_pipeline(pool, depth=1)
            st.set(0, np.arange(8, dtype=np.complex128))
            sweep_ranks(st, lambda r: _double)
            assert st.io_stats["sync_flushes"] == 0
            st.drain()
            st.disarm_pipeline()
        assert st.io_stats["sync_flushes"] == 4
        st.drain()  # nothing written since
        assert st.io_stats["sync_flushes"] == 4
        st.set(1, np.arange(8, dtype=np.complex128))
        st.close()
        assert st.io_stats["sync_flushes"] == 5
        assert st.io_stats["async_syncs"] == 0

    @pytest.mark.parametrize("depth", [1, 2, 3, 8])
    def test_armed_flush_overlaps_within_its_buffer_budget(self, tmp_path, depth):
        from concurrent.futures import ThreadPoolExecutor

        st = DiskShards(8, 16, tmp_path)
        for r in range(8):
            st.set(r, np.full(16, r + 1, dtype=np.complex128))
        events = []
        with ThreadPoolExecutor(max_workers=1) as pool:
            st.arm_pipeline(pool, depth=depth, observer=lambda *e: events.append(e))
            sweep_ranks(st, lambda r: _double)
            st.flush()
            assert 1 <= len(st._buffers) <= depth + 1
            st.disarm_pipeline()
        assert not st._buffers
        assert st.io_stats["shard_loads"] == st.io_stats["shard_stores"] == 8
        # File 0 is loaded by the main thread, and with depth 1 all are.
        assert st.io_stats["read_aheads"] == (7 if depth > 1 else 0)
        assert [e[1] for e in events if e[0] == "store_behind"] == list(range(8))
        stalls = [e for e in events if e[0] == "load_stall"]
        assert len(stalls) + 8 == len(events)
        assert all(0 < f < 8 and s >= 0 for _, f, s in stalls)
        for r in range(8):
            assert np.array_equal(st.get(r), np.full(16, 2 * (r + 1)))
        st.close()

    def test_unarmed_flush_holds_one_buffer_until_close(self, tmp_path):
        st = DiskShards(4, 8, tmp_path)
        sweep_ranks(st, lambda r: _double)
        st.flush()
        assert len(st._buffers) == 1
        assert st.io_stats["read_aheads"] == 0
        st.close()
        assert not st._buffers

    def test_arm_depth_validated(self, tmp_path):
        st = DiskShards(2, 4, tmp_path)
        with pytest.raises(ValueError):
            st.arm_pipeline(object(), depth=0)
        st.close()

    def test_in_memory_hooks_are_noops(self):
        st = InMemoryShards(2, 4)
        st.arm_pipeline(object(), depth=3)
        st.flush()
        st.drain()
        st.disarm_pipeline()


def _double(shard):
    shard *= 2
