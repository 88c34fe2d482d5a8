"""Tests for the memoized diagonal-factor cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.kernels import GATHER_CACHE, GatherTableCache, apply_gate_indexed

#: A Z gate's diagonal: the factor of bit q is -1 where that bit is set.
_Z = np.array([1.0, -1.0], dtype=np.complex128)


def _lift(cache: GatherTableCache, bit: int) -> np.ndarray:
    """One distinct cache key per *bit* (a 2**6-entry phase factor)."""
    return cache.diagonal_factor(6, (bit,), _Z)


class TestCounters:
    def test_hit_and_miss_counters(self):
        cache = GatherTableCache()
        _lift(cache, 2)
        assert (cache.hits, cache.misses) == (0, 1)
        _lift(cache, 2)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5
        # A different key misses again.
        _lift(cache, 3)
        assert cache.misses == 2

    def test_returned_tables_are_read_only(self):
        cache = GatherTableCache()
        table = _lift(cache, 1)
        with pytest.raises(ValueError):
            table[0] = 99

    def test_bytes_accounting(self):
        cache = GatherTableCache()
        table = _lift(cache, 1)
        assert cache.bytes_cached == table.nbytes
        assert cache.bytes_saved == 0
        _lift(cache, 1)
        assert cache.bytes_saved == table.nbytes


class TestDiagonalFactor:
    def test_memoized_on_diag_bytes(self):
        cache = GatherTableCache()
        diag = np.exp(1j * np.linspace(0, 1, 4))
        a = cache.diagonal_factor(6, (1, 3), diag)
        b = cache.diagonal_factor(6, (1, 3), diag.copy())
        assert a is b  # same bytes -> same cached tensor
        assert cache.hits == 1
        cache.diagonal_factor(6, (1, 3), diag * np.exp(0.5j))
        assert cache.misses == 2

    def test_factor_is_read_only(self):
        cache = GatherTableCache()
        factor = cache.diagonal_factor(4, (0,), np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            factor[(0,) * factor.ndim] = 0


class TestLRUEviction:
    def test_evicts_least_recently_used(self):
        cache = GatherTableCache(capacity=2)
        _lift(cache, 0)
        _lift(cache, 1)
        _lift(cache, 0)  # refresh 0
        _lift(cache, 2)  # evicts 1
        assert len(cache) == 2
        misses = cache.misses
        _lift(cache, 0)  # still cached
        assert cache.misses == misses
        _lift(cache, 1)  # was evicted -> rebuild
        assert cache.misses == misses + 1

    def test_bytes_cached_shrinks_on_eviction(self):
        cache = GatherTableCache(capacity=1)
        _lift(cache, 0)
        second = cache.diagonal_factor(8, (0, 1), np.ones(4, dtype=complex))
        assert len(cache) == 1
        assert cache.bytes_cached == second.nbytes

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            GatherTableCache(capacity=0)


class TestClear:
    def test_clear_resets_everything(self):
        cache = GatherTableCache()
        _lift(cache, 1)
        _lift(cache, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "hit_rate": 0.0,
            "entries": 0,
            "capacity": cache.capacity,
            "bytes_cached": 0,
            "bytes_saved": 0,
        }


class TestDenseKernelIsTableFree:
    """The dense sweep derives its addresses per op; nothing it uses is
    cached, so the cache never holds anything the size of a shard."""

    def test_dense_op_caches_nothing_shard_sized(self):
        rng = np.random.default_rng(0)
        n = 20
        state = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        u = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        GATHER_CACHE.clear()
        for qubits in [(0, 1, 2, 3), (2, 4, 5, 8), (9, 12, 13, 17), (1, 2, 16, 17)]:
            apply_gate_indexed(state, u, qubits, chunk_size=1024)
        assert GATHER_CACHE.stats()["bytes_cached"] < 1 << 20
        families = {key[0] for key in GATHER_CACHE._entries}
        assert families <= {"diag"}

    def test_cache_has_no_gather_families(self):
        for name in (
            "gather_tables", "gather_tables_t", "gather_inverse",
            "bit_permutation", "warm_gather_tables", "warm_diagonal_factor",
            "lift_index_table",
        ):
            assert not hasattr(GatherTableCache, name)


class TestSetCapacity:
    def test_shrink_evicts_lru_overflow(self):
        cache = GatherTableCache(capacity=4)
        for q in range(4):
            _lift(cache, q)
        _lift(cache, 0)  # refresh 0
        cache.set_capacity(2)
        assert len(cache) == 2
        assert cache.stats()["capacity"] == 2
        misses = cache.misses
        _lift(cache, 0)  # survivor
        _lift(cache, 3)  # survivor
        assert cache.misses == misses
        _lift(cache, 1)  # was evicted
        assert cache.misses == misses + 1

    def test_grow_keeps_entries(self):
        cache = GatherTableCache(capacity=1)
        _lift(cache, 0)
        cache.set_capacity(8)
        assert len(cache) == 1
        assert cache.capacity == 8

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            GatherTableCache().set_capacity(0)


class TestThreadSafety:
    def test_concurrent_lookups_stay_consistent(self):
        import threading

        cache = GatherTableCache(capacity=8)
        errors = []
        barrier = threading.Barrier(8)
        arange = np.arange(1 << 6)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for i in range(50):
                    q = (seed + i) % 6
                    table = _lift(cache, q)
                    if not np.array_equal(table, _Z[arange >> q & 1]):
                        raise AssertionError(f"corrupt factor for bit {q}")
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Bookkeeping stayed coherent under contention.
        assert len(cache) <= 8
        assert cache.hits + cache.misses == 8 * 50
        stats = cache.stats()
        assert stats["entries"] == len(cache)
