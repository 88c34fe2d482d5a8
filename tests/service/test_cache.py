"""PlanCache / ResultCache sharing, LRU bounds and thread safety."""

from __future__ import annotations

import threading

import pytest

import repro.service.cache as cache_module
from repro.scheduling import schedule_circuit as _schedule_circuit
from repro.service import JobResult, JobStatus, PlanCache, ResultCache


class TestPlanCache:
    def test_shares_one_entry_across_equal_specs(self, make_spec):
        cache = PlanCache()
        first = cache.get(make_spec("a"))
        second = cache.get(make_spec("b"))  # different tenant, same circuit
        assert first is second
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_distinct_plan_keys_miss(self, make_spec):
        cache = PlanCache()
        cache.get(make_spec())
        cache.get(make_spec(local_qubits=6))
        cache.get(make_spec(kmax=3))
        assert cache.stats()["misses"] == 3
        assert len(cache) == 3

    def test_entry_carries_schedule_and_plan(self, make_spec):
        entry = PlanCache().get(make_spec())
        assert entry.schedule.num_qubits == 9
        assert entry.program.schedule is entry.schedule

    def test_lru_eviction(self, make_spec):
        cache = PlanCache(capacity=1)
        cache.get(make_spec())
        cache.get(make_spec(local_qubits=6))
        assert len(cache) == 1

    def test_concurrent_gets_compile_once(self, make_spec):
        cache = PlanCache()
        spec = make_spec()
        entries = []
        errors = []

        def hit():
            try:
                entries.append(cache.get(spec))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hit) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert cache.stats()["misses"] == 1
        assert all(e is entries[0] for e in entries)


class _HeldCompile:
    """``schedule_circuit`` stand-in that holds the compile of one
    circuit until released (every other circuit compiles at once)."""

    def __init__(self, held_circuit):
        self.held_circuit = held_circuit
        self.started = threading.Event()
        self.release = threading.Event()
        self.calls = 0

    def __call__(self, circuit, config):
        self.calls += 1
        if circuit is self.held_circuit:
            self.started.set()
            assert self.release.wait(10), "held compile never released"
        return _schedule_circuit(circuit, config)


class TestSingleFlight:
    """The cache lock guards only its dictionaries: a cold compile runs
    outside it, once per key."""

    @pytest.fixture
    def held(self, make_spec, monkeypatch):
        spec = make_spec(circuit_seed=11)
        compile_ = _HeldCompile(spec.circuit)
        monkeypatch.setattr(cache_module, "schedule_circuit", compile_)
        return spec, compile_

    def test_hit_returns_while_another_key_compiles(self, make_spec, held):
        cold, compile_ = held
        cache = PlanCache()
        hot = make_spec()
        warm = cache.get(hot)
        compiling = threading.Thread(target=cache.get, args=(cold,))
        compiling.start()
        try:
            assert compile_.started.wait(10)
            got = []
            hit = threading.Thread(target=lambda: got.append(cache.get(hot)))
            hit.start()
            hit.join(5)
            assert got == [warm], "a hit waited for another key's compile"
        finally:
            compile_.release.set()
            compiling.join()
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 2

    def test_waiters_share_the_one_compile(self, held):
        cold, compile_ = held
        cache = PlanCache()
        entries = []
        threads = [
            threading.Thread(target=lambda: entries.append(cache.get(cold)))
            for _ in range(4)
        ]
        threads[0].start()
        assert compile_.started.wait(10)
        for thread in threads[1:]:
            thread.start()
        compile_.release.set()
        for thread in threads:
            thread.join()
        assert compile_.calls == 1
        assert len(entries) == 4 and all(e is entries[0] for e in entries)
        assert cache.stats()["hits"] == 3 and cache.stats()["misses"] == 1

    def test_failed_compile_raises_and_caches_nothing(
        self, make_spec, monkeypatch
    ):
        def broken(circuit, config):
            raise RuntimeError("compile failed")

        monkeypatch.setattr(cache_module, "schedule_circuit", broken)
        cache = PlanCache()
        with pytest.raises(RuntimeError, match="compile failed"):
            cache.get(make_spec())
        assert len(cache) == 0 and not cache._compiling


class TestResultCache:
    def test_miss_then_hit_marks_from_cache(self):
        cache = ResultCache()
        key = ("h", 7, 5, 0, 0)
        assert cache.get(key) is None
        cache.put(key, JobResult(status=JobStatus.COMPLETED, fingerprint="f"))
        hit = cache.get(key)
        assert hit.from_cache is True
        assert hit.fingerprint == "f"
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "hit_rate": 0.5,
            "entries": 1,
            "capacity": 256,
        }

    def test_capacity_bounds_entries(self):
        cache = ResultCache(capacity=2)
        for i in range(4):
            cache.put(("k", i), JobResult(status=JobStatus.COMPLETED))
        assert len(cache) == 2
        assert cache.get(("k", 0)) is None
        assert cache.get(("k", 3)) is not None

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=0)

    def test_clear(self):
        cache = ResultCache()
        cache.put(("k",), JobResult(status=JobStatus.COMPLETED))
        cache.get(("k",))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0
