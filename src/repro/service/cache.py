"""Cross-request caches: compiled plans and finished results.

Both caches are thread-safe LRUs keyed off
:meth:`Circuit.content_hash() <repro.circuit.Circuit.content_hash>`:

* :class:`PlanCache` — ``(circuit hash, local_qubits, kmax, PlanConfig)``
  maps to the
  scheduled :class:`~repro.scheduling.Schedule` plus its compiled
  :class:`~repro.plan.CompiledProgram`.  Scheduling + compilation is by
  far the most expensive per-request setup work, and supremacy-style
  service traffic repeats circuits heavily; a hit skips all of it and
  (because every rank and repetition also shares the process-wide
  :data:`~repro.kernels.GATHER_CACHE`) lands on fully warm kernels.
  The lock guards only the dictionaries: a miss compiles outside it,
  behind a per-key future that later requests for the key wait on, so
  each key compiles exactly once however many requests race on it, and
  a cold compile never holds up a hit on another key.
* :class:`ResultCache` — ``(plan key, shots, seed)`` maps to a finished
  :class:`~repro.service.jobs.JobResult`; a hit completes the job
  without touching the worker pool at all.

Both expose ``stats()`` snapshots; the plan-cache hit rate is the
guarded number of ``bench_service_throughput``.
"""

from __future__ import annotations

from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, replace

from repro.plan import PlanConfig, plan_for
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.service.jobs import JobResult, JobSpec
from repro.util.locktrack import TrackedLock

__all__ = ["PlanCache", "PlanEntry", "ResultCache"]


@dataclass(frozen=True)
class PlanEntry:
    """One shared compilation artifact: schedule + compiled program."""

    schedule: object
    program: object


class _LruMixin:
    """Shared locked-LRU plumbing (entries, counters, stats)."""

    def __init__(self, *, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = TrackedLock(
            f"repro.service.cache.{type(self).__name__}._lock"
        )
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _evict(self) -> None:
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def stats(self) -> dict:
        """Consistent counters snapshot."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "entries": len(self._entries),
                "capacity": self.capacity,
            }

    def clear(self) -> None:
        """Drop every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class PlanCache(_LruMixin):
    """Schedules + compiled plans shared across requests."""

    def __init__(self, *, capacity: int = 64) -> None:
        super().__init__(capacity=capacity)
        #: key -> future of the compile in flight for it.
        self._compiling: dict[tuple, Future] = {}

    def get(
        self, spec: JobSpec, config: PlanConfig | None = None
    ) -> PlanEntry:
        """The (memoized) schedule + compiled plan for *spec*.

        Single-flight: the first miss on a key compiles it outside the
        cache lock; requests for the key meanwhile wait for that compile
        and count as hits (``misses`` counts compiles).  A failed
        compile raises in each of them and leaves the key uncached.
        The cache key is ``(*spec.plan_key(), config)`` with the frozen
        :class:`~repro.plan.PlanConfig` carrying the one compile option,
        ``fusion_kmax``: two requests with different fusion widths never
        share an entry.
        """
        config = config if config is not None else PlanConfig()
        key = (*spec.plan_key(), config)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return entry
            pending = self._compiling.get(key)
            compiles = pending is None
            if compiles:
                self.misses += 1
                pending = self._compiling[key] = Future()
            else:
                self.hits += 1
        if not compiles:
            return pending.result()
        try:
            schedule = schedule_circuit(
                spec.circuit,
                SchedulerConfig(
                    local_qubits=spec.local_qubits, kmax=spec.kmax
                ),
            )
            entry = PlanEntry(
                schedule=schedule, program=plan_for(schedule, config)
            )
        except BaseException as exc:
            with self._lock:
                del self._compiling[key]
            pending.set_exception(exc)
            raise
        with self._lock:
            del self._compiling[key]
            self._entries[key] = entry
            self._evict()
        pending.set_result(entry)
        return entry


class ResultCache(_LruMixin):
    """Finished job results shared across requests."""

    def __init__(self, *, capacity: int = 256) -> None:
        super().__init__(capacity=capacity)

    def get(self, key: tuple) -> JobResult | None:
        """The cached result for *key*, marked ``from_cache``, or None."""
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return replace(result, from_cache=True)

    def put(self, key: tuple, result: JobResult) -> None:
        """Store a freshly computed *result* under *key*."""
        with self._lock:
            self._entries[key] = replace(result, from_cache=False)
            self._entries.move_to_end(key)
            self._evict()
