"""Runtime lock instrumentation: acquisition order, counts and wait time.

The lock-order source invariant (``build_lock_graph`` in
``tests/staticcheck/test_source_invariants.py``) derives the *possible*
lock-acquisition graph from nested ``with`` blocks;
this module records the graph a process *actually* walked.  Every shared
lock in the concurrent layer (the service caches, the kernel cache,
``plan_for``'s compile lock) is a :class:`TrackedLock` — a named wrapper
around a :class:`threading.Lock`/:class:`threading.RLock` that, when the
process-wide :data:`LOCK_TRACKER` is enabled, records

* per-lock acquisition counts and cumulative wait time (mirrored into a
  bound :class:`~repro.telemetry.metrics.MetricsRegistry` as
  ``lock.acquire.count{name=}`` / ``lock.wait.seconds{name=}``), and
* the set of ordered pairs ``(held, acquired)`` — an edge for every lock
  already held by the acquiring thread, i.e. exactly the transitive
  nesting edges the static graph predicts.

Tracking is off by default and the disabled fast path is one attribute
check, so wrapped locks cost nothing in production.  Arm it with
``simulate --sanitize`` / ``repro trace`` (or ``LOCK_TRACKER.enable()``);
tests cross-check :meth:`LockTracker.observed_edges` against the static
graph on a concurrent service stress run.
"""

from __future__ import annotations

import threading
import time

__all__ = ["LOCK_TRACKER", "LockTracker", "TrackedLock"]


class LockTracker:
    """Process-wide recorder of lock acquisitions and their nesting.

    Thread-safe: per-thread held-lock stacks live in thread-local
    storage; the shared tallies are guarded by a private leaf lock that
    is never held while acquiring a tracked lock (so the tracker itself
    cannot deadlock or create edges).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._state_lock = threading.Lock()
        self._tls = threading.local()
        self._edges: set[tuple[str, str]] = set()
        self._acquire_counts: dict[str, int] = {}
        self._wait_seconds: dict[str, float] = {}
        self._metrics = None
        self._recorder = None

    # ------------------------------------------------------------------
    def enable(self) -> None:
        """Start recording acquisitions (idempotent)."""
        self.enabled = True

    def disable(self) -> None:
        """Stop recording; accumulated observations are kept."""
        self.enabled = False

    def reset(self) -> None:
        """Drop every recorded edge and counter.

        Held-lock stacks of *other* threads are thread-local and cannot
        be cleared from here; reset while the process is quiescent (no
        tracked lock held), which is how the tests use it.
        """
        with self._state_lock:
            self._edges.clear()
            self._acquire_counts.clear()
            self._wait_seconds.clear()

    def bind_metrics(self, registry) -> None:
        """Stream per-lock counters into *registry* (``None`` detaches).

        Mirrored keys: ``lock.acquire.count{name=}`` (counter) and
        ``lock.wait.seconds{name=}`` (histogram of per-acquire wait).
        """
        with self._state_lock:
            self._metrics = (
                registry if registry is not None and registry.enabled else None
            )

    def bind_recorder(self, recorder) -> None:
        """Stream lock events into a flight recorder (``None`` detaches).

        Each acquisition appends a ``kind="lock"`` record (lock name +
        wait seconds) to the bound
        :class:`~repro.telemetry.recorder.FlightRecorder`, so a
        postmortem bundle shows which guarded sections a dying job was
        contending on.
        """
        with self._state_lock:
            self._recorder = recorder

    # ------------------------------------------------------------------
    def _held(self) -> list[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def on_acquired(self, name: str, wait_seconds: float) -> None:
        """Record that the calling thread acquired *name*."""
        stack = self._held()
        with self._state_lock:
            self._acquire_counts[name] = self._acquire_counts.get(name, 0) + 1
            self._wait_seconds[name] = (
                self._wait_seconds.get(name, 0.0) + wait_seconds
            )
            for held in stack:
                if held != name:
                    self._edges.add((held, name))
            if self._metrics is not None:
                self._metrics.counter("lock.acquire.count", name=name).inc()
                self._metrics.histogram(
                    "lock.wait.seconds", name=name
                ).observe(wait_seconds)
            recorder = self._recorder
        if recorder is not None:
            # Outside the state lock: the ring has its own leaf lock.
            recorder.record("lock", name=name, wait_seconds=wait_seconds)
        stack.append(name)

    def on_released(self, name: str) -> None:
        """Record that the calling thread released *name*."""
        stack = self._held()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                break

    # ------------------------------------------------------------------
    def observed_edges(self) -> frozenset[tuple[str, str]]:
        """Ordered ``(held, acquired)`` pairs observed so far."""
        with self._state_lock:
            return frozenset(self._edges)

    def stats(self) -> dict:
        """JSON-ready snapshot of counts, waits and edges."""
        with self._state_lock:
            return {
                "acquire_counts": dict(self._acquire_counts),
                "wait_seconds": dict(self._wait_seconds),
                "edges": sorted(self._edges),
            }


#: The process-wide tracker every TrackedLock reports to by default.
LOCK_TRACKER = LockTracker()


class TrackedLock:
    """A named lock wrapper that reports to a :class:`LockTracker`.

    Wraps an :class:`threading.RLock` by default (pass ``lock=`` for a
    plain mutex).  Supports the context-manager protocol plus
    ``acquire``/``release``, which is all the repo's guarded sections
    use.  When the tracker is disabled the overhead is one attribute
    check per acquire/release.
    """

    __slots__ = ("name", "_lock", "_tracker")

    def __init__(self, name: str, *, lock=None, tracker=None) -> None:
        self.name = name
        self._lock = threading.RLock() if lock is None else lock
        self._tracker = LOCK_TRACKER if tracker is None else tracker

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        tracker = self._tracker
        if not tracker.enabled:
            return self._lock.acquire(blocking, timeout)
        t0 = time.perf_counter()
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            tracker.on_acquired(self.name, time.perf_counter() - t0)
        return acquired

    def release(self) -> None:
        self._lock.release()
        if self._tracker.enabled:
            self._tracker.on_released(self.name)

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TrackedLock({self.name!r})"
