"""The runtime lock tracker — and its cross-check against the static graph.

The headline test runs a 12-job concurrent service stress load with
:data:`~repro.util.locktrack.LOCK_TRACKER` armed and asserts that every
``(held, acquired)`` pair the process actually walked is predicted by
the static lock-order graph (:func:`build_lock_graph` in
``test_source_invariants.py``) built over the same modules — i.e. the
static analysis is a sound over-approximation of runtime nesting on
this workload, and their union stays acyclic.
"""

from __future__ import annotations

import asyncio
import threading
from pathlib import Path

import pytest

from repro.circuit import generate_supremacy_circuit
from repro.service import JobSpec, ServiceConfig, SimulationService
from repro.telemetry import MetricsRegistry
from repro.util.locktrack import LOCK_TRACKER, LockTracker, TrackedLock
from tests.staticcheck.test_source_invariants import build_lock_graph

REPO = Path(__file__).resolve().parents[2]


# ----------------------------------------------------------------------
# TrackedLock unit behavior
# ----------------------------------------------------------------------
class TestTrackedLock:
    def test_context_manager_and_reentrancy(self):
        lock = TrackedLock("t.lock", tracker=LockTracker())
        with lock:
            with lock:  # RLock by default
                pass

    def test_plain_lock_override(self):
        lock = TrackedLock(
            "t.plain", lock=threading.Lock(), tracker=LockTracker()
        )
        with lock:
            assert not lock.acquire(blocking=False)
        assert lock.acquire(blocking=False)
        lock.release()

    def test_disabled_tracker_records_nothing(self):
        tracker = LockTracker()
        lock = TrackedLock("t.off", tracker=tracker)
        with lock:
            pass
        assert tracker.stats()["acquire_counts"] == {}

    def test_mutual_exclusion_under_tracking(self):
        tracker = LockTracker()
        tracker.enable()
        lock = TrackedLock("t.guard", tracker=tracker)
        counter = {"v": 0}

        def bump():
            for _ in range(500):
                with lock:
                    counter["v"] += 1

        threads = [threading.Thread(target=bump) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter["v"] == 2000
        assert tracker.stats()["acquire_counts"]["t.guard"] == 2000


class TestLockTracker:
    def test_nesting_edges_and_counts(self):
        tracker = LockTracker()
        tracker.enable()
        a = TrackedLock("t.a", tracker=tracker)
        b = TrackedLock("t.b", tracker=tracker)
        c = TrackedLock("t.c", tracker=tracker)
        with a:
            with b:
                with c:
                    pass
        # One edge from every held lock to the newly acquired one.
        assert tracker.observed_edges() == {
            ("t.a", "t.b"),
            ("t.a", "t.c"),
            ("t.b", "t.c"),
        }
        stats = tracker.stats()
        assert stats["acquire_counts"] == {"t.a": 1, "t.b": 1, "t.c": 1}
        assert all(w >= 0.0 for w in stats["wait_seconds"].values())

    def test_no_self_edges_from_reentrancy(self):
        tracker = LockTracker()
        tracker.enable()
        a = TrackedLock("t.a", tracker=tracker)
        with a:
            with a:
                pass
        assert tracker.observed_edges() == frozenset()

    def test_reset_clears_observations(self):
        tracker = LockTracker()
        tracker.enable()
        with TrackedLock("t.a", tracker=tracker):
            pass
        tracker.reset()
        assert tracker.stats() == {
            "acquire_counts": {},
            "wait_seconds": {},
            "edges": [],
        }

    def test_metrics_mirroring_keys(self):
        tracker = LockTracker()
        registry = MetricsRegistry(enabled=True)
        tracker.bind_metrics(registry)
        tracker.enable()
        with TrackedLock("repro.demo._lock", tracker=tracker):
            pass
        snapshot = registry.snapshot()
        assert snapshot["lock.acquire.count{name=repro.demo._lock}"] == 1
        wait = snapshot["lock.wait.seconds{name=repro.demo._lock}"]
        assert wait["count"] == 1

    def test_disabled_registry_not_bound(self):
        tracker = LockTracker()
        tracker.bind_metrics(MetricsRegistry(enabled=False))
        tracker.enable()
        with TrackedLock("t.a", tracker=tracker):
            pass
        assert tracker.stats()["acquire_counts"] == {"t.a": 1}


# ----------------------------------------------------------------------
# Static graph vs. observed runtime orderings
# ----------------------------------------------------------------------
def _acyclic(edges) -> bool:
    adjacency: dict[str, set[str]] = {}
    for a, b in edges:
        adjacency.setdefault(a, set()).add(b)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = {}

    def dfs(node: str) -> bool:
        color[node] = GRAY
        for nxt in adjacency.get(node, ()):
            state = color.get(nxt, WHITE)
            if state == GRAY:
                return False
            if state == WHITE and not dfs(nxt):
                return False
        color[node] = BLACK
        return True

    return all(
        dfs(n) for n in list(adjacency) if color.get(n, WHITE) == WHITE
    )


class TestStaticRuntimeCrossCheck:
    """The static lock graph must cover what the service walks."""

    CONCURRENT_MODULES = [
        REPO / "src" / "repro" / "service",
        REPO / "src" / "repro" / "kernels" / "tables.py",
        REPO / "src" / "repro" / "plan",
        REPO / "src" / "repro" / "kernels" / "apply.py",
        REPO / "src" / "repro" / "util" / "executors.py",
    ]

    @pytest.fixture(scope="class")
    def static_graph(self):
        return build_lock_graph(self.CONCURRENT_MODULES)

    def test_static_graph_covers_the_shared_locks(self, static_graph):
        assert {
            "repro.service.cache.PlanCache._lock",
            "repro.service.cache.ResultCache._lock",
            "repro.kernels.tables.GatherTableCache._lock",
            "repro.plan.program._PLAN_FOR_LOCK",
            "repro.kernels.apply._pool_lock",
            "repro.util.executors._registry_lock",
        } <= static_graph.nodes
        # Plan-cache misses compile outside the cache lock (single
        # flight), so no lock is taken under it.
        assert not any(
            held == "repro.service.cache.PlanCache._lock"
            for held, _ in static_graph.edge_set()
        )
        # Starting the sweep pool registers it under the pool lock.
        assert (
            "repro.kernels.apply._pool_lock",
            "repro.util.executors._registry_lock",
        ) in static_graph.edge_set()

    def test_static_graph_is_acyclic(self, static_graph):
        assert static_graph.cycles() == []
        assert _acyclic(static_graph.edge_set())

    def test_stress_run_orderings_match_static_graph(self, static_graph):
        """12 concurrent jobs, 3 tenants, 4 workers — observed lock
        nesting must be a subset of the statically predicted graph."""
        specs = []
        for tenant, qubits, depth in (
            ("alpha", 9, 8),
            ("beta", 10, 8),
            ("gamma", 11, 6),
        ):
            circuit = generate_supremacy_circuit(qubits, depth, seed=qubits)
            for repeat in range(4):
                specs.append(
                    JobSpec(
                        tenant=tenant,
                        circuit=circuit,
                        local_qubits=qubits - 2,
                        shots=16,
                        seed=repeat,
                        use_result_cache=False,
                    )
                )

        async def stress() -> list:
            service = SimulationService(ServiceConfig(max_workers=4))
            await service.start()
            try:
                jobs = [await service.submit(spec) for spec in specs]
                return await asyncio.gather(
                    *(service.wait(job) for job in jobs)
                )
            finally:
                await service.shutdown()

        LOCK_TRACKER.reset()
        LOCK_TRACKER.enable()
        try:
            results = asyncio.run(stress())
        finally:
            LOCK_TRACKER.disable()

        assert len(results) == 12
        assert all(r.status.value == "completed" for r in results)

        observed = LOCK_TRACKER.observed_edges()
        static_edges = static_graph.edge_set()
        unpredicted = observed - static_edges
        assert not unpredicted, (
            f"runtime acquired lock orderings the static graph does not "
            f"predict: {sorted(unpredicted)}"
        )
        # The misses of this load compiled, and none under the cache lock.
        assert not any(
            held == "repro.service.cache.PlanCache._lock"
            for held, _ in observed
        )
        # And the union of prediction and observation stays deadlock-free.
        assert _acyclic(static_edges | observed)
        counts = LOCK_TRACKER.stats()["acquire_counts"]
        assert (
            counts["repro.kernels.tables.GatherTableCache._lock"] > 0
        )
        assert counts["repro.plan.program._PLAN_FOR_LOCK"] > 0
        LOCK_TRACKER.reset()
