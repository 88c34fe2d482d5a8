"""The distributed state on the sweep pool: same bits, no hangs.

Every in-memory write — whatever goes through ``ShardStorage.sweep``
(init, ops over the block of all shards or shard by shard, global
controls included, monomial renumbering, local bit swaps) — must leave
the same bytes pooled as forced serial,
and so must ``DiskShards``' stage flush, which hands whole files to the
pool.  Forcing either side patches ``SPLIT_MIN_AMPLITUDES``.
"""

from __future__ import annotations

import asyncio
import os
import signal
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.kernels.apply as kernels
from repro.circuit import generate_supremacy_circuit
import repro.distributed.state as state_module
import repro.distributed.storage as storage_module
from repro.distributed import DiskShards, DistributedState, InMemoryShards
from repro.gates import Gate, random_unitary
from repro.kernels.apply import run_split, sweep_order
from repro.kernels.blocks import BlockGate
from repro.plan import plan_for
from repro.runtime import ExecutionEngine, PipelineLayer
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.service import JobSpec, ServiceConfig, SimulationService
from repro.statevector import StateVector
from repro.telemetry import Telemetry
from repro.util.bits import scatter_bits
from repro.util.executors import unregister_executor
from repro.util.rng import random_statevector
from tests.conftest import assert_oracle, oracle_state, shards_apart, sweep_ranks

SERIAL = 1 << 62
OPS = ("dense", "structured", "diagonal", "global_controls", "diagonal_global",
       "monomial_global", "local_swap")


def _state(n, l, seed, by_shard) -> DistributedState:
    storage = shards_apart(1 << (n - l), 1 << l) if by_shard else None
    state = DistributedState(n, l, storage=storage, init="plus")
    amps = random_statevector(n, seed)
    for r in range(state.num_ranks):
        state.storage.get(r)[:] = amps[r << l:(r + 1) << l]
    return state


def _global_control_gate(state, bits, rng, m=None):
    """A gate on local *bits* plus one or two global bits, those always
    controls, with *m* (default: ``0..k``) target bits among *bits*:
    ``(gate, bits)``."""
    l, n, k = state.local_qubits, state.num_qubits, len(bits)
    ranked = rng.permutation(range(l, n))[:rng.integers(1, min(2, n - l) + 1)]
    bits = (*bits, *map(int, ranked))
    targets = rng.permutation(k)[:rng.integers(0, k + 1) if m is None else m]
    controls = tuple(j for j in range(len(bits)) if j not in targets)
    m, d = len(bits) - len(controls), len(controls)
    if m:
        blocks = np.stack([random_unitary(m, rng) for _ in range(1 << d)])
    else:
        blocks = np.exp(1j * rng.uniform(0, 6, (1 << d, 1, 1)))
    return BlockGate(len(bits), controls, blocks), bits


def _apply(state, op, bits, seed) -> None:
    l, k = state.local_qubits, len(bits)
    rng = np.random.default_rng(seed)
    top = state.num_qubits - 1  # a global qubit (identity layout)
    if op == "dense":
        state._sweep(BlockGate.of(random_unitary(k, rng)), bits)
    elif op == "structured":
        controls = tuple(sorted(rng.permutation(k)[:rng.integers(0, k)].tolist()))
        blocks = np.stack([random_unitary(k - len(controls), rng)
                           for _ in range(1 << len(controls))])
        state._sweep(BlockGate(k, controls, blocks), bits)
    elif op == "diagonal":
        state._sweep(BlockGate.diagonal(np.exp(1j * rng.uniform(0, 6, 1 << k))), bits)
    elif op == "global_controls":
        state._sweep(*_global_control_gate(state, bits, rng))
    elif op == "diagonal_global":
        state.apply_gate(Gate("cz", (bits[0], top)))
    elif op == "monomial_global":
        _monomial_globals(state, bits[0])
    else:
        state._apply_local_bit_permutation(list(zip(bits, bits[1:])))
        state._swap_local_bits(bits[0], bits[-1])


def _source_offsets(order, l) -> np.ndarray:
    """Offset ``o`` of a shard a sweep leaves in *order* holds what offset
    ``source[o]`` held before (:func:`~repro.kernels.apply.sweep_order`;
    ``None``: in place)."""
    offsets = np.arange(1 << l)
    if order is None:
        return offsets
    w = len(order)
    return offsets >> w << w | scatter_bits(offsets & ((1 << w) - 1), order)


def _monomial_globals(state, local) -> None:
    """Monomial gates on global qubits: CNOT with a global control (one
    sweep, no relabel), X (a relabel only), Y (phases +-i, then a
    relabel) and, given two global qubits, SWAP of them (a relabel)."""
    l, top = state.local_qubits, state.num_qubits - 1
    state.apply_gate(Gate("cnot", (top, local)))
    state.apply_gate(Gate("x", (l,)))
    state.apply_gate(Gate("y", (top,)))
    if top > l:
        state.apply_gate(Gate("swap", (l, top)))


def _run(threshold, n, l, by_shard, op, bits, seed) -> list[np.ndarray]:
    saved = kernels.SPLIT_MIN_AMPLITUDES
    kernels.SPLIT_MIN_AMPLITUDES = threshold
    try:
        state = _state(n, l, seed, by_shard)
        _apply(state, op, bits, seed)
    finally:
        kernels.SPLIT_MIN_AMPLITUDES = saved
    return [state.storage.get(r).copy() for r in range(state.num_ranks)]


@st.composite
def _cases(draw):
    n = draw(st.integers(4, 11))
    l = draw(st.integers((n + 1) // 2, n - 1))
    k = draw(st.integers(1, min(4, l)))
    bits = tuple(draw(st.permutations(range(l)))[:k])
    return n, l, bits


class TestPooledEqualsSerial:
    @settings(max_examples=40, deadline=None)
    @given(
        _cases(),
        st.sampled_from(OPS),
        st.booleans(),
        st.integers(2, 3),
        st.integers(0, 1000),
    )
    def test_byte_for_byte(self, case, op, by_shard, cpus, seed):
        n, l, bits = case
        # A pool of `cpus` threads for this example alone: the process-wide
        # one is started once, at the width of whichever run starts it.
        saved = kernels._CPUS, kernels._pool
        kernels._CPUS, kernels._pool = cpus, None
        try:
            pooled = _run(1, n, l, by_shard, op, bits, seed)
        finally:
            if kernels._pool:
                kernels._pool.shutdown(wait=True)
                unregister_executor(kernels._pool)
            kernels._CPUS, kernels._pool = saved
        serial = _run(SERIAL, n, l, by_shard, op, bits, seed)
        for got, want in zip(pooled, serial):
            assert got.tobytes() == want.tobytes()

    def _init_runs(self, monkeypatch):
        """The ``run_split`` calls (pieces, piece size) of one ``zero``
        init fill."""
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        seen = set()
        real = kernels.run_split

        def spy(work, items, amplitudes):
            items = list(items)
            seen.add((len(items), amplitudes))
            return real(work, items, amplitudes)

        monkeypatch.setattr(kernels, "run_split", spy)
        state = DistributedState(6, 4, init="zero")
        assert state.storage.pending and not seen  # nothing runs yet
        assert state.norm() == 1 and state.storage.read(0)[0] == 1
        return seen

    def test_init_is_pooled(self, monkeypatch):
        """Shards in arrays of their own are filled one kernel each, on
        the pool."""
        monkeypatch.setattr(storage_module, "_BLOCK_SHARD_BYTES", 0)
        assert self._init_runs(monkeypatch) == {(4, 1 << 4)}

    def test_block_init_is_one_fill(self, monkeypatch):
        """The block of small shards is filled once, in place: one span,
        one piece."""
        assert self._init_runs(monkeypatch) == {(1, 1 << 6)}


class TestGlobalControls:
    """An op whose gate has controls on global bits leaves the same bytes
    every way it runs — one block serial or pooled, shard by shard,
    traced, deferred on ``DiskShards`` — and they
    are, rank by rank, the blocks that rank's control values pick."""

    N, L = 9, 5

    def _run(self, apply, monkeypatch, *, threshold, block=True,
             traced=False, disk=None):
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", threshold)
        storage = None
        if disk is not None:
            storage = DiskShards(1 << (self.N - self.L), 1 << self.L, disk)
        telemetry = Telemetry.enabled() if traced else None
        state = _state(self.N, self.L, 11, not block)
        if storage is not None or telemetry is not None:
            amps = [state.storage.get(r).copy() for r in range(state.num_ranks)]
            state = DistributedState(
                self.N, self.L, storage=storage, telemetry=telemetry
            )
            for rank, shard in enumerate(amps):
                state.storage.set(rank, shard)
        apply(state)
        shards = [np.array(state.storage.get(r)) for r in range(state.num_ranks)]
        if storage is not None:
            storage.close()
        return shards

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_way_bit_identical(self, m, seed, tmp_path, monkeypatch):
        rng = np.random.default_rng(seed)
        local = tuple(int(b) for b in rng.permutation(self.L)[:3])
        state = _state(self.N, self.L, 11, False)
        gate, bits = _global_control_gate(state, local, rng, m)
        assert len(gate.targets) == m and any(b >= self.L for b in bits)
        want = self._every_way(
            lambda state: state._sweep(gate, bits), tmp_path, monkeypatch
        )
        # Rank by rank: the dense gate its control values restrict it to,
        # written back in the order the sweep leaves.
        ranked = [j for j, b in enumerate(bits) if b >= self.L]
        kept = [b for b in bits if b < self.L]
        source = _source_offsets(sweep_order(gate, bits, self.L), self.L)
        for rank, shard in enumerate(want):
            fixed = {j: rank >> (bits[j] - self.L) & 1 for j in ranked}
            expected = oracle_state(
                [Gate("g", kept, gate.restrict(fixed).dense())], self.L,
                state.storage.read(rank),
            )
            assert_oracle(shard, expected[source], 1)

    def _every_way(self, apply, tmp_path, monkeypatch) -> list[np.ndarray]:
        """The shards *apply* leaves, the same bytes every way it runs."""
        want = self._run(apply, monkeypatch, threshold=SERIAL)
        runs = {
            "pooled block": dict(threshold=1),
            "serial shards": dict(threshold=SERIAL, block=False),
            "pooled shards": dict(threshold=1, block=False),
            "traced": dict(threshold=SERIAL, traced=True),
            "disk serial": dict(threshold=SERIAL, disk=tmp_path / "serial"),
            "disk pooled": dict(threshold=1, disk=tmp_path / "pooled"),
        }
        for name, how in runs.items():
            got = self._run(apply, monkeypatch, **how)
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], name
        return want

    def test_monomial_globals_every_way(self, tmp_path, monkeypatch):
        """Monomial gates on global qubits, relabels included, leave the
        same bytes every way, and the single-node simulator's state."""
        want = self._every_way(
            lambda state: _monomial_globals(state, 2), tmp_path, monkeypatch
        )
        sv = StateVector(self.N, random_statevector(self.N, 11))
        for gate in [Gate("cnot", (8, 2)), Gate("x", (5,)), Gate("y", (8,)),
                     Gate("swap", (5, 8))]:
            sv.apply_gate(gate)
        # Relabels move shards, not qubits; the CNOT's sweep leaves its
        # target on bit 0 of the window.
        order = sweep_order(BlockGate.of(Gate("cnot", (8, 2)).matrix), (8, 2), self.L)
        source = _source_offsets(order, self.L)
        assert np.allclose(
            np.concatenate(want), sv.data.reshape(-1, 1 << self.L)[:, source].ravel(),
            atol=1e-12,
        )

    @pytest.mark.parametrize("m", [0, 2])
    def test_block_takes_no_per_rank_dispatch(self, m, monkeypatch):
        """On the block, global controls included, one kernel is asked
        for: the one span of every rank."""
        state = _state(self.N, self.L, 11, False)
        gate, bits = _global_control_gate(state, (0, 2, 4), np.random.default_rng(m), m)
        asked, sweep = [], state.storage.sweep

        def spy(kernel_for, **kwargs):
            sweep(lambda ranks: asked.append(ranks) or kernel_for(ranks), **kwargs)

        monkeypatch.setattr(state.storage, "sweep", spy)
        state._sweep(gate, bits)
        assert asked == [range(state.num_ranks)]


class TestOnePlanEveryWay:
    """One plan with structured ops ends in the same bytes serial, pooled,
    traced, as one local block or shard by shard, and deferred on
    ``DiskShards``."""

    N, L = 12, 7

    @pytest.fixture(scope="class")
    def schedule(self):
        return schedule_circuit(
            generate_supremacy_circuit(self.N, 16, seed=4),
            SchedulerConfig(local_qubits=self.L, kmax=4, seed=1),
        )

    def _run(self, schedule, monkeypatch, *, threshold, block=True,
             traced=False, disk=None):
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", threshold)
        ranks, size = 1 << (self.N - self.L), 1 << self.L
        storage = None if block else shards_apart(ranks, size)
        if disk is not None:
            storage = DiskShards(ranks, size, disk)
        state = DistributedState.for_schedule(schedule, storage=storage)
        telemetry = Telemetry.enabled() if traced else None
        ExecutionEngine(
            schedule, telemetry=telemetry, state_factory=lambda: state
        ).run()
        data = state.to_statevector().data.tobytes()
        if disk is not None:
            storage.close()
        return data

    def test_bit_identical(self, schedule, tmp_path, monkeypatch):
        assert plan_for(schedule).summary()["structured_ops"]
        want = self._run(schedule, monkeypatch, threshold=SERIAL)
        runs = {
            "pooled block": dict(threshold=1),
            "serial shards": dict(threshold=SERIAL, block=False),
            "pooled shards": dict(threshold=1, block=False),
            "traced": dict(threshold=SERIAL, traced=True),
            "disk serial": dict(threshold=SERIAL, disk=tmp_path / "serial"),
            "disk pooled": dict(threshold=1, disk=tmp_path / "pooled"),
        }
        for name, how in runs.items():
            assert self._run(schedule, monkeypatch, **how) == want, name


class TestTracedRunIsTheSameRun:
    """Tracing only observes: an engine run under ``Telemetry.enabled()``
    makes the same sweep, storage and pooled-flush calls as the bare run,
    in the same order, and leaves the same bytes."""

    N, L = 11, 5  # 64 ranks of 2**5 amplitudes

    @pytest.fixture(scope="class")
    def schedule(self):
        return schedule_circuit(
            generate_supremacy_circuit(self.N, 12, seed=2),
            SchedulerConfig(local_qubits=self.L, kmax=4, seed=1),
        )

    @pytest.fixture()
    def calls(self, monkeypatch):
        """Every ``split_sweep``, ``storage.sweep`` and pooled stage flush
        call, in order (``storage.sweep`` once :meth:`_run` wraps it)."""
        calls = []
        real_split = storage_module.split_sweep
        real_pooled = DiskShards._stream_pooled

        def split_spy(items):
            items = list(items)
            calls.append((
                "split_sweep",
                tuple((array.size, units) for _, array, units in items),
            ))
            return real_split(items)

        def pooled_spy(self, files, work, threads):
            calls.append(("stream_pooled", tuple(files), work, threads))
            return real_pooled(self, files, work, threads)

        monkeypatch.setattr(storage_module, "split_sweep", split_spy)
        monkeypatch.setattr(DiskShards, "_stream_pooled", pooled_spy)
        return calls

    def _run(self, schedule, storage, traced, calls):
        real_sweep = storage.sweep

        def sweep_spy(kernel_for, *, label="", overwrites=False):
            calls.append(("storage.sweep", label, overwrites))
            return real_sweep(kernel_for, label=label, overwrites=overwrites)

        storage.sweep = sweep_spy
        state = DistributedState.for_schedule(schedule, storage=storage)
        telemetry = Telemetry.enabled() if traced else None
        ExecutionEngine(
            schedule, telemetry=telemetry, state_factory=lambda: state
        ).run()
        shards = [state.storage.get(r).tobytes() for r in range(state.num_ranks)]
        if isinstance(storage, DiskShards):
            storage.close()
        run_calls = list(calls)
        calls.clear()
        return run_calls, shards

    @pytest.mark.parametrize(
        "backend", ["block", "arrays", "disk serial", "disk pooled"]
    )
    def test_same_calls_same_bytes(self, schedule, backend, calls, tmp_path,
                                   monkeypatch):
        ranks, size = 1 << (self.N - self.L), 1 << self.L
        if backend == "arrays":
            monkeypatch.setattr(storage_module, "_BLOCK_SHARD_BYTES", 0)
        if backend == "disk pooled":
            monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        runs = {}
        for traced in (False, True):
            if backend.startswith("disk"):
                storage = DiskShards(ranks, size, tmp_path / str(traced))
            else:
                storage = InMemoryShards(ranks, size)
            assert (storage._spans() == [range(ranks)]) == (backend == "block")
            runs[traced] = self._run(schedule, storage, traced, calls)
        (bare_calls, bare), (traced_calls, traced) = runs[False], runs[True]
        assert {call[0] for call in bare_calls} == {
            "block": {"storage.sweep", "split_sweep"},
            "arrays": {"storage.sweep", "split_sweep"},
            "disk serial": {"storage.sweep"},
            "disk pooled": {"storage.sweep", "stream_pooled"},
        }[backend]
        assert traced_calls == bare_calls
        assert traced == bare


class TestConcurrency:
    def test_sweep_from_a_pool_thread_runs_inline(self, monkeypatch):
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        outer, inner = {}, []

        def nested(item):
            outer[item] = threading.get_ident()
            run_split(lambda _: inner.append((item, threading.get_ident())),
                      range(4), 1 << 30)

        run_split(nested, range(2), 1 << 30)
        if kernels._pool:
            assert threading.get_ident() not in outer.values()
        assert len(inner) == 8
        for item, ident in inner:
            assert ident == outer[item]

    def test_blas_pinned_after_first_pooled_sweep(self):
        if kernels._CPUS < 2 or kernels.blas_threads() is None:
            pytest.skip("no second CPU or no OpenBLAS setter here")
        env = {
            name: value for name, value in os.environ.items()
            if name not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        }
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import numpy as np, repro.kernels.apply as k\n"
            "from repro.kernels.apply import blas_threads, split_sweep\n"
            "before = blas_threads()\n"
            "k.SPLIT_MIN_AMPLITUDES = 1\n"
            "split_sweep([(lambda a, i, j: a[i:j].fill(1), np.zeros(8), 8)])\n"
            "print(before, blas_threads())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )
        assert done.stdout.split()[1] == "1", done.stdout

    def test_service_runs_two_pooled_jobs_at_once(self, monkeypatch):
        """Two 22-qubit jobs (4 shards of 2**20: past the threshold) share
        the pool; each returns its serial fingerprint."""
        specs = [
            JobSpec(
                tenant="t", circuit=generate_supremacy_circuit(22, 6, seed=s),
                local_qubits=20, kmax=4, use_result_cache=False,
            )
            for s in (0, 1)
        ]

        async def fingerprints(max_workers):
            service = SimulationService(ServiceConfig(max_workers=max_workers))
            await service.start()
            try:
                jobs = [await service.submit(spec) for spec in specs]
                results = await asyncio.wait_for(
                    asyncio.gather(*(service.wait(job) for job in jobs)), 300
                )
            finally:
                await service.shutdown()
            return [result.fingerprint for result in results]

        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", SERIAL)
        serial = asyncio.run(fingerprints(1))
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1 << 20)
        assert asyncio.run(fingerprints(2)) == serial


class TestForkSafety:
    def test_forked_child_starts_its_own_pool(self, monkeypatch):
        """A forked child inherits no pool threads: its pooled sweeps go
        to a pool of its own (they would hang on the parent's)."""
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        run_split(lambda item: None, range(2), 1)  # the parent's pool
        pid = os.fork()
        if pid == 0:  # pragma: no cover - the child reports by exit code
            signal.alarm(60)
            try:
                seen = []
                run_split(seen.append, range(4), 1)
                os._exit(0 if sorted(seen) == [0, 1, 2, 3] else 1)
            finally:
                os._exit(2)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0


# ----------------------------------------------------------------------
# DiskShards' stage flush on the pool
# ----------------------------------------------------------------------
class _AllocationSpy:
    """Stands in for a module's ``np``, noting which threads call
    ``np.empty`` (the shard-sized allocations of storage and state)."""

    def __init__(self):
        self.threads = set()

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, *args, **kwargs):
        self.threads.add(threading.get_ident())
        return np.empty(*args, **kwargs)


def _pooled() -> bool:
    """Whether this host has a sweep pool at all (two CPUs, BLAS pin)."""
    return kernels.split_threads(2, kernels.SPLIT_MIN_AMPLITUDES) > 1


def _disk_run(schedule, directory, threshold, monkeypatch):
    """One traced engine run of *schedule* on disk shards; returns the
    final shards, the storage's I/O counters, the trace signature and the
    (closed) storage."""
    monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", threshold)
    n, l = schedule.num_qubits, schedule.local_qubits
    with DiskShards(1 << (n - l), 1 << l, directory) as disk:
        result = ExecutionEngine(
            schedule,
            layers=[PipelineLayer(depth=2)],
            telemetry=Telemetry.enabled(),
            state_factory=lambda: DistributedState.for_schedule(
                schedule, storage=disk
            ),
        ).run()
        shards = [np.array(disk.get(r)) for r in range(1 << (n - l))]
    return shards, dict(disk.io_stats), result.trace.signature(), disk


class TestPooledStageFlush:
    N, L = 10, 6

    @pytest.fixture(scope="class")
    def schedule(self):
        return schedule_circuit(
            generate_supremacy_circuit(self.N, 12, seed=2),
            SchedulerConfig(local_qubits=self.L, kmax=3, seed=2),
        )

    def test_pooled_equals_serial(self, schedule, tmp_path, monkeypatch):
        seen = set()
        sweep, permute = (DistributedState._sweep,
                          DistributedState._apply_local_bit_permutation)

        def sweep_spy(self, gate, bits, **kwargs):
            if any(bits[j] >= self.local_qubits for j in gate.controls):
                seen.add("global controls")
            before = self.layout
            sweep(self, gate, bits, **kwargs)
            if kwargs.get("closing") is not None:
                step = self.layout.plan_swap(kwargs["closing"])
                if before.plan_swap(kwargs["closing"]).transpositions:
                    assert not step.transpositions
                    seen.add("folded staging")

        def permute_spy(self, transpositions):
            if transpositions:
                seen.add("bit permutation")
            return permute(self, transpositions)

        monkeypatch.setattr(DistributedState, "_sweep", sweep_spy)
        monkeypatch.setattr(
            DistributedState, "_apply_local_bit_permutation", permute_spy
        )
        serial = _disk_run(schedule, tmp_path / "serial", SERIAL, monkeypatch)
        pooled = _disk_run(schedule, tmp_path / "pooled", 1, monkeypatch)
        # The schedule has what the flush must carry: swaps (their
        # staging folded into the sweep before them, l <= 12), overwrite-
        # init, ops with global controls, fused kernels.
        assert schedule.num_swaps == 2
        assert seen == {"global controls", "folded staging"}
        assert plan_for(schedule).summary()["fused_kernel_ops"]
        for got, want in zip(pooled[0], serial[0]):
            assert got.tobytes() == want.tobytes()
        assert pooled[2] == serial[2]
        pooled_io, serial_io = pooled[1], serial[1]
        for key in ("flushes", "shard_loads", "shard_stores", "bytes_read",
                    "bytes_written"):
            assert pooled_io[key] == serial_io[key], key
        assert serial_io["pooled_flushes"] == 0
        if _pooled():
            assert pooled_io["pooled_flushes"] == pooled_io["flushes"]
            assert pooled_io["read_aheads"] == 0 < serial_io["read_aheads"]

    def test_kernel_raising_on_rank_3_of_8(self, tmp_path, monkeypatch):
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)

        def kernel_of_rank(rank):
            def kernel(shard):
                if rank == 3:
                    raise FloatingPointError("bad amplitude")
                shard += 1

            return kernel

        def double(shard):
            shard *= 2

        disk = DiskShards(8, 8, tmp_path)
        for rank in range(8):
            disk.set(rank, np.full(8, rank + 1, dtype=np.complex128))
        sweep_ranks(disk, lambda r: double, label="first")
        sweep_ranks(disk, kernel_of_rank, label="dense k=2 bits=[0, 1]")
        with pytest.raises(FloatingPointError) as excinfo:
            disk.flush()
        (note,) = excinfo.value.__notes__
        assert "'dense k=2 bits=[0, 1]'" in note
        assert "rank 3" in note and "shard_000003.dat" in note
        assert 3 in disk._pending
        for f in range(8):
            raw = np.fromfile(tmp_path / f"shard_{f:06d}.dat", dtype=np.complex128)
            if f in disk._pending:  # untouched, its whole list pending
                assert len(disk._pending[f]) == 2
                assert np.array_equal(raw, np.full(8, f + 1)), f
            else:  # fully applied
                assert np.array_equal(raw, np.full(8, 2 * (f + 1) + 1)), f
        assert disk.io_stats["shard_stores"] == 8 - len(disk._pending)
        disk._pending.clear()
        disk.close()

    def test_many_threads_lose_no_update(self, tmp_path, monkeypatch):
        """More pool threads than cores and a tiny switch interval: every
        file is stored once, counted once, and holds every kernel."""
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(kernels, "_CPUS", 8)
        monkeypatch.setattr(kernels, "_pool", None)  # an 8-thread pool
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with DiskShards(64, 16, tmp_path) as disk:
                for rank in range(64):
                    disk.set(rank, np.full(16, rank, dtype=np.complex128))
                for _ in range(3):
                    sweep_ranks(disk, lambda r: _add_one)
                disk.flush()
                stats, pool = dict(disk.io_stats), kernels._pool
                assert not disk._pending and len(disk._written) == 64
                for rank in range(64):
                    assert np.array_equal(disk.get(rank), np.full(16, rank + 3))
        finally:
            sys.setswitchinterval(interval)
            if kernels._pool:
                kernels._pool.shutdown(wait=True)
                unregister_executor(kernels._pool)
        assert stats["shard_loads"] == stats["shard_stores"] == 64
        assert stats["pooled_flushes"] == (1 if pool else 0)

    def test_no_threads_or_buffers_left(self, schedule, tmp_path, monkeypatch):
        _, stats, _, disk = _disk_run(schedule, tmp_path, 1, monkeypatch)
        assert stats["pooled_flushes"] == (stats["flushes"] if _pooled() else 0)
        assert not disk._buffers
        names = [thread.name for thread in threading.enumerate()]
        assert not [name for name in names if name.startswith("repro-pipeline")]
        sweepers = [name for name in names if name.startswith("repro-sweep")]
        assert len(sweepers) <= kernels._CPUS

    def test_pool_threads_allocate_nothing(self, schedule, tmp_path, monkeypatch):
        """Staging buffers and the bit permutation's scratch are allocated
        on the calling thread and lent: a buffer a pool thread allocated
        would stay in its malloc arena."""
        spies = _AllocationSpy(), _AllocationSpy()
        monkeypatch.setattr(storage_module, "np", spies[0])
        monkeypatch.setattr(state_module, "np", spies[1])
        _disk_run(schedule, tmp_path / "run", 1, monkeypatch)
        # The schedule's stagings fold into its sweeps (l <= 12): run one
        # on the pooled flush directly.
        n, l = schedule.num_qubits, schedule.local_qubits
        with DiskShards(1 << (n - l), 1 << l, tmp_path / "staging") as disk:
            state = DistributedState(n, l, storage=disk, init="plus")
            state._apply_local_bit_permutation([(0, l - 1), (1, l - 2)])
            state.flush()
        assert spies[0].threads == spies[1].threads == {threading.get_ident()}


def _add_one(shard):
    shard += 1


class TestThreadNeutralKernels:
    def test_deferred_dense_kernel_runs_on_two_threads(self, tmp_path):
        """The kernel ``_sweep`` defers binds its panels on the thread
        that runs it: two threads on two shards at once give the serial
        bytes."""
        n, l = 17, 16
        with DiskShards(2, 1 << l, tmp_path) as disk:
            state = DistributedState(n, l, storage=disk, init=None)
            state._sweep(BlockGate.of(random_unitary(4, 3)), (1, 5, 9, 14))
            ((kernel, _, _),) = disk._pending[0]
            disk._pending.clear()
        amps = random_statevector(n, 5)
        shards = [amps[:1 << l].copy(), amps[1 << l:].copy()]
        want = [shard.copy() for shard in shards]
        for shard in want:
            for _ in range(4):
                kernel(shard)
        start = threading.Barrier(2, timeout=60)

        def run(shard):
            start.wait()
            for _ in range(4):
                kernel(shard)

        with ThreadPoolExecutor(2) as pool:
            list(pool.map(run, shards, timeout=60))
        for got, expected in zip(shards, want):
            assert got.tobytes() == expected.tobytes()

    def test_bit_permutation_lends_its_scratch(self, monkeypatch):
        """Pooled over in-memory shards, the permutation's scratch comes
        from the calling thread, one buffer per pool thread."""
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        state = _state(10, 7, 4, by_shard=False)
        serial = _state(10, 7, 4, by_shard=False)
        spy = _AllocationSpy()
        monkeypatch.setattr(state_module, "np", spy)
        state._apply_local_bit_permutation([(0, 5), (2, 6), (1, 3)])
        assert spy.threads == {threading.get_ident()}
        monkeypatch.setattr(state_module, "np", np)
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", SERIAL)
        serial._apply_local_bit_permutation([(0, 5), (2, 6), (1, 3)])
        for r in range(state.num_ranks):
            assert state.storage.get(r).tobytes() == serial.storage.get(r).tobytes()
