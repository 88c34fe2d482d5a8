"""The distributed state on the sweep pool: same bits, no hangs.

Every in-memory write — the dense and diagonal ops of ``_apply_local``
over the local block or the resident shards, and whatever goes through
``ShardStorage.sweep`` (init, global diagonals, monomial renumbering,
local bit swaps) — must leave the same bytes pooled as forced serial.
Forcing either side patches ``SPLIT_MIN_AMPLITUDES``.
"""

from __future__ import annotations

import asyncio
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.kernels.apply as kernels
from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator, DistributedState
from repro.distributed import multiproc
from repro.distributed.multiproc import MultiprocessRunner
from repro.gates import Gate, random_unitary
from repro.kernels.apply import run_split
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.service import JobSpec, ServiceConfig, SimulationService
from repro.util.rng import random_statevector

SERIAL = 1 << 62
OPS = ("dense", "diagonal", "diagonal_global", "monomial_global", "local_swap")


def _state(n, l, seed, per_rank) -> DistributedState:
    state = DistributedState(n, l, init="plus")
    amps = random_statevector(n, seed)
    for r in range(state.num_ranks):
        state.storage.get(r)[:] = amps[r << l:(r + 1) << l]
    if per_rank:
        state.storage.local_block = lambda: None
    return state


def _apply(state, op, bits, seed) -> None:
    l, k = state.local_qubits, len(bits)
    rng = np.random.default_rng(seed)
    top = state.num_qubits - 1  # a global qubit (identity layout)
    if op == "dense":
        state._apply_local(random_unitary(k, rng), bits, diagonal=False)
    elif op == "diagonal":
        diag = np.exp(1j * rng.uniform(0, 6, 1 << k))
        state._apply_local(None, bits, diagonal=True, diag=diag)
    elif op == "diagonal_global":
        state.apply_gate(Gate("cz", (bits[0], top)))
    elif op == "monomial_global":
        state.apply_gate(Gate("cnot", (top, bits[0])))
        state.apply_gate(Gate("x", (l,)))
    else:
        state._apply_local_bit_permutation(list(zip(bits, bits[1:])))
        state._swap_local_bits(bits[0], bits[-1])


def _run(threshold, n, l, per_rank, op, bits, seed) -> list[np.ndarray]:
    saved = kernels.SPLIT_MIN_AMPLITUDES
    kernels.SPLIT_MIN_AMPLITUDES = threshold
    try:
        state = _state(n, l, seed, per_rank)
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
    def test_byte_for_byte(self, case, op, per_rank, cpus, seed):
        n, l, bits = case
        saved = kernels._CPUS
        kernels._CPUS = cpus
        try:
            pooled = _run(1, n, l, per_rank, op, bits, seed)
        finally:
            kernels._CPUS = saved
        serial = _run(SERIAL, n, l, per_rank, op, bits, seed)
        for got, want in zip(pooled, serial):
            assert got.tobytes() == want.tobytes()

    def test_init_is_pooled(self, monkeypatch):
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        seen = set()
        real = kernels.run_split

        def spy(work, items, amplitudes):
            seen.add(amplitudes)
            return real(work, items, amplitudes)

        monkeypatch.setattr("repro.distributed.storage.run_split", spy)
        state = DistributedState(6, 4, init="zero")
        assert seen == {1 << 4}
        assert state.storage.get(0)[0] == 1 and state.norm() == 1


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
            "split_sweep(lambda a, i, j: a[i:j].fill(1), [np.zeros(8)], 8)\n"
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
    @pytest.mark.parametrize("workers", [2, 1])
    def test_multiprocess_run_after_the_pool_was_used(self, monkeypatch, workers):
        """A forked worker inherits no pool threads; with one worker its
        sweeps go to a pool of its own (they would hang on a dead one)."""
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)
        monkeypatch.setattr(multiproc, "_worker_count", lambda ranks: workers)
        n, l = 12, 8
        schedule = schedule_circuit(
            generate_supremacy_circuit(n, 10, seed=2),
            SchedulerConfig(local_qubits=l, kmax=4, seed=1),
        )
        want = DistributedSimulator(n, l).run_schedule(schedule)  # pooled
        got = MultiprocessRunner(n, l).run_schedule(schedule)
        assert np.array_equal(got.data, want.state.to_statevector().data)
