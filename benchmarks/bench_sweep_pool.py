"""Node-level threads (the paper's OpenMP layer, Sec. 3.3): serial vs pooled sweeps.

The sweep pool (:func:`repro.kernels.apply.split_sweep`) cuts a large sweep
into one piece per CPU.  This bench measures, in one process and
alternating so host drift lands on both sides:

* the **crossover**: a k = 4 dense sweep and a two-qubit phase multiply
  on one array of 2**16 .. 2**24 amplitudes, serial against split in
  two — where :data:`repro.kernels.apply.SPLIT_MIN_AMPLITUDES` comes from;
* the **ladder**: serial vs pooled seconds per k (1, 2, 4, 6) at 2**18,
  2**20, 2**22 and 2**24 amplitudes;
* the two ways to use the CPUs on the ``dense_24q`` shape (24 qubits,
  4 ranks of 2**22, depth 4): :class:`~repro.distributed.multiproc.
  MultiprocessRunner` (forked workers, serial sweeps) against the pooled
  in-process run.

Pooled and serial results are compared byte for byte.  Forcing either
side patches the threshold constant; nothing else changes.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

import repro.kernels.apply as kernels
from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.distributed.multiproc import MultiprocessRunner, _worker_count
from repro.gates import random_unitary
from repro.kernels import DenseSweep, apply_diagonal_factor
from repro.kernels.apply import blas_threads, split_sweep
from repro.kernels.tables import _build_diagonal_factor
from repro.scheduling import SchedulerConfig, schedule_circuit

SERIAL, POOLED = 1 << 62, 1
REPEATS = 9
#: Amplitudes swept per timed sample: small sweeps are repeated.
SAMPLE_AMPLITUDES = 1 << 23


def _timed(fn, threshold: int, calls: int = 1) -> float:
    """Seconds per call of *fn* with the split threshold at *threshold*."""
    saved = kernels.SPLIT_MIN_AMPLITUDES
    kernels.SPLIT_MIN_AMPLITUDES = threshold
    try:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls
    finally:
        kernels.SPLIT_MIN_AMPLITUDES = saved


def _ab(fn, n: int) -> tuple[float, float]:
    """Median serial and pooled seconds per sweep of 2**n amplitudes,
    alternating after a warm pair."""
    calls = max(1, SAMPLE_AMPLITUDES >> n)
    _timed(fn, SERIAL), _timed(fn, POOLED)
    serial, pooled = [], []
    for _ in range(REPEATS):
        serial.append(_timed(fn, SERIAL, calls))
        pooled.append(_timed(fn, POOLED, calls))
    return statistics.median(serial), statistics.median(pooled)


def _dense(n: int, k: int):
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    qubits = tuple(range(0, n, n // k))[:k]  # low and high targets
    sweep = DenseSweep(n, random_unitary(k, 0), qubits, state.dtype)
    return state, lambda: split_sweep(sweep.apply, [state], sweep.num_blocks)


def _diagonal(n: int):
    """A phase multiply on qubits (3, l-2) of a block of 16 shards."""
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    l = n - 4
    factor = _build_diagonal_factor(np.exp(1j * np.arange(4.0)), (3, l - 2), l)

    def part(array, start, stop):
        apply_diagonal_factor(array.reshape(-1, 1 << l)[start:stop], factor)

    return state, lambda: split_sweep(part, [state], 16)


def _bit_identical(n: int, k: int) -> bool:
    results = []
    for threshold in (SERIAL, POOLED):
        state, run = _dense(n, k)
        state[:] = np.random.default_rng(n).standard_normal(1 << n)
        _timed(run, threshold)
        results.append(state)
    return bool(np.array_equal(*results))


def bench_sweep_pool(report_writer):
    lines = [
        f"CPUs {kernels._CPUS}; BLAS threads after the pool started: "
        "{blas}",
        "",
        "crossover (one array, split in two): serial ms / pooled ms (ratio)",
        f"{'amplitudes':>12} {'dense k=4':>26} {'phase multiply':>26}",
    ]
    for n in range(16, 25):
        _, run = _dense(n, 4)
        ds, dp = _ab(run, n)
        _, run = _diagonal(n)
        gs, gp = _ab(run, n)
        lines.append(
            f"{'2**' + str(n):>12} {ds * 1e3:9.2f} /{dp * 1e3:8.2f} ({dp / ds:4.2f})"
            f" {gs * 1e3:9.2f} /{gp * 1e3:8.2f} ({gp / gs:4.2f})"
        )
    lines += ["", "ladder: serial ms / pooled ms (ratio)",
              f"{'amplitudes':>12}" + "".join(f"{'k=' + str(k):>26}" for k in (1, 2, 4, 6))]
    for n in (18, 20, 22, 24):
        row = f"{'2**' + str(n):>12}"
        for k in (1, 2, 4, 6):
            _, run = _dense(n, k)
            serial, pooled = _ab(run, n)
            row += f" {serial * 1e3:9.2f} /{pooled * 1e3:8.2f} ({pooled / serial:4.2f})"
        lines.append(row)
    same = all(_bit_identical(n, k) for n in (18, 22) for k in (1, 4, 6))
    lines += ["", f"pooled == serial byte for byte: {same}"]
    lines[0] = lines[0].format(blas=blas_threads())

    # The two ways to use the CPUs on the dense_24q shape.
    schedule = schedule_circuit(
        generate_supremacy_circuit(24, 4, seed=0),
        SchedulerConfig(local_qubits=22, kmax=4, seed=1),
    )
    runner = MultiprocessRunner(24, 22)

    def in_process():
        state = DistributedSimulator(24, 22).run_schedule(schedule).state
        return state.to_statevector().data

    variants = {
        "in-process, serial sweeps": (in_process, SERIAL),
        "in-process, pooled sweeps": (in_process, POOLED),
        f"MultiprocessRunner, {_worker_count(runner.num_ranks)} workers": (
            lambda: runner.run_schedule(schedule).data, SERIAL
        ),
    }
    seconds = {name: [] for name in variants}
    digests = set()
    for _ in range(3):
        for name, (run, threshold) in variants.items():
            saved = kernels.SPLIT_MIN_AMPLITUDES
            kernels.SPLIT_MIN_AMPLITUDES = threshold
            try:
                start = time.perf_counter()
                data = run()
                seconds[name].append(time.perf_counter() - start)
            finally:
                kernels.SPLIT_MIN_AMPLITUDES = saved
            digests.add(hashlib.sha256(data).hexdigest())
            del data
    same = same and len(digests) == 1
    lines += ["", "dense_24q shape: init + run + gather, median of 3 (s)"]
    lines += [f"  {name:<30} {statistics.median(v):.3f}" for name, v in seconds.items()]
    lines.append(f"  all bit-identical: {len(digests) == 1}")
    report_writer("sweep_pool", lines)
    assert same
