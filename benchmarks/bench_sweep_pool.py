"""Node-level threads (the paper's OpenMP layer, Sec. 3.3): serial vs pooled sweeps.

The sweep pool (:func:`repro.kernels.apply.split_sweep`) cuts a large sweep
into one piece per CPU.  This bench measures, in one process and
alternating so host drift lands on both sides:

* the **crossover**: a k = 4 dense sweep and a two-qubit phase multiply
  on one array of 2**16 .. 2**24 amplitudes, serial against split in
  two — where :data:`repro.kernels.apply.SPLIT_MIN_AMPLITUDES` comes from;
* the **ladder**: serial vs pooled seconds per k (1, 2, 4, 6) at 2**18,
  2**20, 2**22 and 2**24 amplitudes;
* the **stage flush**: ``DiskShards``' flush of 8 files of 2**16 ..
  2**20 amplitudes with 1, 2, 4 or 16 k = 4 kernels pending on each, on
  this thread against whole files on the pool — where the flush's use
  of the threshold (a file's amplitudes times its passes: load, pending
  kernels, store) comes from.

Pooled and serial results are compared byte for byte.  Forcing either
side patches the threshold constant; nothing else changes.
"""

from __future__ import annotations

import hashlib
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import repro.kernels.apply as kernels
from repro.distributed import DiskShards
from repro.gates import random_unitary
from repro.kernels import DenseSweep, apply_diagonal_factor
from repro.kernels.apply import blas_threads, split_sweep
from repro.kernels.tables import _build_diagonal_factor

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
    return state, lambda: split_sweep([(sweep.apply, state, sweep.num_blocks)])


def _diagonal(n: int):
    """A phase multiply on qubits (3, l-2) of a block of 16 shards."""
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    l = n - 4
    factor = _build_diagonal_factor(np.exp(1j * np.arange(4.0)), (3, l - 2), l)

    def part(array, start, stop):
        apply_diagonal_factor(array.reshape(-1, 1 << l)[start:stop], factor)

    return state, lambda: split_sweep([(part, state, 16)])


def _bit_identical(n: int, k: int) -> bool:
    results = []
    for threshold in (SERIAL, POOLED):
        state, run = _dense(n, k)
        state[:] = np.random.default_rng(n).standard_normal(1 << n)
        _timed(run, threshold)
        results.append(state)
    return bool(np.array_equal(*results))


#: Files of the stage-flush rows: several per CPU.
FLUSH_FILES = 8


def _flush_digest(disk: DiskShards) -> str:
    digest = hashlib.sha256()
    for rank in range(disk.num_shards):
        digest.update(np.asarray(disk.get(rank)).tobytes())
    return digest.hexdigest()


def _stage_flush() -> tuple[list[str], bool]:
    """Serial vs pooled stage flush per shard size and pending kernels."""
    kernel_counts = (1, 2, 4, 16)
    lines = [
        f"stage flush of {FLUSH_FILES} files: serial ms / pooled ms (ratio);"
        " * where the threshold pools",
        f"{'amplitudes':>12}"
        + "".join(f"{str(m) + ' pending':>28}" for m in kernel_counts),
    ]
    same = True
    rng = np.random.default_rng(0)
    for l in range(16, 21):
        sweep = DenseSweep(l, random_unitary(4, 1), (1, 5, l - 6, l - 1),
                           np.complex128)
        row = f"{'2**' + str(l):>12}"
        with tempfile.TemporaryDirectory() as scratch:
            disks = {
                threshold: DiskShards(FLUSH_FILES, 1 << l, Path(scratch) / name)
                for name, threshold in (("serial", SERIAL), ("pooled", POOLED))
            }
            for rank in range(FLUSH_FILES):
                data = rng.standard_normal(1 << l).astype(np.complex128)
                for disk in disks.values():
                    disk.set(rank, data)
            for m in kernel_counts:
                samples = {threshold: [] for threshold in disks}
                for _ in range(1 + REPEATS):  # first pair: warm-up
                    for threshold, disk in disks.items():
                        for _ in range(m):
                            disk.sweep(
                                lambda ranks: (sweep.apply, sweep.num_blocks)
                            )
                        samples[threshold].append(_timed(disk.flush, threshold))
                serial, pooled = (
                    statistics.median(samples[t][1:]) for t in (SERIAL, POOLED)
                )
                passes = m + 2  # load, kernels, store
                mark = "*" if passes << l >= kernels.SPLIT_MIN_AMPLITUDES else " "
                row += (f" {serial * 1e3:9.2f} /{pooled * 1e3:8.2f}"
                        f" ({pooled / serial:4.2f}){mark}")
            digests = {_flush_digest(disk) for disk in disks.values()}
            same = same and len(digests) == 1
            for disk in disks.values():
                disk.close()
        lines.append(row)
    lines.append(f"  flushed files bit-identical: {same}")
    return lines, same


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

    flush_lines, flush_same = _stage_flush()
    lines += ["", *flush_lines]
    same = same and flush_same
    report_writer("sweep_pool", lines)
    assert same
