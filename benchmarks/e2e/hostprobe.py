"""Host description and bandwidth/kernel probes (run in their own child).

The probes give the traced pass its roofline: ``kernels.eff_gbps`` is
read against ``host.memcpy_gbps`` measured in the same invocation.
Arrays are 1.25 GiB each, more than four times the 264 MiB of L2 + L3,
so the copies stream from DRAM.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

PROBE_BYTES = 1280 << 20  # 1.25 GiB per array
PROBE_REPEATS = 3
KERNEL_PROBE_QUBITS = 24


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def _cache_sizes() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        size = _read(str(index / "size"))
        if level and size:
            out[f"L{level}{'i' if kind == 'Instruction' else 'd' if kind == 'Data' else ''}"] = size
    return out


def _blas_info() -> tuple[str, int]:
    """BLAS build and the thread cap the driver put in the environment."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = int(os.environ.get("OPENBLAS_NUM_THREADS", "0") or 0)
    return f"{blas.get('name', '?')} {blas.get('version', '?')}", threads


def host_block() -> dict:
    """What every result is stamped with (cheap; no measurement)."""
    from repro.kernels import DEFAULT_CHUNK
    from repro.plan import DEFAULT_FUSION_KMAX

    blas, blas_threads = _blas_info()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "caches": _cache_sizes(),
        "mem_total_kib": next(
            (
                int(line.split()[1])
                for line in _read("/proc/meminfo").splitlines()
                if line.startswith("MemTotal")
            ),
            0,
        ),
        "thp": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "numpy_madvise_hugepage": os.environ.get(
            "NUMPY_MADVISE_HUGEPAGE", "default"
        ),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "default_chunk": DEFAULT_CHUNK,
        "default_fusion_kmax": DEFAULT_FUSION_KMAX,
    }


def _median_seconds(fn, repeats=PROBE_REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def bandwidth_probes() -> dict:
    # Two arrays, not STREAM's three: first touch of guest memory the
    # hypervisor has reclaimed costs ~3 s/GiB here, and 2.5 GiB already
    # is ten times the last-level caches.
    count = PROBE_BYTES // 8
    a = np.ones(count)
    c = np.ones(count)
    memcpy_s = _median_seconds(lambda: np.copyto(a, c))

    def triad():
        # a = c + s*c in two numpy passes: 2 + 3 array transits.
        np.multiply(c, 3.0, out=a)
        np.add(a, c, out=a)

    triad_s = _median_seconds(triad)
    del a, c
    m = 1536
    x = np.ones((m, m))
    y = np.ones((m, m))
    dgemm_s = _median_seconds(lambda: x @ y)
    return {
        "host.memcpy_gbps": 2 * PROBE_BYTES / memcpy_s / 1e9,
        "host.triad_gbps": 5 * PROBE_BYTES / triad_s / 1e9,
        "host.dgemm_gflops": 2 * m**3 / dgemm_s / 1e9,
    }


def kernel_probes() -> dict:
    """``repro.kernels`` called directly on a 2**24-amplitude array.

    A read and a write of every amplitude per call (tables not counted),
    so the numbers compare with ``host.memcpy_gbps``.
    """
    from repro.gates.matrices import random_unitary
    from repro.kernels import apply_diagonal_gate, apply_gate

    n = KERNEL_PROBE_QUBITS
    state = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    moved = 2 * state.nbytes
    rng = np.random.default_rng(0)
    out = {}
    cases = {
        "dense_k1_lo": [0],
        "dense_k1_hi": [n - 1],
        "dense_k4_lo": [0, 1, 2, 3],
        "dense_k4_hi": [n - 4, n - 3, n - 2, n - 1],
    }
    for name, qubits in cases.items():
        matrix = random_unitary(len(qubits), rng)
        apply_gate(state, matrix, qubits, diagonal=False)  # builds tables
        seconds = _median_seconds(
            lambda m=matrix, q=qubits: apply_gate(state, m, q, diagonal=False)
        )
        out[f"kernels.probe.{name}_gbps"] = moved / seconds / 1e9
    diag = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
    apply_diagonal_gate(state, diag, [3, n - 2])
    seconds = _median_seconds(lambda: apply_diagonal_gate(state, diag, [3, n - 2]))
    out["kernels.probe.diag_gbps"] = moved / seconds / 1e9
    return out


def run_probe() -> dict:
    metrics = {**bandwidth_probes(), **kernel_probes()}
    host = host_block()
    metrics["host.nproc"] = host["nproc"]
    metrics["host.blas_threads"] = host["blas_threads"]
    return {
        "metrics": metrics,
        "probe_array_bytes": PROBE_BYTES,
        "kernel_probe_qubits": KERNEL_PROBE_QUBITS,
    }
