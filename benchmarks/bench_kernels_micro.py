"""Kernel microbenchmarks on this host (pytest-benchmark timings).

Times the k-qubit kernel strategies on a 2**20-amplitude state: the
table-free dense sweep (with the autotuner's preferred blocking), the
generated specialized kernels, and the diagonal fast path.  These are
the numbers the autotuner's feedback loop selects between (Sec. 3.2's
code-generation/benchmarking loop).  The autotune record's winning
``indexed[chunk=N]`` is what ``repro.kernels.DEFAULT_CHUNK`` reads back,
so it is tuned on a 4-qubit gate — the scheduler's cluster width, and
the width the plan compiler scales other widths' chunks from.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen import AutoTuner, generated_kernel
from repro.gates import random_unitary
from repro.kernels import apply_diagonal_gate, apply_gate_indexed
from repro.util.rng import random_statevector

_N = 20

#: The autotuned shape: a kmax=4 cluster spread over low and high bits.
_TUNE_QUBITS = (9, 12, 13, 17)
#: A diagonal on two of them for the diagonal-mode pool.
_TUNE_DIAG_QUBITS = (9, 17)


@pytest.fixture(scope="module")
def state():
    return random_statevector(_N, 0).copy()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def bench_indexed_kernel(benchmark, state, k):
    u = random_unitary(k, 0)
    qubits = tuple(range(k))
    benchmark(apply_gate_indexed, state, u, qubits, chunk_size=1 << 14)


@pytest.mark.parametrize("k", [1, 2, 4])
def bench_generated_kernel(benchmark, state, k):
    qubits = tuple(range(0, 2 * k, 2))
    fn, _src = generated_kernel(_N, qubits)
    u = random_unitary(k, 0)
    benchmark(fn, state, u)


def bench_diagonal_kernel(benchmark, state):
    diag = np.exp(1j * np.random.default_rng(0).standard_normal(4))
    benchmark(apply_diagonal_gate, state, diag, (3, 11))


def bench_high_order_stride_penalty(benchmark, state):
    """The Fig. 6/9 effect as a raw host measurement."""
    u = random_unitary(4, 0)
    benchmark(
        apply_gate_indexed, state, u, tuple(range(_N - 4, _N)), chunk_size=1 << 14
    )


def bench_autotuned_kernel(benchmark, state, report_writer, bench_record):
    tuner = AutoTuner(repeats=5)
    result = tuner.tune(_N, _TUNE_QUBITS)
    diag_result = tuner.tune(_N, _TUNE_DIAG_QUBITS, diagonal=True)
    rows = [f"autotune (n={_N}, qubits={_TUNE_QUBITS}) winner: {result.strategy}"]
    for label, seconds in sorted(result.timings.items(), key=lambda kv: kv[1]):
        rows.append(f"  {label:<24} {seconds * 1e3:8.3f} ms")
    rows.append(f"diagonal-mode winner: {diag_result.strategy}")
    for label, seconds in sorted(
        diag_result.timings.items(), key=lambda kv: kv[1]
    ):
        rows.append(f"  {label:<24} {seconds * 1e3:8.3f} ms")
    report_writer("kernels_autotune", rows)
    bench_record(
        "kernels_autotune",
        seconds=min(result.timings.values()),
        params={"qubits": _N, "gate_qubits": list(_TUNE_QUBITS)},
        metrics={
            "winner": result.strategy,
            "diagonal_winner": diag_result.strategy,
            **{label: seconds for label, seconds in result.timings.items()},
            **{
                f"diagonal/{label}": seconds
                for label, seconds in diag_result.timings.items()
            },
        },
    )
    u = random_unitary(len(_TUNE_QUBITS), 0)
    kernel = tuner.best_kernel(_N, _TUNE_QUBITS)
    benchmark(kernel, state, u)
