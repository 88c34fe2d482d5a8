"""Kernel microbenchmarks on this host (pytest-benchmark timings).

Times the table-free dense sweep for k = 1..5 on a 2**20-amplitude
state, the diagonal fast path, and the strided-access penalty of
high-order targets.  The default blocking chunk these sweeps would use
is a constant in the source (``repro.kernels.DEFAULT_CHUNK``, scaled per
gate width by ``repro.kernels.chunk_for``); the benches here pin
``chunk_size`` so their numbers stay comparable across changes to it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gates import random_unitary
from repro.kernels import apply_diagonal_gate, apply_gate_indexed
from repro.util.rng import random_statevector

_N = 20


@pytest.fixture(scope="module")
def state():
    return random_statevector(_N, 0).copy()


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def bench_indexed_kernel(benchmark, state, k):
    u = random_unitary(k, 0)
    qubits = tuple(range(k))
    benchmark(apply_gate_indexed, state, u, qubits, chunk_size=1 << 14)


def bench_diagonal_kernel(benchmark, state):
    diag = np.exp(1j * np.random.default_rng(0).standard_normal(4))
    benchmark(apply_diagonal_gate, state, diag, (3, 11))


def bench_high_order_stride_penalty(benchmark, state):
    """The Fig. 6/9 effect as a raw host measurement."""
    u = random_unitary(4, 0)
    benchmark(
        apply_gate_indexed, state, u, tuple(range(_N - 4, _N)), chunk_size=1 << 14
    )
