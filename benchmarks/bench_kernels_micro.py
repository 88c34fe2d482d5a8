"""Kernel microbenchmarks on this host (pytest-benchmark timings).

Times the table-free dense sweep for k = 1..5 on a 2**20-amplitude
state, the diagonal fast path, the strided-access penalty of
high-order targets, and block-diagonal gates: (k, d) rows for k = 4
with d = 0..3 controls and k = 6 with d = 3, each on one windowed and
one slab target set.  The default blocking chunk these sweeps would use
is a constant in the source (``repro.kernels.DEFAULT_CHUNK``, scaled per
gate width by ``repro.kernels.chunk_for``); the benches here pin
``chunk_size`` so their numbers stay comparable across changes to it.

Run as a script, it re-measures the refuse pass's cost table
(``_SWEEP_NS`` in ``repro/plan/passes.py``) and prints it in the
source's format, each entry the median over :data:`ROUNDS` interleaved
rounds with its min-max on a comment line (~6 min)::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python benchmarks/bench_kernels_micro.py
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.gates import random_unitary
from repro.kernels import apply_diagonal_gate, apply_gate_indexed
from repro.kernels.apply import DenseSweep, apply_diagonal_factor, sweep_order
from repro.kernels.blocks import BlockGate
from repro.kernels.tables import _build_diagonal_factor
from repro.util.rng import random_statevector

_N = 20

#: (k, d) -> (windowed targets, slab targets); the last d gate bits are
#: the controls.
_STRUCTURED = {
    (4, 0): ((1, 3, 5, 8), (14, 2, 17, 19)),
    (4, 1): ((1, 3, 5, 8), (14, 2, 17, 19)),
    (4, 2): ((1, 3, 5, 8), (14, 2, 17, 19)),
    (4, 3): ((1, 3, 5, 8), (14, 2, 17, 19)),
    (6, 3): ((1, 4, 9, 10, 14, 17), (14, 1, 4, 9, 17, 19)),
}


@pytest.fixture(scope="module")
def state():
    return random_statevector(_N, 0).copy()


def _block_gate(k: int, d: int, rng) -> BlockGate:
    blocks = np.stack([random_unitary(k - d, rng) for _ in range(1 << d)])
    return BlockGate(k, tuple(range(k - d, k)), blocks)


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


@pytest.mark.parametrize("scheme", ["window", "slab"])
@pytest.mark.parametrize("kd", sorted(_STRUCTURED), ids=lambda kd: "k%dd%d" % kd)
def bench_structured_kernel(benchmark, state, kd, scheme):
    """A k-qubit gate with d controls: 2**d blocks of a 2**(k-d) gate."""
    k, d = kd
    qubits = _STRUCTURED[kd][scheme == "slab"]
    sweep = DenseSweep(_N, _block_gate(k, d, np.random.default_rng(k)), qubits,
                       state.dtype)
    assert (sweep.dense_bits, sweep.controls, sweep._windowed) == (
        k - d, d, scheme == "window"
    )
    benchmark(sweep.apply, state)


def sweep_ns(l: int, shards: int, m: int, d: int, *, sets=12, reps=3) -> float:
    """Median ns per amplitude of one sweep of *shards* shards of
    ``2**l`` amplitudes: a diagonal (``m = 0``) or ``2**d`` blocks of an
    ``m``-bit gate, over *sets* random placements (best of *reps*).  A
    dense sweep is the one a distributed state runs: written back in its
    panel's order (:func:`~repro.kernels.apply.sweep_order`)."""
    rng = np.random.default_rng(0)
    arrays = [np.ones(1 << l, complex) for _ in range(shards)]
    times = []
    for _ in range(sets):
        qubits = tuple(int(q) for q in rng.permutation(l)[:m + d])
        if m == 0:
            factor = _build_diagonal_factor(
                np.exp(1j * rng.random(1 << d)), qubits, l
            )
            run = lambda a: apply_diagonal_factor(a, factor)  # noqa: E731
        else:
            gate = _block_gate(m + d, d, rng)
            order = sweep_order(gate, qubits, l)
            run = DenseSweep(l, gate, qubits, complex, order=order).apply
        for a in arrays:
            run(a)
        best = []
        for _ in range(reps):
            start = time.perf_counter()
            for a in arrays:
                run(a)
            best.append(time.perf_counter() - start)
        times.append(min(best))
    return float(np.median(times)) / (shards << l) * 1e9


#: The ladder's rows: one warm ``2**14`` / ``2**18`` shard
#: (cache-resident), four ``2**22`` shards streamed from DRAM.
LADDER = ((14, 1), (18, 1), (22, 4))
#: Rounds of the script mode; each times every configuration once.
ROUNDS = 5


def ladder_row(l: int, shards: int) -> tuple[float, np.ndarray, float]:
    """One sample of a ``_SWEEP_NS`` row: the diagonal, the dense sweep of
    ``m = 1..8`` (made non-decreasing in ``m``), and the median cost of one
    control bit over ``d = 1..3``; six placements each, timed once."""

    def ns(m, d):
        return sweep_ns(l, shards, m, d, sets=6, reps=1)

    dense = np.maximum.accumulate([ns(m, 0) for m in range(1, 9)])
    per_control = float(np.median([
        (ns(m, d) - dense[m - 1]) / d
        for m in range(1, 9) for d in range(1, min(3, 8 - m) + 1)
    ]))
    return ns(0, 2), dense, per_control


if __name__ == "__main__":
    # Rows and rounds interleave in one process, so drift lands on every
    # configuration alike; each entry prints as the median over rounds,
    # with the min-max on the comment line below it.
    samples = {row: [] for row in LADDER}
    for _ in range(ROUNDS):
        for row in LADDER:
            samples[row].append(ladder_row(*row))
    print(f"# median over {ROUNDS} interleaved rounds; min-max below")
    for (l, _), rounds in samples.items():
        diagonal = [r[0] for r in rounds]
        dense = np.array([r[1] for r in rounds])
        per_control = [r[2] for r in rounds]
        print(f"    {l}: ({np.median(diagonal):.2g}, "
              f"({', '.join(f'{x:.1f}' for x in np.median(dense, axis=0))}), "
              f"{np.median(per_control):.1f}),")
        spans = ", ".join(
            f"{lo:.1f}-{hi:.1f}" for lo, hi in zip(dense.min(0), dense.max(0))
        )
        print(f"    #   ({min(diagonal):.2g}-{max(diagonal):.2g}, ({spans}), "
              f"{min(per_control):.1f}-{max(per_control):.1f})", flush=True)
