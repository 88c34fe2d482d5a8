"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import Circuit, generate_supremacy_circuit
from repro.distributed import InMemoryShards
from repro.distributed import storage as storage_module
from repro.gates import Gate, random_unitary
from repro.kernels import apply_gate_reference
from repro.util.rng import random_statevector

#: The one error budget against :func:`oracle_state`: *gates* gates run
#: in dtype ``D`` may leave any amplitude at most ``ORACLE_BUDGET *
#: eps(D) * gates`` from the oracle's.  The largest ratio measured over
#: the oracle tests is 0.82 (4,000 random gates of k <= 3 on n <= 10
#: qubits, where amplitudes are largest); circuits read far below it.
ORACLE_BUDGET = 4.0


def oracle_state(gates, n: int, state=None) -> np.ndarray:
    """The amplitudes *gates* leave on *n* qubits, from ``|0...0>`` or
    from the amplitudes *state*: ``apply_gate_reference`` (a tensordot)
    gate by gate on an ``np.clongdouble`` vector.

    It shares no code and no rounding order with the production kernels
    (``DenseSweep``, ``BlockGate``, the phase multiply and its factor
    cache), numpy runs a long-double tensordot without BLAS, and on
    x86-64 it rounds at eps 1.1e-19: what it differs by from a complex128
    run is that run's own error.
    """
    psi = np.zeros(1 << n, dtype=np.clongdouble)
    if state is None:
        psi[0] = 1
    else:
        psi[:] = state
    for gate in gates:
        apply_gate_reference(psi, gate.matrix, gate.qubits)
    return psi


def oracle_ratio(got, oracle: np.ndarray, gates: int) -> float:
    """``max|got - oracle|`` in units of ``eps(got.dtype) * gates``: the
    budget holds when it is at most :data:`ORACLE_BUDGET`.  *got* is an
    amplitude array or a ``StateVector``."""
    got = np.asarray(getattr(got, "data", got))
    err = np.max(np.abs(got.astype(np.clongdouble) - oracle))
    return float(err / (np.finfo(got.dtype).eps * gates))


def assert_oracle(got, oracle: np.ndarray, gates: int) -> None:
    """*got* is within the budget of *oracle*, after *gates* gates."""
    ratio = oracle_ratio(got, oracle, gates)
    assert ratio <= ORACLE_BUDGET, (
        f"max|err| = {ratio:.3g} eps x {gates} gates, over the budget of "
        f"{ORACLE_BUDGET:g}"
    )


def shards_apart(num_shards: int, shard_size: int, **kwargs) -> InMemoryShards:
    """``InMemoryShards`` with every shard in an array of its own, as it
    keeps shards past 128 KiB, whatever their size: one span per rank."""
    saved = storage_module._BLOCK_SHARD_BYTES
    storage_module._BLOCK_SHARD_BYTES = 0
    try:
        return InMemoryShards(num_shards, shard_size, **kwargs)
    finally:
        storage_module._BLOCK_SHARD_BYTES = saved


def sweep_ranks(storage, kernel_of_rank, **kwargs) -> None:
    """``storage.sweep`` with one kernel per rank: ``kernel_of_rank(r)``
    runs in place on rank ``r``'s shard, or is ``None`` to leave it alone
    (a span whose ranks all are is left alone)."""

    def kernel_for(ranks):
        kernels = [kernel_of_rank(rank) for rank in ranks]
        if all(kernel is None for kernel in kernels):
            return None

        def part(array, start, stop):
            shards = array.reshape(len(ranks), -1)
            for i in range(start, stop):
                if kernels[i] is not None:
                    kernels[i](shards[i])

        return part, len(ranks)

    storage.sweep(kernel_for, **kwargs)


@pytest.fixture
def rng():
    """A deterministically seeded generator per test."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_supremacy_circuit() -> Circuit:
    """A 9-qubit (3x3) depth-8 supremacy circuit — fast to simulate."""
    return generate_supremacy_circuit(9, 8, seed=7)


@pytest.fixture
def medium_supremacy_circuit() -> Circuit:
    """A 16-qubit (4x4) depth-12 supremacy circuit."""
    return generate_supremacy_circuit(16, 12, seed=11)


def random_circuit(
    num_qubits: int,
    num_gates: int,
    seed: int = 0,
    *,
    max_gate_qubits: int = 2,
    include_diagonal: bool = True,
) -> Circuit:
    """A random circuit mixing dense and (optionally) diagonal gates."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(num_qubits)
    names_1q = ["h", "t", "x_1_2", "y_1_2", "x", "z"]
    for _ in range(num_gates):
        choice = rng.random()
        if include_diagonal and choice < 0.3 and num_qubits >= 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(Gate("cz", (int(a), int(b))))
        elif choice < 0.6:
            name = names_1q[int(rng.integers(len(names_1q)))]
            circuit.append(Gate(name, (int(rng.integers(num_qubits)),)))
        else:
            k = int(rng.integers(1, max_gate_qubits + 1))
            qubits = tuple(
                int(q) for q in rng.choice(num_qubits, size=k, replace=False)
            )
            circuit.append(Gate("rand", qubits, random_unitary(k, rng)))
    return circuit


@pytest.fixture
def haar_state():
    """Factory for random normalised states."""

    def make(num_qubits: int, seed: int = 0):
        return random_statevector(num_qubits, seed).copy()

    return make
