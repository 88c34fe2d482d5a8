"""The sweep pool: pieces of one sweep on every CPU, bit for bit serial.

``repro.kernels.apply.split_sweep`` cuts the array of each ``(part, array,
units)`` item into unit ranges, one per CPU (the ``_CPUS`` patched here
sets how many), and ``run_split`` hands them to the process-wide pool.
Block ranges keep every panel shape, so pooled results equal the serial
sweep byte for byte.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels.apply as kernels
from repro.gates import random_unitary
from repro.kernels import DenseSweep, apply_diagonal_factor, apply_gate_reference
from repro.kernels.apply import (
    run_split,
    split_sweep,
    split_sweep_threads,
    split_threads,
)
from repro.kernels.tables import _build_diagonal_factor
from repro.util.executors import registered_executors
from repro.util.rng import random_statevector

SERIAL = 1 << 62


@pytest.fixture()
def pooled(monkeypatch):
    """Every sweep splits, whatever its size; ``pooled(cpus)`` sets how
    many pieces an array is cut into."""
    monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1)

    def cpus(count: int) -> None:
        monkeypatch.setattr(kernels, "_CPUS", count)

    return cpus


def _serial(fn):
    saved = kernels.SPLIT_MIN_AMPLITUDES
    kernels.SPLIT_MIN_AMPLITUDES = SERIAL
    try:
        return fn()
    finally:
        kernels.SPLIT_MIN_AMPLITUDES = saved


def _dense(state, u, qubits, chunk=8):
    n = state.size.bit_length() - 1
    sweep = DenseSweep(n, u, qubits, state.dtype, chunk)
    split_sweep([(sweep.apply, state, sweep.num_blocks)])
    return state


def _phase(state, diag, qubits, l):
    """A phase multiply on qubits of every ``2**l`` row, row ranges split."""
    factor = _build_diagonal_factor(diag, qubits, l)

    def part(array, start, stop):
        apply_diagonal_factor(array.reshape(-1, 1 << l)[start:stop], factor)

    split_sweep([(part, state, state.size >> l)])
    return state


def _cuts(units: int, size: int = 1 << 12, arrays: int = 1) -> list[tuple]:
    """The ``(array index, start, stop)`` pieces ``split_sweep`` makes."""
    seen = []
    blocks = [np.zeros(size) for _ in range(arrays)]
    split_sweep(
        (lambda array, i, j, b=b: seen.append((b, i, j)), block, units)
        for b, block in enumerate(blocks)
    )
    return sorted(seen)


class TestSweepPool:
    @pytest.mark.parametrize("pieces", [1, 2, 4])
    def test_dense_gate_matches_reference(self, pieces, pooled, rng):
        pooled(pieces)
        n = 10
        for qubits in [(0,), (9,), (2, 7), (5, 0, 8)]:
            u = random_unitary(len(qubits), rng)
            s0 = random_statevector(n, rng).copy()
            want = apply_gate_reference(s0.copy(), u, qubits)
            serial = _serial(lambda: _dense(s0.copy(), u, qubits))
            got = _dense(s0.copy(), u, qubits)
            assert np.array_equal(got, serial), (pieces, qubits)
            assert np.allclose(got, want, atol=1e-10), (pieces, qubits)

    @pytest.mark.parametrize("pieces", [1, 3])
    def test_diagonal_matches_reference(self, pieces, pooled, rng):
        pooled(pieces)
        n, l = 10, 6
        for qubits in [(0,), (4, 1), (5, 3)]:
            d = np.exp(1j * rng.standard_normal(1 << len(qubits)))
            s0 = random_statevector(n, rng).copy()
            want = s0.copy().reshape(-1, 1 << l)
            for row in want:
                kernels.apply_diagonal_gate(row, d, qubits, cache=None)
            serial = _serial(lambda: _phase(s0.copy(), d, qubits, l))
            got = _phase(s0.copy(), d, qubits, l)
            assert np.array_equal(got, serial), (pieces, qubits)
            assert np.allclose(got, want.reshape(-1), atol=1e-12)

    def test_diagonal_on_top_qubits(self, pooled, rng):
        """A phase on the top bits of each row: the rows still split."""
        pooled(4)
        n, l = 6, 4
        d = np.exp(1j * rng.standard_normal(4))
        s0 = random_statevector(n, rng).copy()
        serial = _serial(lambda: _phase(s0.copy(), d, (3, 2), l))
        assert np.array_equal(_phase(s0.copy(), d, (3, 2), l), serial)

    def test_bit_identical_across_piece_counts(self, pooled, rng):
        # Block ranges keep every panel shape: no last-bit differences.
        n = 9
        u = random_unitary(2, rng)
        s0 = random_statevector(n, rng).copy()
        results = []
        for pieces in (1, 2, 5):
            pooled(pieces)
            results.append(_dense(s0.copy(), u, (3, 6), chunk=4))
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[0], results[2])

    def test_one_cpu_stays_serial(self, pooled, monkeypatch):
        pooled(1)
        monkeypatch.setattr(kernels, "_pool", None)
        threads = set()
        run_split(lambda item: threads.add(kernels.threading.get_ident()),
                  range(4), 1 << 30)
        assert threads == {kernels.threading.get_ident()}
        assert kernels._pool is False

    def test_pool_registered_for_exit_shutdown(self, pooled):
        pooled(2)
        run_split(lambda item: None, range(2), 1)
        if kernels._pool:
            assert kernels._pool in registered_executors()
            assert kernels._pool._max_workers == kernels._CPUS


    def test_split_threads_says_what_run_split_does(self, pooled):
        """What a caller lending buffers to the pieces allocates."""
        pooled(2)
        run_split(lambda item: None, range(2), 1)  # start the pool
        width = 2 if kernels._pool else 1
        assert split_threads(2, 1) == width
        assert split_threads(1, 1) == 1  # one item runs inline
        assert split_threads(2, 0) == 1  # below the threshold
        nested = []  # from a pool thread (or inline): always inline
        run_split(lambda item: nested.append(split_threads(2, 1)), range(2), 1)
        assert nested == [1, 1]


class TestSplitSweep:
    def test_even_split(self, pooled):
        pooled(4)
        assert _cuts(8) == [(0, 0, 2), (0, 2, 4), (0, 4, 6), (0, 6, 8)]

    def test_uneven_split(self, pooled):
        pooled(3)
        assert _cuts(10) == [(0, 0, 3), (0, 3, 6), (0, 6, 10)]

    def test_more_cpus_than_units(self, pooled):
        pooled(5)
        assert _cuts(2) == [(0, 0, 1), (0, 1, 2)]

    def test_no_items(self, pooled):
        pooled(2)
        run_split(lambda item: pytest.fail("ran"), [], 1 << 30)

    def test_failure_is_reraised_after_every_piece(self, pooled):
        pooled(2)
        done = []

        def work(item):
            done.append(item)
            if item == 0:
                raise ValueError("piece 0")

        with pytest.raises(ValueError, match="piece 0"):
            run_split(work, range(4), 1)
        assert sorted(done) == [0, 1, 2, 3]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5000), st.integers(1, 64), st.integers(1, 4))
    def test_covers_exactly(self, units, cpus, arrays):
        saved = kernels._CPUS, kernels.SPLIT_MIN_AMPLITUDES
        kernels._CPUS, kernels.SPLIT_MIN_AMPLITUDES = cpus, 1
        try:
            cuts = _cuts(units, size=units, arrays=arrays)
        finally:
            kernels._CPUS, kernels.SPLIT_MIN_AMPLITUDES = saved
        for index in range(arrays):
            spans = [(i, j) for a, i, j in cuts if a == index]
            assert spans[0][0] == 0 and spans[-1][1] == units
            assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
            lengths = [j - i for i, j in spans]
            assert min(lengths) >= 1 and max(lengths) - min(lengths) <= 1
        # Every CPU gets a piece while there are units to give.
        assert len(cuts) >= min(cpus, arrays * units)

    def test_small_array_single_piece(self, pooled, monkeypatch):
        pooled(8)
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1 << 20)
        assert _cuts(64, size=1 << 20) == [(0, 0, 64)]

    def test_single_cpu_single_piece(self, pooled):
        pooled(1)
        assert _cuts(10_000) == [(0, 0, 10_000)]

    def test_respects_split_minimum(self, pooled, monkeypatch):
        pooled(16)
        monkeypatch.setattr(kernels, "SPLIT_MIN_AMPLITUDES", 1 << 10)
        cuts = _cuts(64, size=1 << 12)
        assert len(cuts) == 4
        assert all((j - i) * (1 << 12) // 64 >= 1 << 10 for _, i, j in cuts)

    def test_single_unit_single_piece(self, pooled):
        pooled(4)
        assert _cuts(1) == [(0, 0, 1)]
        assert _cuts(1, arrays=3) == [(0, 0, 1), (1, 0, 1), (2, 0, 1)]

    def test_each_item_runs_its_own_part(self, pooled):
        """Items carry their own part and unit count: a rank's kernel and
        a longer span's are cut alike, each over its own units."""
        pooled(2)
        arrays = [np.zeros(8), np.zeros(8)]

        def adding(value, units):
            def part(array, start, stop):
                array.reshape(units, -1)[start:stop] += value

            return part, arrays[value - 1], units

        split_sweep([adding(1, 4), adding(2, 2)])
        assert arrays[0].tolist() == [1] * 8 and arrays[1].tolist() == [2] * 8

    def test_split_sweep_threads_bounds_what_runs_at_once(self, pooled):
        """One buffer per piece that may run at once: the pool's width
        when the cut gives two or more pieces, else one."""
        pooled(2)
        run_split(lambda item: None, range(2), 1)  # start the pool
        width = 2 if kernels._pool else 1
        assert split_sweep_threads(1, 2) == width  # one array, two pieces
        assert split_sweep_threads(4, 2) == width
        assert split_sweep_threads(1, 1) == 1  # one amplitude: one piece
