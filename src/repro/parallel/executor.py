"""Thread-pool kernel executor (the OpenMP stand-in)."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Sequence

import numpy as np

from repro.kernels.apply import DenseSweep, apply_diagonal_gate
from repro.parallel.partition import partition_range
from repro.util.bits import bit_length_of_power_of_two
from repro.util.validation import check_qubit_indices

__all__ = ["ChunkedExecutor"]


class ChunkedExecutor:
    """Applies gate kernels across a pool of worker threads.

    Different ``c`` blocks of the dense sweep read and write disjoint
    state entries, so block ranges are embarrassingly parallel — the same
    decomposition the paper's OpenMP pragmas exploit.  ``min_chunk`` is
    the block size (in ``c`` substrings) handed to the sweep.  Use as a
    context manager or call :meth:`close` to release the pool.
    """

    def __init__(self, num_threads: int, *, min_chunk: int = 1 << 12) -> None:
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = num_threads
        self.min_chunk = min_chunk
        self._pool = (
            ThreadPoolExecutor(max_workers=num_threads) if num_threads > 1 else None
        )

    # ------------------------------------------------------------------
    def apply_gate(
        self, state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
    ) -> np.ndarray:
        """Apply a dense k-qubit gate in place, parallel over ``c`` blocks."""
        n = bit_length_of_power_of_two(state.shape[0])
        sweep = DenseSweep(n, matrix, qubits, state.dtype, self.min_chunk)
        spans = partition_range(sweep.num_blocks, self.num_threads)
        if self._pool is None or len(spans) <= 1:
            return sweep.apply(state)
        list(self._pool.map(lambda span: sweep.apply(state, *span), spans))
        return state

    def apply_diagonal(
        self, state: np.ndarray, diag: np.ndarray, qubits: Sequence[int]
    ) -> np.ndarray:
        """Apply a diagonal gate in place, parallel over contiguous slabs.

        Slabs split the state along its most significant bits, so every
        worker multiplies a contiguous slice; the diagonal factor for a
        slab is found by fixing the high bits the slab implies.
        """
        n = bit_length_of_power_of_two(state.shape[0])
        qubits = check_qubit_indices(qubits, n)
        if self._pool is None:
            return apply_diagonal_gate(state, diag, qubits)
        # Split on the top bits NOT used by the gate so each slab sees the
        # same qubit geometry.
        top_free = [b for b in range(n - 1, -1, -1) if b not in qubits]
        split_bits: list[int] = []
        while (1 << len(split_bits)) < self.num_threads and top_free:
            b = top_free.pop(0)
            if (1 << b) * 2 <= state.shape[0]:
                split_bits.append(b)
        if not split_bits or min(split_bits) <= max(qubits):
            return apply_diagonal_gate(state, diag, qubits)
        slab = 1 << min(split_bits)

        def work(start: int) -> None:
            view = state[start : start + slab]
            apply_diagonal_gate(view, diag, qubits)

        starts = range(0, state.shape[0], slab)
        list(self._pool.map(work, starts))
        return state

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down the worker pool."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ChunkedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
