"""Split real/imaginary kernel — the paper's FMA trick, BLAS edition.

Sec. 3.2 rewrites the complex update

    (v~R, v~I) += (vR*mR - vI*mI,  vI*mR + vR*mI)

as two fused multiply-accumulates against the pre-computed factor pairs
``(mR, mR)`` and ``(-mI, mI)``.  The numpy translation: perform the
complex panel product as four *real* GEMMs on the separated real and
imaginary parts,

    outR = mR @ gR - mI @ gI
    outI = mR @ gI + mI @ gR

which dispatches to dgemm instead of zgemm.  Depending on the BLAS
build, real arithmetic can beat the complex path — which is exactly why
the autotuner (not a human guess) picks the winner per shape.  As in the
paper, the split matrices are pre-computed once per gate and reused for
all ``2**(n-k)`` panel products.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.util.bits import bit_length_of_power_of_two, expand_index
from repro.util.validation import check_qubit_indices

__all__ = ["SplitGateMatrix", "apply_gate_split_real"]


class SplitGateMatrix:
    """A gate matrix pre-split into contiguous real and imaginary parts.

    The pre-computation the paper describes as "essentially free": done
    once per gate, amortised over every panel product.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"matrix must be square, got {matrix.shape}")
        self.dim = matrix.shape[0]
        self.real = np.ascontiguousarray(matrix.real)
        self.imag = np.ascontiguousarray(matrix.imag)
        #: purely-real gates (X, H, CZ, ...) skip half the GEMMs.
        self.imag_is_zero = bool(np.allclose(self.imag, 0.0))

    def panel_product(self, panel: np.ndarray) -> np.ndarray:
        """``matrix @ panel`` via real GEMMs."""
        g_real = np.ascontiguousarray(panel.real)
        g_imag = np.ascontiguousarray(panel.imag)
        if self.imag_is_zero:
            out_real = self.real @ g_real
            out_imag = self.real @ g_imag
        else:
            out_real = self.real @ g_real - self.imag @ g_imag
            out_imag = self.real @ g_imag + self.imag @ g_real
        return out_real + 1j * out_imag


def apply_gate_split_real(
    state: np.ndarray,
    matrix: np.ndarray | SplitGateMatrix,
    qubits: Sequence[int],
    *,
    chunk_size: int | None = 1 << 14,
) -> np.ndarray:
    """In-place k-qubit gate application via split-real panel products.

    Drop-in alternative to :func:`repro.kernels.apply_gate_indexed`; the
    autotuner benchmarks both.
    """
    n = bit_length_of_power_of_two(state.shape[0])
    qubits = check_qubit_indices(qubits, n)
    k = len(qubits)
    split = matrix if isinstance(matrix, SplitGateMatrix) else SplitGateMatrix(matrix)
    if split.dim != 1 << k:
        raise ValueError(
            f"matrix dimension {split.dim} inconsistent with {k} qubits"
        )
    total_c = 1 << (n - k)
    chunk = total_c if chunk_size is None else min(chunk_size, total_c)
    x = np.arange(1 << k)[:, None]
    for c_start in range(0, total_c, chunk):
        c_stop = min(c_start + chunk, total_c)
        idx = expand_index(np.arange(c_start, c_stop)[None, :], x, qubits)
        state[idx] = split.panel_product(state[idx])
    return state
