"""Named gate matrices.

All matrices follow the little-endian convention used throughout this
package: for a multi-qubit gate bound to qubits ``(q0, q1, ...)``, bit 0 of
the matrix row/column index corresponds to ``q0``, bit 1 to ``q1``, etc.

The single-qubit set matches Sec. 2 of the paper exactly, including the
:data:`SQRT_X_MATRIX` and :data:`SQRT_Y_MATRIX` definitions used by the
Google quantum-supremacy circuits.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from repro.util.rng import ensure_rng

__all__ = [
    "ID_MATRIX",
    "X_MATRIX",
    "Y_MATRIX",
    "Z_MATRIX",
    "H_MATRIX",
    "S_MATRIX",
    "SDG_MATRIX",
    "T_MATRIX",
    "TDG_MATRIX",
    "SQRT_X_MATRIX",
    "SQRT_Y_MATRIX",
    "CZ_MATRIX",
    "CNOT_MATRIX",
    "SWAP_MATRIX",
    "TOFFOLI_MATRIX",
    "rotation_matrix",
    "controlled_phase_matrix",
    "phase_matrix",
    "gate_matrix",
    "GateStructure",
    "GATE_STRUCTURE",
    "gate_structure",
    "random_unitary",
]

_C = np.complex128

ID_MATRIX = np.eye(2, dtype=_C)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=_C)
Y_MATRIX = np.array([[0, -1j], [1j, 0]], dtype=_C)
Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=_C)
H_MATRIX = np.array([[1, 1], [1, -1]], dtype=_C) / math.sqrt(2)
S_MATRIX = np.array([[1, 0], [0, 1j]], dtype=_C)
SDG_MATRIX = S_MATRIX.conj().T
T_MATRIX = np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=_C)
TDG_MATRIX = T_MATRIX.conj().T

#: X^(1/2) as defined in the paper: (1/2) [[1+i, 1-i], [1-i, 1+i]].
SQRT_X_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=_C)
#: Y^(1/2) as defined in the paper: (1/2) [[1+i, -1-i], [1+i, 1+i]].
SQRT_Y_MATRIX = 0.5 * np.array([[1 + 1j, -1 - 1j], [1 + 1j, 1 + 1j]], dtype=_C)

CZ_MATRIX = np.diag([1, 1, 1, -1]).astype(_C)
#: CNOT with control = qubit 0 (bit 0), target = qubit 1 (bit 1).
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=_C
)
SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=_C
)
#: Toffoli with controls = qubits 0, 1 and target = qubit 2.
TOFFOLI_MATRIX = np.eye(8, dtype=_C)
TOFFOLI_MATRIX[[3, 7], :] = TOFFOLI_MATRIX[[7, 3], :]


def rotation_matrix(axis: str, theta: float) -> np.ndarray:
    """Single-qubit rotation ``exp(-i * theta/2 * P)`` for ``P`` in X/Y/Z."""
    axis = axis.lower()
    paulis = {"x": X_MATRIX, "y": Y_MATRIX, "z": Z_MATRIX}
    if axis not in paulis:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    pauli = paulis[axis]
    return (
        math.cos(theta / 2) * ID_MATRIX - 1j * math.sin(theta / 2) * pauli
    ).astype(_C)


def phase_matrix(theta: float) -> np.ndarray:
    """Single-qubit phase gate ``diag(1, exp(i theta))``."""
    return np.diag([1.0, cmath.exp(1j * theta)]).astype(_C)


def controlled_phase_matrix(theta: float) -> np.ndarray:
    """Two-qubit controlled-phase ``diag(1, 1, 1, exp(i theta))``."""
    return np.diag([1.0, 1.0, 1.0, cmath.exp(1j * theta)]).astype(_C)


_NAMED: dict[str, np.ndarray] = {
    "id": ID_MATRIX,
    "i": ID_MATRIX,
    "x": X_MATRIX,
    "y": Y_MATRIX,
    "z": Z_MATRIX,
    "h": H_MATRIX,
    "s": S_MATRIX,
    "sdg": SDG_MATRIX,
    "t": T_MATRIX,
    "tdg": TDG_MATRIX,
    "x_1_2": SQRT_X_MATRIX,
    "sqrt_x": SQRT_X_MATRIX,
    "y_1_2": SQRT_Y_MATRIX,
    "sqrt_y": SQRT_Y_MATRIX,
    "cz": CZ_MATRIX,
    "cnot": CNOT_MATRIX,
    "cx": CNOT_MATRIX,
    "swap": SWAP_MATRIX,
    "toffoli": TOFFOLI_MATRIX,
    "ccx": TOFFOLI_MATRIX,
}


class GateStructure:
    """Static structure flags of a named gate matrix.

    ``diagonal`` gates have no off-diagonal entries; ``permutation`` gates
    are monomial (map basis states to basis states up to a phase).  Every
    diagonal matrix is also monomial.
    """

    __slots__ = ("diagonal", "permutation")

    def __init__(self, *, diagonal: bool, permutation: bool) -> None:
        self.diagonal = diagonal
        self.permutation = permutation

    def __repr__(self) -> str:
        return (
            f"GateStructure(diagonal={self.diagonal}, "
            f"permutation={self.permutation})"
        )


_DIAGONAL = GateStructure(diagonal=True, permutation=True)
_PERMUTATION = GateStructure(diagonal=False, permutation=True)
_DENSE = GateStructure(diagonal=False, permutation=False)

#: Structure flags per named gate, so a named gate never scans its
#: matrix to find out whether the phase multiply applies.
GATE_STRUCTURE: dict[str, GateStructure] = {
    "id": _DIAGONAL,
    "i": _DIAGONAL,
    "x": _PERMUTATION,
    "y": _PERMUTATION,
    "z": _DIAGONAL,
    "h": _DENSE,
    "s": _DIAGONAL,
    "sdg": _DIAGONAL,
    "t": _DIAGONAL,
    "tdg": _DIAGONAL,
    "x_1_2": _DENSE,
    "sqrt_x": _DENSE,
    "y_1_2": _DENSE,
    "sqrt_y": _DENSE,
    "cz": _DIAGONAL,
    "cnot": _PERMUTATION,
    "cx": _PERMUTATION,
    "swap": _PERMUTATION,
    "toffoli": _PERMUTATION,
    "ccx": _PERMUTATION,
}


def gate_structure(name: str) -> GateStructure | None:
    """Structure flags for a named gate, or ``None`` when unknown."""
    return GATE_STRUCTURE.get(name.lower())


def gate_matrix(name: str) -> np.ndarray:
    """Look up a named gate matrix (case-insensitive).

    Recognised names include the supremacy-circuit set (``h``, ``t``,
    ``x_1_2``, ``y_1_2``, ``cz``) and common extras (``cnot``, ``swap``,
    ``toffoli``...).  Returns a copy so callers may modify freely.
    """
    key = name.lower()
    if key not in _NAMED:
        raise KeyError(f"unknown gate name {name!r}; known: {sorted(_NAMED)}")
    return _NAMED[key].copy()


def random_unitary(num_qubits: int, seed=None) -> np.ndarray:
    """Haar-random unitary on *num_qubits* qubits (QR of a Ginibre matrix)."""
    rng = ensure_rng(seed)
    dim = 1 << num_qubits
    ginibre = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(ginibre)
    # Fix the phase ambiguity of QR so the distribution is Haar.
    phases = np.diag(r) / np.abs(np.diag(r))
    return (q * phases).astype(_C)
