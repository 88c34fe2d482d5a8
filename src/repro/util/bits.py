"""Bit-manipulation primitives for state-vector index arithmetic.

Applying a k-qubit gate to an n-qubit state vector (Sec. 3.2 of the paper)
requires splitting every state index into the ``x`` bits (positions of the
target qubits) and the ``c`` bits (everything else)::

    index = c_{n-k-1} x_{i_{k-1}} ... c_j ... x_{i_1} ... c_0

The functions here perform exactly those (de)compositions, vectorised over
numpy integer arrays so kernels never loop in Python over 2**n entries.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "is_power_of_two",
    "bit_length_of_power_of_two",
    "extract_bits",
    "gather_bits",
    "scatter_bits",
    "permuted_indices",
    "insert_zero_bits",
    "expand_index",
    "bit_mask",
    "mask_bits",
    "set_bits",
    "clear_bits",
]


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when *value* is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def bit_length_of_power_of_two(value: int) -> int:
    """Return ``log2(value)`` for a power-of-two *value*.

    Raises :class:`ValueError` otherwise; used to recover qubit counts from
    state-vector lengths.
    """
    if not is_power_of_two(value):
        raise ValueError(f"{value} is not a positive power of two")
    return value.bit_length() - 1


def extract_bits(indices: np.ndarray | int, positions: Sequence[int]) -> np.ndarray | int:
    """Gather the bits of *indices* at *positions* into a compact integer.

    ``positions[0]`` becomes bit 0 of the result, ``positions[1]`` bit 1, and
    so on (the paper's ``x = x_{i_{k-1}} ... x_{i_1} x_{i_0}`` with
    ``positions = [i_0, i_1, ..., i_{k-1}]``).
    """
    result = np.zeros_like(np.asarray(indices))
    for out_bit, pos in enumerate(positions):
        result |= ((np.asarray(indices) >> pos) & 1) << out_bit
    if np.isscalar(indices):
        return int(result)
    return result


# ``gather_bits`` is the historical name used throughout the kernels.
gather_bits = extract_bits


def scatter_bits(values: np.ndarray | int, positions: Sequence[int]) -> np.ndarray | int:
    """Inverse of :func:`extract_bits`: spread compact bits to *positions*.

    Bit ``j`` of *values* lands at bit ``positions[j]`` of the result; all
    other bits are zero.
    """
    result = np.zeros_like(np.asarray(values))
    for in_bit, pos in enumerate(positions):
        result |= ((np.asarray(values) >> in_bit) & 1) << pos
    if np.isscalar(values):
        return int(result)
    return result


def permuted_indices(positions: Sequence[int]) -> np.ndarray:
    """``scatter_bits(np.arange(2**w), positions)`` for a permutation
    *positions* of ``range(w)``, as one transposed copy of an ``arange``
    (one size-2 axis per bit) instead of a pass per bit."""
    w = len(positions)
    axes = [w - 1 - positions[w - 1 - axis] for axis in range(w)]
    cube = np.arange(1 << w, dtype=np.intp).reshape((2,) * w)
    return cube.transpose(axes).ravel()


def insert_zero_bits(compact: np.ndarray | int, positions: Sequence[int]) -> np.ndarray | int:
    """Expand *compact* indices by inserting zero bits at *positions*.

    *positions* must be sorted ascending.  This maps the paper's ``c`` index
    substring (an integer in ``[0, 2**(n-k))``) to the full state index with
    the target-qubit bits cleared.  Vectorised over numpy arrays.
    """
    result = np.asarray(compact).copy()
    for pos in positions:  # ascending order keeps earlier insertions valid
        low_mask = (1 << pos) - 1
        low = result & low_mask
        high = (result >> pos) << (pos + 1)
        result = high | low
    if np.isscalar(compact):
        return int(result)
    return result


def expand_index(
    c: np.ndarray | int, x: np.ndarray | int, positions: Sequence[int]
) -> np.ndarray | int:
    """Combine a ``c`` substring and an ``x`` substring into full indices.

    *positions* are the target-qubit bit locations (ascending).  ``c`` indexes
    the non-target bits, ``x`` the target bits; the result is the full
    state-vector index ``c_{n-k-1} x ... c_0`` of Sec. 3.2.
    """
    sorted_pos = sorted(positions)
    base = insert_zero_bits(c, sorted_pos)
    # Scatter x using the *original* position order so that bit j of x
    # corresponds to qubit positions[j].
    return base | scatter_bits(x, list(positions))


def bit_mask(positions: Iterable[int]) -> int:
    """The Python int with exactly the bits at *positions* set.

    The scheduler's qubit sets: membership, union and difference are one
    ``&``/``|``/``& ~`` each.
    """
    mask = 0
    for pos in positions:
        mask |= 1 << pos
    return mask


def mask_bits(mask: int) -> list[int]:
    """The set bit positions of *mask*, ascending (inverse of :func:`bit_mask`)."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def set_bits(indices: np.ndarray | int, positions: Iterable[int]) -> np.ndarray | int:
    """Return *indices* with the bits at *positions* set to 1."""
    result = np.asarray(indices) | bit_mask(positions)
    if np.isscalar(indices):
        return int(result)
    return result


def clear_bits(indices: np.ndarray | int, positions: Iterable[int]) -> np.ndarray | int:
    """Return *indices* with the bits at *positions* cleared to 0."""
    result = np.asarray(indices) & ~bit_mask(positions)
    if np.isscalar(indices):
        return int(result)
    return result
