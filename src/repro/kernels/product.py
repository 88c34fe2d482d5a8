"""Writing a product state in one pass.

A state that is a tensor product of small factors on disjoint bits needs
no sweep per factor: every amplitude is the product of one entry of each
factor, so one pass over the array can write them all.
:func:`product_fill` does that pass, with temporaries of about the
square root of the array's size.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np

__all__ = ["product_fill"]

#: Widest array written directly, one multiply per factor over an axis
#: per bit: its inner loops are axes of two amplitudes, so wider arrays
#: are cut in two first (:func:`product_fill`).
_LEAF_BITS = 12

Factor = tuple[Sequence[int], np.ndarray]


def product_fill(out: np.ndarray, factors: Sequence[Factor]) -> None:
    """Overwrite *out* (``2**w`` amplitudes) with a product of factors.

    Each factor is ``(bits, vector)``: ``vector`` has ``2**len(bits)``
    entries and bit ``j`` of its index is bit ``bits[j]`` of an index into
    *out*.  No bit of *out* belongs to two factors; one that belongs to
    none is a factor of ones, and a factor with no bits is a scalar.

    A wide array is cut at a bit ``c``: the factors below it and the ones
    across it give a table of rows of ``2**c`` amplitudes (one row per
    value of the bits those across it own above ``c``), the factors above
    it give one scalar per row of *out*, and one broadcast multiply
    writes *out* row by row.  Table and scalars are product states
    again, filled the same way, and the cut is the one that keeps them
    smallest.  Narrow arrays, and arrays no cut shrinks (factors across
    every cut own all the bits above it), are written directly: ones,
    multiplied in place by each factor in turn.
    """
    w = out.size.bit_length() - 1
    cut = _best_cut(w, factors) if w > _LEAF_BITS else None
    if cut is None:
        tensor = out.reshape((2,) * w)
        tensor[...] = 1
        for bits, vector in factors:
            tensor *= _on_axes(np.asarray(vector, dtype=out.dtype), bits, w)
        return
    below, above, across = [], [], []
    for bits, vector in factors:
        if all(b >= cut for b in bits) and bits:
            above.append((bits, vector))
        elif any(b >= cut for b in bits):
            across.append((bits, vector))
        else:
            below.append((bits, vector))
    # Bits from the cut up, renumbered in order within the table and
    # within the scalars.
    row_bits = {
        b: cut + i for i, b in enumerate(
            sorted(b for bits, _ in across for b in bits if b >= cut)
        )
    }
    head_bits = {
        b: i for i, b in enumerate(sorted(b for bits, _ in above for b in bits))
    }
    rows = np.empty(1 << (cut + len(row_bits)), dtype=out.dtype)
    product_fill(rows, below + [
        ([row_bits.get(b, b) for b in bits], vector) for bits, vector in across
    ])
    head = np.empty(1 << len(head_bits), dtype=out.dtype)
    product_fill(head, [
        ([head_bits[b] for b in bits], vector) for bits, vector in above
    ])
    # One axis per bit from the top down to the cut, one for the row.
    top = range(w - 1, cut - 1, -1)
    np.multiply(
        head.reshape([2 if b in head_bits else 1 for b in top] + [1]),
        rows.reshape([2 if b in row_bits else 1 for b in top] + [1 << cut]),
        out=out.reshape([2] * (w - cut) + [1 << cut]),
    )


def _on_axes(vector: np.ndarray, bits: Sequence[int], w: int) -> np.ndarray:
    """*vector* shaped to broadcast against ``w`` axes of two, axis ``a``
    for bit ``w - 1 - a``: size two on its own bits, one elsewhere."""
    tensor = vector.reshape((2,) * len(bits))  # axis j: bits[-1 - j]
    order = sorted(range(len(bits)), key=lambda j: -bits[-1 - j])
    shape = [2 if b in bits else 1 for b in range(w - 1, -1, -1)]
    return tensor.transpose(order).reshape(shape)


def _best_cut(w: int, factors: Sequence[Factor]) -> int | None:
    """The cut whose row table and row scalars hold the fewest
    amplitudes, among those leaving both narrower than *out*."""
    spans = [sorted(bits) for bits, _ in factors if len(bits) > 1]
    sizes = {}
    for cut in range(1, w):
        crossing = sum(
            len(bits) - bisect_left(bits, cut)
            for bits in spans if bits[0] < cut <= bits[-1]
        )
        if cut + crossing < w:
            sizes[cut] = (1 << (cut + crossing)) + (1 << (w - cut))
    return min(sizes, key=sizes.get, default=None)
