"""Gates stored as their per-control-value blocks.

A k-qubit gate whose matrix is exactly block-diagonal in some of its
bits — the bits only CZ, T and other diagonal gates touch inside a fused
cluster — is, for every value of those *control* bits, a smaller gate on
the remaining *target* bits.  :class:`BlockGate` keeps just those
``2**d`` blocks of ``2**(k-d)`` rows: the dense sweep runs one block per
control value (Sec. 3.5 of the paper: diagonal gates move no data), and
the plan compiler composes fused ops block by block without ever forming
the ``2**k x 2**k`` product.

Bit conventions follow the kernels: gate bit ``j`` is matrix row/column
bit ``j``.  ``controls`` and ``targets`` are ascending gate bits; bit
``i`` of a block index is the value of gate bit ``controls[i]``, and bit
``i`` of a row inside a block the value of gate bit ``targets[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from repro.util.bits import bit_mask, extract_bits, scatter_bits

__all__ = ["BlockGate", "block_index", "control_bits", "rank_split"]


def control_bits(matrix: np.ndarray) -> tuple[int, ...]:
    """Gate bits in which *matrix* is exactly block-diagonal.

    Bit ``j`` is a control when every entry whose row and column differ
    in bit ``j`` is exactly zero.  Products of diagonal and dense gates
    keep such zeros exact (each is a sum of products with a zero factor),
    so no tolerance is needed and none is used.
    """
    matrix = np.asarray(matrix)
    k = matrix.shape[0].bit_length() - 1
    (nonzero,) = matrix.reshape(-1).nonzero()
    moved = int(np.bitwise_or.reduce((nonzero >> k) ^ nonzero, initial=0))
    return tuple(j for j in range(k) if not moved >> j & 1)


@lru_cache(maxsize=512)
def block_index(k: int, controls: tuple[int, ...]) -> np.ndarray:
    """``index[c, t]``: the index of a ``k``-bit gate whose (ascending)
    *controls* spell ``c`` and whose other bits spell ``t`` — where row
    ``t`` of block ``c`` sits in the full matrix.  Read-only; at most
    ``2**k`` entries, and one per ``(k, controls)``."""
    targets = [j for j in range(k) if j not in controls]
    index = (
        scatter_bits(np.arange(1 << len(controls)), controls)[:, None]
        | scatter_bits(np.arange(1 << len(targets)), targets)
    )
    index.flags.writeable = False
    return index


@dataclass(frozen=True, eq=False)
class BlockGate:
    """A ``num_bits``-bit gate as ``2**d`` blocks of a ``2**m`` gate.

    ``blocks[c]`` is the gate on the target bits while the control bits
    spell ``c``; ``m = num_bits - d``.  With no controls it is the plain
    matrix as one block.
    """

    num_bits: int
    controls: tuple[int, ...]
    blocks: np.ndarray

    @classmethod
    def of(cls, matrix: np.ndarray) -> "BlockGate":
        """Split *matrix* at every bit :func:`control_bits` finds."""
        matrix = np.asarray(matrix)
        return cls.split(matrix, control_bits(matrix))

    @classmethod
    def diagonal(cls, diag: np.ndarray) -> "BlockGate":
        """The diagonal gate *diag*: every bit a control, ``1 x 1`` blocks."""
        diag = np.asarray(diag)
        k = diag.shape[0].bit_length() - 1
        return cls(k, tuple(range(k)), diag.reshape(-1, 1, 1))

    @classmethod
    def split(cls, matrix: np.ndarray, controls: Sequence[int]) -> "BlockGate":
        """The blocks of *matrix* over *controls* (which it must be
        block-diagonal in; entries off the blocks are dropped)."""
        matrix = np.asarray(matrix)
        k = matrix.shape[0].bit_length() - 1
        controls = tuple(sorted(controls))
        if not controls:
            return cls(k, (), matrix[None])
        index = block_index(k, controls)
        return cls(k, controls, matrix[index[:, :, None], index[:, None, :]])

    @cached_property
    def targets(self) -> tuple[int, ...]:
        """Gate bits the blocks act on (ascending)."""
        return tuple(j for j in range(self.num_bits) if j not in self.controls)

    def restrict(self, fixed: dict[int, int]) -> "BlockGate":
        """The gate on the other bits while the controls in *fixed* (gate
        bit -> value) hold their values: the blocks those values pick,
        over the remaining bits renumbered in order.  What one rank runs
        of a gate whose controls its rank number spells."""
        free = [i for i, j in enumerate(self.controls) if j not in fixed]
        value = sum(fixed[j] << i for i, j in enumerate(self.controls) if j in fixed)
        rest = [j for j in range(self.num_bits) if j not in fixed]
        return BlockGate(
            len(rest),
            tuple(rest.index(self.controls[i]) for i in free),
            self.blocks[scatter_bits(np.arange(1 << len(free)), free) | value],
        )

    def dense(self) -> np.ndarray:
        """The full ``2**k x 2**k`` matrix (zero off the blocks)."""
        index = block_index(self.num_bits, self.controls)
        dim = 1 << self.num_bits
        matrix = np.zeros((dim, dim), dtype=self.blocks.dtype)
        matrix[index[:, :, None], index[:, None, :]] = self.blocks
        return matrix


def rank_split(gate, global_bits: Sequence[int]) -> tuple[BlockGate, np.ndarray] | None:
    """How *gate* runs while its *global_bits* (gate bits) live in the
    rank number — Sec. 3.5's rule — or ``None`` when it needs a swap.

    Returns ``(blocks, relabel)``.  *blocks* holds every global bit as a
    control: block ``c`` is what a rank whose global bits spell ``c``
    applies to its shard.  ``relabel[c]`` is the value those bits spell
    afterwards (bit ``i`` of a value is the ``i``-th lowest global bit),
    so the shards move to their new ranks after the blocks ran.  A
    diagonal gate relabels nothing; a monomial one (a permutation with
    phases) qualifies when where its global bits go depends on their
    own values alone — CNOT with a global control and a local target
    relabels nothing, X on a global qubit only relabels, CNOT with a
    local control and a global target needs a swap — and so does no
    other gate on a global bit.
    """
    global_bits = sorted(global_bits)
    identity = np.arange(1 << len(global_bits))
    if gate.is_diagonal:
        return BlockGate.diagonal(np.diagonal(gate.matrix)), identity
    if not global_bits:
        return BlockGate.of(gate.matrix), identity
    perm = gate.basis_permutation
    if perm is None:
        return None
    mask = bit_mask(global_bits)
    columns = np.arange(perm.size)
    old, new = columns & mask, perm & mask
    moved = np.empty_like(perm)
    moved[old] = new
    if (moved[old] != new).any():
        return None
    # The gate with its relabel undone: each column's one entry on the
    # row that keeps the column's global bits, so those are controls.
    unmoved = np.zeros_like(gate.matrix)
    unmoved[perm & ~mask | old, columns] = gate.matrix[perm, columns]
    relabel = extract_bits(moved[scatter_bits(identity, global_bits)], global_bits)
    return BlockGate.of(unmoved), relabel
