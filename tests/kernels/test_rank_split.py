"""Laws of :func:`repro.kernels.blocks.rank_split`, Sec. 3.5's rule.

For every one- and two-qubit gate of the named-gate table and every
split of its bits into global and local: the rule's relabel after its
blocks is the gate, and it refuses (``None``) exactly the splits where
the global bits a basis state ends on are not fixed by the global bits
it started on (brute force over the basis).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.gates import GATE_STRUCTURE, Gate, random_unitary
from repro.kernels.blocks import rank_split
from repro.util.bits import bit_mask, extract_bits, scatter_bits

def _gates():
    """One- and two-qubit table gates, plus a dense random one."""
    gates = []
    for name in sorted(GATE_STRUCTURE):
        for k in (1, 2):
            try:
                gates.append(Gate(name, range(k)))
            except ValueError:
                continue
    gates.append(Gate("u2", (0, 1), random_unitary(2, 0)))
    return gates


def _splits():
    for gate in _gates():
        k = gate.num_qubits
        for g in range(k + 1):
            for global_bits in combinations(range(k), g):
                yield pytest.param(
                    gate, global_bits, id=f"{gate.name}-{list(global_bits)}"
                )


def _separable(matrix: np.ndarray, global_bits) -> bool:
    """Whether every basis state's image lies on one value of the global
    bits, the same for all inputs that agree on them."""
    mask = bit_mask(global_bits)
    image = {}
    for column in range(matrix.shape[0]):
        ends = {row & mask for row in np.flatnonzero(matrix[:, column])}
        if len(ends) != 1 or image.setdefault(column & mask, ends) != ends:
            return False
    return True


@pytest.mark.parametrize("gate, global_bits", _splits())
def test_rule(gate, global_bits):
    split = rank_split(gate, global_bits)
    assert (split is None) == (not _separable(gate.matrix, global_bits))
    if split is None:
        return
    blocks, relabel = split
    assert set(global_bits) <= set(blocks.controls)
    # Relabel after the blocks: row r of the blocks' matrix lands on the
    # row whose global bits spell relabel[old value].
    rows = np.arange(1 << gate.num_qubits)
    moved = rows & ~bit_mask(global_bits) | scatter_bits(
        relabel[extract_bits(rows, global_bits)], global_bits
    )
    reassembled = np.zeros_like(gate.matrix)
    reassembled[moved] = blocks.dense()
    assert np.array_equal(reassembled, gate.matrix)
    if gate.is_diagonal:
        assert np.array_equal(relabel, np.arange(relabel.size))
