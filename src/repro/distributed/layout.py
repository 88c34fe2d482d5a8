"""The qubit layout: which physical bit holds which logical qubit.

With ``2**g`` ranks of ``2**l`` amplitudes each, the *physical* amplitude
index has bits ``0..l-1`` local (offset within a shard) and bits
``l..n-1`` global (the rank number).  :class:`QubitLayout` is the one
value object recording where every logical qubit currently sits, and the
only place the global-to-local swap of Sec. 3.4 / Fig. 3 is spelled out:
:meth:`QubitLayout.plan_swap` returns the whole recipe as data — a free
rank renumbering, staging swaps of local bits, one group-local
all-to-all, and the layout that results.  A dense sweep may leave the
low bits in another order (:meth:`QubitLayout.permute_low_bits`).
``DistributedState`` executes these transitions on amplitudes; the
checkpoint code only stores the layout.

Layouts are frozen: every transition returns a new object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["QubitLayout", "SwapStep"]


@dataclass(frozen=True, eq=False)
class SwapStep:
    """One global-to-local swap as data, in execution order.

    ``rank_source`` is the free renumbering (new rank ``r`` takes the
    shard old rank ``rank_source[r]`` held; ``None`` when ranks keep their
    shards), ``transpositions`` the local bit swaps staging the outgoing
    qubits, ``q`` the width of the group-local all-to-all (``0``: the swap
    is a no-op and the other fields are empty).  ``staged`` is the layout
    once the first two ran — adopting it before the exchange makes a failed
    exchange retryable, since planning the same swap from it leaves only
    the exchange to do — and ``after`` the layout once all three ran.
    """

    q: int
    rank_source: np.ndarray | None
    transpositions: tuple[tuple[int, int], ...]
    staged: "QubitLayout"
    after: "QubitLayout"


@dataclass(frozen=True)
class QubitLayout:
    """Physical bit position of each logical qubit (a permutation)."""

    local_qubits: int
    bit_of_qubit: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.bit_of_qubit)
        if not 0 < self.local_qubits <= n:
            raise ValueError(
                f"local_qubits must be in (0, {n}], got {self.local_qubits}"
            )
        if sorted(self.bit_of_qubit) != list(range(n)):
            raise ValueError(
                f"bit_of_qubit must permute 0..{n - 1}, got {self.bit_of_qubit}"
            )

    @classmethod
    def initial(
        cls,
        num_qubits: int,
        local_qubits: int,
        global_qubits: Iterable[int] | None = None,
    ) -> "QubitLayout":
        """Identity layout, or *global_qubits* (sorted) on the global bits.

        ``|0...0>`` and ``|+...+>`` are layout-invariant, so a schedule's
        first global set costs nothing (Sec. 3.6.1).
        """
        if global_qubits is None:
            return cls(local_qubits, tuple(range(num_qubits)))
        global_set = sorted({int(q) for q in global_qubits})
        if len(global_set) != num_qubits - local_qubits:
            raise ValueError(
                f"initial_global_qubits must have {num_qubits - local_qubits} "
                f"entries, got {len(global_set)}"
            )
        local_set = [q for q in range(num_qubits) if q not in set(global_set)]
        bits = [0] * num_qubits
        for bit, q in enumerate(local_set + global_set):
            bits[q] = bit
        return cls(local_qubits, tuple(bits))

    # -- queries -------------------------------------------------------
    @property
    def num_qubits(self) -> int:
        """Total logical qubits ``n``."""
        return len(self.bit_of_qubit)

    def bits(self, qubits: Iterable[int]) -> list[int]:
        """Physical bits of *qubits*, in the order given."""
        return [self.bit_of_qubit[q] for q in qubits]

    def is_local(self, qubit: int) -> bool:
        """True when the qubit's amplitude bit lies inside every shard."""
        return self.bit_of_qubit[qubit] < self.local_qubits

    def local_set(self) -> set[int]:
        """Logical qubits currently local."""
        return {q for q in range(self.num_qubits) if self.is_local(q)}

    def global_set(self) -> set[int]:
        """Logical qubits currently global (encoded in the rank number)."""
        return {q for q in range(self.num_qubits) if not self.is_local(q)}

    def qubit_at(self, bit: int) -> int:
        """The logical qubit stored on physical *bit*."""
        return self.bit_of_qubit.index(bit)

    # -- transitions ---------------------------------------------------
    def swap_bits(self, bit_a: int, bit_b: int) -> "QubitLayout":
        """The layout after the contents of two physical bits trade places."""
        bits = list(self.bit_of_qubit)
        qa, qb = self.qubit_at(bit_a), self.qubit_at(bit_b)
        bits[qa], bits[qb] = bit_b, bit_a
        return QubitLayout(self.local_qubits, tuple(bits))

    def permute_low_bits(self, order: Sequence[int]) -> "QubitLayout":
        """The layout once bit ``i`` took what bit ``order[i]`` held, for
        the local bits ``i < len(order)`` (*order* permutes them); every
        other bit keeps its qubit.

        What a dense sweep that writes back in another order leaves
        (:func:`repro.kernels.apply.sweep_order`): it never moves a
        rank bit.
        """
        w = len(order)
        if w > self.local_qubits or sorted(order) != list(range(w)):
            raise ValueError(
                f"order must permute local bits 0..{w - 1}, got {tuple(order)}"
            )
        new_bit = dict(zip(order, range(w)))
        if all(new_bit[b] == b for b in order):
            return self
        return QubitLayout(
            self.local_qubits,
            tuple(new_bit.get(b, b) for b in self.bit_of_qubit),
        )

    def renumber(
        self, new_bit_of_qubit: dict[int, int]
    ) -> tuple[np.ndarray | None, "QubitLayout"]:
        """Reassign which global bit each global qubit occupies (free).

        Returns the rank source permutation (new rank ``r`` takes old rank
        ``source[r]``'s shard; ``None`` when nothing moves) and the layout
        after.  Free on MPI — ranks are renumbered, no amplitude travels.
        """
        l = self.local_qubits
        old = {q: self.bit_of_qubit[q] for q in self.global_set()}
        if set(new_bit_of_qubit) != set(old):
            raise ValueError("must reassign exactly the current global qubits")
        if sorted(new_bit_of_qubit.values()) != sorted(old.values()):
            raise ValueError("new positions must permute the global bits")
        if new_bit_of_qubit == old:
            return None, self
        r_new = np.arange(1 << (self.num_qubits - l), dtype=np.int64)
        r_old = np.zeros_like(r_new)
        bits = list(self.bit_of_qubit)
        for q, new_bit in new_bit_of_qubit.items():
            r_old |= ((r_new >> (new_bit - l)) & 1) << (old[q] - l)
            bits[q] = new_bit
        return r_old, QubitLayout(l, tuple(bits))

    def plan_swap(self, new_global_qubits: Iterable[int]) -> SwapStep:
        """The Sec. 3.4 recipe making exactly *new_global_qubits* global.

        A free rank renumbering aligns the incoming qubits (global now,
        local after) on the lowest global bits ``l..l+q-1`` with the
        staying globals packed order-preserving above them; local swaps
        move the outgoing qubits to the highest local bits ``l-q..l-1``;
        one q-qubit group-local all-to-all (Fig. 3) then exchanges the two
        bit ranges.
        """
        new_global = {int(q) for q in new_global_qubits}
        l, n = self.local_qubits, self.num_qubits
        if len(new_global) != n - l:
            raise ValueError(
                f"need exactly {n - l} global qubits, got {len(new_global)}"
            )
        for qubit in new_global:
            if not 0 <= qubit < n:
                raise ValueError(f"qubit {qubit} out of range")
        cur_global = self.global_set()
        incoming = sorted(cur_global - new_global)
        outgoing = sorted(new_global - cur_global)
        q = len(incoming)
        if q == 0:
            return SwapStep(0, None, (), self, self)
        if q > l:
            raise ValueError("cannot swap more qubits than are local")

        staying = sorted(
            cur_global & new_global, key=self.bit_of_qubit.__getitem__
        )
        positions = {qq: l + i for i, qq in enumerate(incoming)}
        positions.update({qq: l + q + i for i, qq in enumerate(staying)})
        rank_source, layout = self.renumber(positions)

        transpositions = []
        for i, qq in enumerate(outgoing):
            current, target = layout.bit_of_qubit[qq], l - q + i
            if current != target:
                transpositions.append((current, target))
                layout = layout.swap_bits(current, target)

        # The exchange trades bit ranges [l-q, l) and [l, l+q) wholesale.
        after = tuple(
            bit + q if l - q <= bit < l else bit - q if l <= bit < l + q else bit
            for bit in layout.bit_of_qubit
        )
        return SwapStep(
            q, rank_source, tuple(transpositions), layout, QubitLayout(l, after)
        )
