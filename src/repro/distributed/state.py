"""The distributed state: global/local qubits, swaps, specialization.

Physical layout (Sec. 3.4): with ``2**g`` ranks each owning ``2**l``
amplitudes, the *physical* amplitude index has bits ``0..l-1`` local
(offset within a shard) and bits ``l..n-1`` global (the rank number).
``self.layout`` (a frozen :class:`~repro.distributed.layout.QubitLayout`)
maps every *logical* qubit to its current physical bit; this class moves
the amplitudes the way the layout's transitions say and then adopts the
layout they return.  A dense sweep leaves the bits of its window in the
order its GEMM panel has them (targets lowest), and the last one before
a swap may leave them staged for it (:func:`_write_order`): the layout
changes between ops, not only at swaps.

Writes go through ``storage.sweep``, one kernel per span of ranks the
storage hands over (deferred by ``DiskShards`` until a read or run end
flushes it), whose kernels may run on any thread: every kernel handed to
it binds its scratch where it runs, or is lent it.
"""

from __future__ import annotations

import queue
import time
import zlib
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from repro.distributed.comm import CommStats
from repro.distributed.layout import QubitLayout
from repro.distributed.storage import InMemoryShards, ShardStorage
from repro.gates.gate import Gate
from repro.gates.matrices import SWAP_MATRIX
from repro.kernels import DenseSweep, apply_diagonal_factor, apply_gate_indexed
from repro.kernels.apply import _WINDOW_MAX_BITS, _axes_above, sweep_order
from repro.kernels.blocks import BlockGate, rank_split
from repro.kernels.product import product_fill
from repro.kernels.tables import GATHER_CACHE, _build_diagonal_tensor
from repro.kernels.cost import KernelCostModel
from repro.statevector.state import StateVector
from repro.telemetry.runtime import NULL_TELEMETRY, Telemetry
from repro.util.bits import bit_mask, extract_bits, scatter_bits

__all__ = ["DistributedState", "NeedsSwapError"]

#: Logical qubits per chunk of :meth:`DistributedState.logical_chunks`
#: (1 MiB of complex128): bounds the transient of a streamed digest, and
#: the factors of a product write (the engine's product prefix).
_CHUNK_QUBITS = 16


def _rank_slice(bits, vector, local_qubits, rank):
    """Factor *vector* on physical *bits* with its rank bits fixed to
    what *rank* spells: ``(local bits, entries)``."""
    kept = [j for j, b in enumerate(bits) if b < local_qubits]
    fixed = sum(
        (rank >> (b - local_qubits) & 1) << j
        for j, b in enumerate(bits) if b >= local_qubits
    )
    return (
        [bits[j] for j in kept],
        vector[scatter_bits(np.arange(1 << len(kept)), kept) | fixed],
    )


def _scale_into(shard, array, scale):
    """``shard = scale * array``, rounded alike in every storage layout
    (*array* may be *shard* itself)."""
    if scale == 0:
        shard.fill(0)
    elif scale != 1:
        np.multiply(array, scale, out=shard)
    elif shard is not array:
        shard[:] = array


def _kernel(gate, bits, width, l, dtype, *, order=None, cache=GATHER_CACHE):
    """``(part, units)`` for *gate* on *bits* of a ``2**width`` array:
    ``part(array, start, stop)`` sweeps units ``start..stop-1`` of it,
    built once for every array it runs on (``apply`` of a dense sweep
    binds the panels of the thread that runs it).

    The dense sweep (:class:`~repro.kernels.DenseSweep`, writing back in
    *order*: :func:`_write_order`) when the gate has targets, else the
    phase multiply: one factor over the bits below *l* (the local
    qubits) per value of the bits from there up (the ranks of a longer
    span, in rank order), which must be controls.  Factors come from
    *cache*, or are built per op without one.
    """
    if gate.targets:
        dense = DenseSweep(width, gate, bits, dtype, order=order)
        return dense.apply, dense.num_blocks
    local = [b for b in bits if b < l]
    ranked = [j for j, b in enumerate(bits) if b >= l]
    factors = []
    for value in range(1 << len(ranked)):
        diag = np.asarray(
            gate.restrict({j: value >> i & 1 for i, j in enumerate(ranked)})
            .blocks[:, 0, 0],
            dtype=dtype,
        )
        factors.append(
            cache.diagonal_factor(l, local, diag) if cache is not None
            else _build_diagonal_tensor(diag, local, l)
        )
    if not ranked:
        rows = 1 << (width - l)

        def part(array, start, stop):  # rows of 2**l, start..stop-1
            apply_diagonal_factor(array.reshape(rows, -1)[start:stop], factors[0])

        return part, rows
    # One unit per value of the rank-bit controls: the shards whose rank
    # bits spell it, a view with one size-2 axis per such bit.
    shape, axes = _axes_above(l, width, [bits[j] for j in ranked])
    axis_of = dict(zip(sorted(ranked, key=lambda j: -bits[j]), axes))
    views = []
    for value in range(len(factors)):
        index = [slice(None)] * len(shape)
        for i, j in enumerate(ranked):
            index[axis_of[j]] = value >> i & 1
        views.append(tuple(index))

    def part(array, start, stop):  # control values start..stop-1
        view = array.reshape(*shape, 1 << l)
        for value in range(len(factors))[start:stop]:
            apply_diagonal_factor(view[views[value]], factors[value])

    return part, len(factors)


def _apply_to_factor(vector, gate, positions):
    """*gate* on bits *positions* of the factor *vector*, in place and in
    order, with the kernel :meth:`DistributedState._sweep` builds (its
    phase factor uncached: factors come and go with the product write)."""
    width = vector.size.bit_length() - 1
    part, units = _kernel(gate, positions, width, width, vector.dtype, cache=None)
    part(vector, 0, units)


def _write_order(
    layout: QubitLayout,
    gate: BlockGate,
    bits: Sequence[int],
    closing: Iterable[int] | None = None,
) -> tuple[int, ...] | None:
    """The low-bit order the sweep of *gate* on physical *bits* leaves
    from *layout*: bit ``i`` takes what bit ``order[i]`` held
    (:func:`~repro.kernels.apply.sweep_order`; ``None``: in place).

    With *closing*, the global set of the swap that closes the stage, the
    write-back also stages that swap (Sec. 3.4) through one composed
    index: the order is the local part of ``plan_swap(closing).staged``,
    which then finds no transpositions to run.  That needs every bit the
    staging moves inside a window the sweep may use, below ``min(l,
    12)`` (always so for ``l <= 12``); otherwise the staging runs at the
    swap, as before.
    """
    l = layout.local_qubits
    order = sweep_order(gate, bits, l)
    if order is None or closing is None:
        return order
    step = layout.permute_low_bits(order).plan_swap(closing)
    moved = [b for pair in step.transpositions for b in pair]
    if not moved or max(moved) >= min(l, _WINDOW_MAX_BITS):
        return order
    return tuple(
        layout.bit_of_qubit[step.staged.qubit_at(i)]
        for i in range(max(len(order), max(moved) + 1))
    )


def _last_dense(ops) -> int | None:
    """Index of the last ``(gate, qubits)`` op with targets: the one a
    closing swap's staging may fold into."""
    return max((i for i, (gate, _) in enumerate(ops) if gate.targets), default=None)


class NeedsSwapError(RuntimeError):
    """Raised when a gate requires a global-to-local swap first."""


class DistributedState:
    """An ``n``-qubit state sharded over ``2**g`` virtual nodes.

    Parameters
    ----------
    num_qubits:
        Total logical qubits ``n``.
    local_qubits:
        ``l`` — each rank stores ``2**l`` amplitudes; ``g = n - l`` ranks
        bits.  Must satisfy ``g <= l`` (required by the full swap, and true
        for every configuration in the paper).
    storage:
        Shard backend; defaults to :class:`InMemoryShards`.  Pass a
        :class:`DiskShards` for SSD-resident state.
    init:
        ``"zero"``, ``"plus"`` (uniform superposition), or ``None`` to
        adopt the storage's contents as found (a reopened
        :class:`DiskShards` directory).

    The init is the storage's record (:meth:`ShardStorage.initialize`):
    nothing is written until the first read or write.  A state is
    *fresh* (:attr:`fresh_init`) while it holds exactly its init: any
    writer of the storage ends that, a ``get`` of a writable shard
    included; a read does not.  On a fresh state :meth:`apply_factored`
    writes what a run of ops leaves in one pass (:meth:`write_product`:
    the ops run on small factors of the product state, which is then
    written over the pending init, so the init fill never runs) instead
    of one sweep per op.
    """

    def __init__(
        self,
        num_qubits: int,
        local_qubits: int,
        *,
        storage: ShardStorage | None = None,
        init: str | None = "zero",
        initial_global_qubits: Iterable[int] | None = None,
        single_precision: bool = False,
        telemetry: Telemetry | None = None,
    ) -> None:
        #: where every logical qubit currently sits (replaced, never edited).
        self.layout = QubitLayout.initial(
            num_qubits, local_qubits, initial_global_qubits
        )
        self.num_qubits = num_qubits
        self.local_qubits = local_qubits
        self.global_qubits = num_qubits - local_qubits
        if storage is None:
            # Sec. 5: single precision halves the memory, buying one more
            # qubit on the same machine (45 -> 46 qubits on Cori II).
            dtype = np.complex64 if single_precision else np.complex128
            storage = InMemoryShards(
                1 << self.global_qubits, 1 << local_qubits, dtype=dtype
            )
        elif single_precision and storage.dtype != np.complex64:
            raise ValueError(
                "single_precision requested but storage dtype is "
                f"{storage.dtype}"
            )
        if storage.num_shards != 1 << self.global_qubits or storage.shard_size != (
            1 << local_qubits
        ):
            raise ValueError("storage dimensions inconsistent with qubit split")
        self.storage = storage
        self.stats = CommStats()
        self.kernel_cost = KernelCostModel()
        self.telemetry = NULL_TELEMETRY
        self.use_telemetry(telemetry)
        if init is not None:
            storage.initialize(init)

    def use_telemetry(self, telemetry: Telemetry | None) -> None:
        """Attach (or detach, with ``None``) a telemetry bundle.

        Kernel and comm paths emit spans into its tracer, and the comm
        counters are (re)bound so ``comm.*`` metrics stream as they are
        recorded.  The gauges ``storage.page.bytes{source=fresh|recycled}``
        say where the pages of the shards in RAM came from
        (:attr:`ShardStorage.page_bytes`).  Detaching restores the shared
        no-op bundle.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.storage.telemetry = self.telemetry
        registry = self.telemetry.metrics
        self.stats.bind_metrics(registry if registry.enabled else None)
        if registry.enabled:
            for source, nbytes in self.storage.page_bytes.items():
                registry.gauge("storage.page.bytes", source=source).set(nbytes)

    # ------------------------------------------------------------------
    # Initialisation / conversion
    # ------------------------------------------------------------------
    @property
    def fresh_init(self) -> str | None:
        """``"zero"`` or ``"plus"`` while the storage holds exactly that
        init, pending or written, and no writer has run since; else
        ``None`` (also for storage that never held one, such as a
        reopened :class:`DiskShards` directory)."""
        return self.storage.fresh_init

    @property
    def num_ranks(self) -> int:
        """Number of virtual nodes (``2**g``)."""
        return self.storage.num_shards

    def flush(self) -> None:
        """Run every sweep the storage deferred (run end, before reads)."""
        self.storage.flush()

    @classmethod
    def for_schedule(cls, schedule, **kwargs) -> "DistributedState":
        """The fresh state *schedule* starts from.

        Its first stage's global set is adopted for free and its
        ``initial_state`` ("plus" when the Hadamard layer was absorbed)
        chosen; *kwargs* (``storage``, ``telemetry``, ...) pass through.
        """
        return cls(
            schedule.num_qubits,
            schedule.local_qubits,
            init=schedule.initial_state,
            initial_global_qubits=schedule.initial_global_qubits or None,
            **kwargs,
        )

    @classmethod
    def from_statevector(
        cls,
        state: StateVector,
        local_qubits: int,
        *,
        storage: ShardStorage | None = None,
    ) -> "DistributedState":
        """Scatter a logical state vector onto shards (identity layout)."""
        dist = cls(state.num_qubits, local_qubits, storage=storage, init=None)
        dist._scatter(state)
        return dist

    def _scatter(self, state: StateVector) -> None:
        # Identity layout: rank r's shard is the r-th contiguous slice.
        size = 1 << self.local_qubits
        for r in range(self.num_ranks):
            self.storage.set(r, state.data[r * size:(r + 1) * size])

    def to_statevector(self) -> StateVector:
        """Gather all shards into a logical-order state vector."""
        out = np.empty(1 << self.num_qubits, dtype=self.storage.dtype)
        start = 0
        for chunk in self.logical_chunks():
            out[start:start + chunk.size] = chunk
            start += chunk.size
        return StateVector(self.num_qubits, out)

    def logical_chunks(self):
        """Yield the amplitudes in logical order, ``2**16`` at a time.

        The one logical-to-physical gather (:meth:`to_statevector` joins
        the chunks): a digest of the whole state needs no state-sized
        copy.  One buffer is reused, so each chunk is overwritten by the
        next.  A chunk is one strided ``np.copyto`` per rank it spans,
        with no index arrays: the chunk and the shard are viewed with one
        size-2 axis per bit (top bit first), the bits a chunk or rank
        fixes are indexed away, and the shard's remaining axes are put in
        the chunk's qubit order.
        """
        n, l = self.num_qubits, self.local_qubits
        c = min(_CHUNK_QUBITS, n)
        positions = self.layout.bit_of_qubit
        out = np.empty(1 << c, dtype=self.storage.dtype)
        cells = out.reshape((2,) * c)
        # In-shard bits of the chunk's qubits (top qubit first), and the
        # shard axes left once every other bit is indexed away: the same
        # bits, top bit first.
        local = [positions[q] for q in reversed(range(c)) if positions[q] < l]
        kept = sorted(local, reverse=True)
        order = [kept.index(b) for b in local]
        # The rank bits a chunk spans: one copy per value of those of its
        # qubits that are global, into the cells whose bits spell it.
        ranked = [q for q in range(c) if positions[q] >= l]
        parts = []  # (rank bits, cells) per rank the chunk spans
        for value in range(1 << len(ranked)):
            index = [slice(None)] * c
            rank_bits = 0
            for i, q in enumerate(ranked):
                index[c - 1 - q] = bit = value >> i & 1
                rank_bits |= bit << (positions[q] - l)
            parts.append((rank_bits, cells[tuple(index)]))
        for chunk in range(1 << (n - c)):
            base = scatter_bits(chunk, positions[c:])
            index = tuple(
                slice(None) if b in kept else base >> b & 1
                for b in reversed(range(l))
            )
            for rank_bits, cell in parts:
                shard = self.storage.read(rank_bits | base >> l)
                np.copyto(cell, shard.reshape((2,) * l)[index].transpose(order))
            yield out

    # ------------------------------------------------------------------
    # Layout queries
    # ------------------------------------------------------------------
    @property
    def bit_of_qubit(self) -> tuple[int, ...]:
        """Physical bit of each logical qubit (read-only view of the layout)."""
        return self.layout.bit_of_qubit

    def bit_position(self, qubit: int) -> int:
        """Current physical bit of a logical qubit."""
        return self.layout.bit_of_qubit[qubit]

    def is_local(self, qubit: int) -> bool:
        """True when the qubit's amplitude bit lies inside every shard."""
        return self.layout.is_local(qubit)

    def local_qubit_set(self) -> set[int]:
        """Logical qubits currently local."""
        return self.layout.local_set()

    def global_qubit_set(self) -> set[int]:
        """Logical qubits currently global (encoded in the rank number)."""
        return self.layout.global_set()

    # ------------------------------------------------------------------
    # Gate application
    # ------------------------------------------------------------------
    def apply_gate(self, gate: Gate, *, auto_swap: bool = False) -> None:
        """Apply *gate*, using specialization for global qubits (Sec. 3.5).

        :func:`~repro.kernels.blocks.rank_split` says how: its blocks run
        as one sweep (:meth:`_sweep`; a global qubit is a control each
        rank's number fixes), then the ranks are renumbered as its
        relabel says (a monomial gate such as X on a global qubit).  A
        gate it cannot split needs a swap — taken automatically when
        ``auto_swap`` is set, else raising :class:`NeedsSwapError`.
        """
        bits = self.layout.bits(gate.qubits)
        l = self.local_qubits
        ranked = [j for j, b in enumerate(bits) if b >= l]
        split = rank_split(gate, ranked)
        if split is None:
            if not auto_swap:
                raise NeedsSwapError(
                    f"gate {gate!r} touches global qubits "
                    f"{[q for q in gate.qubits if not self.is_local(q)]} and "
                    "is not specializable; perform a global-to-local swap first"
                )
            self.make_local(gate.qubits)
            self.apply_gate(gate)
            return
        blocks, relabel = split
        # X, SWAP or CNOT between global qubits only renumber ranks.
        if not (blocks.blocks == np.eye(1 << len(blocks.targets))).all():
            self._sweep(blocks, bits)
        if (relabel != np.arange(relabel.size)).any():
            # Each rank ran the block its old number picked; now its shard
            # moves to the rank its relabelled bits spell.
            positions = [bits[j] - l for j in ranked]
            ranks = np.arange(self.num_ranks)
            dest = ranks & ~bit_mask(positions) | scatter_bits(
                relabel[extract_bits(ranks, positions)], positions
            )
            source_of_dest = np.empty_like(ranks)
            source_of_dest[dest] = ranks
            self.storage.permute_shards(source_of_dest)
            self.stats.record_rank_renumbering()

    def apply_compiled(
        self,
        gate: BlockGate,
        qubits: Sequence[int],
        *,
        closing: Iterable[int] | None = None,
    ) -> None:
        """Apply a plan op's gate on logical *qubits* as one sweep.

        Entry point for :class:`repro.plan.CompiledProgram` — every op
        but swaps and rank relabels: the gate's targets must be local,
        its controls may be global (a specialized diagonal absorbed into
        the op, Sec. 3.5).  *closing* is the global set of the swap that
        closes the stage when only phase multiplies lie between: the
        sweep then stages that swap too, where it can (:func:`_write_order`).
        """
        self._sweep(gate, self.layout.bits(qubits), closing=closing)

    def apply_factored(
        self,
        ops: Sequence[tuple[BlockGate, Sequence[int]]],
        *,
        closing: Iterable[int] | None = None,
    ) -> None:
        """Apply ``(gate, qubits)`` *ops*: on a fresh state one
        :meth:`write_product`, on any other one by one through
        :meth:`apply_compiled`, *closing* going to the last op with
        targets; both leave the same layout."""
        if self.fresh_init is not None:
            self.write_product(ops, closing=closing)
            return
        last = _last_dense(ops)
        for i, (gate, qubits) in enumerate(ops):
            self.apply_compiled(
                gate, qubits, closing=closing if i == last else None
            )

    def write_product(
        self,
        ops: Sequence[tuple[BlockGate, Sequence[int]]],
        *,
        closing: Iterable[int] | None = None,
    ) -> None:
        """Overwrite a fresh state with what *ops* leave, in one pass.

        *ops* are ``(gate, qubits)`` pairs on logical qubits.  The product
        state :attr:`fresh_init` names stays a product under them: one
        *factor* per group of qubits that ops joined, every other qubit
        keeping its ``|0>`` or ``|+>`` (``(1, 0)``, or ``(1, 1)`` with the
        norms folded into the first factor: exact).  An op Kronecker-joins
        the factors it touches, with ``|0>`` or ``|+>`` on its qubits no
        factor holds yet, and then runs on that factor in place, with the
        kernels of :meth:`_sweep` (the dense sweep, or the phase multiply
        when it has no targets).  A factor is as large as its group: the
        caller bounds the groups (the engine's product prefix keeps them
        within :data:`_CHUNK_QUBITS` qubits, 1 MiB).

        A rank's shard is then the product of the factor slices its rank
        bits pick: the factors with local bits give one array
        (:func:`~repro.kernels.product.product_fill`, the same for every
        rank whose bits pick the same slices), the ones on rank bits only
        one scalar that multiplies it.  One overwriting ``storage.sweep``
        writes it (which ``DiskShards`` stores without loading): each
        group of a span's ranks that share their array is filled in its
        first shard, scaled from there into the others, and the first
        scaled last, so every span shape does the same arithmetic per
        rank and they agree bit for bit.  No temporary is larger than a
        factor.  The cost model
        records one pass.  The write takes the place of a pending init
        fill, which then never runs, and ends the state's freshness.
        It is written in the layout the ops' sweeps would leave, one by
        one (:func:`_write_order`, *closing* going to the last op with
        targets), so a run that sweeps them instead reaches the same.
        """
        init = self.fresh_init
        if init is None:
            raise RuntimeError("write_product needs a freshly initialised state")
        plus = init == "plus"
        last = _last_dense(ops)
        layout = self.layout
        groups: list[tuple[list[int], np.ndarray]] = []
        for i, (gate, qubits) in enumerate(ops):
            order = _write_order(
                layout, gate, layout.bits(qubits),
                closing if i == last else None,
            )
            if order is not None:
                layout = layout.permute_low_bits(order)
            joined = [g for g in groups if not set(g[0]).isdisjoint(qubits)]
            groups = [g for g in groups if set(g[0]).isdisjoint(qubits)]
            held = {q for names, _ in joined for q in names}
            names = [q for q in qubits if q not in held]
            vector = np.full(
                1 << len(names), 0.5 ** (len(names) / 2) if plus else 0.0,
                complex,
            )
            if not plus:
                vector[0] = 1.0
            for other, factor in joined:  # its qubits go above the ones before
                names += other
                vector = np.kron(factor, vector)
            groups.append((names, vector))
            _apply_to_factor(vector, gate, [names.index(q) for q in qubits])
        factors = [(layout.bits(names), vector) for names, vector in groups]
        untouched = [
            q for q in range(self.num_qubits)
            if all(q not in names for names, _ in groups)
        ]
        if plus:  # (1, 1) is what product_fill assumes of a bit no factor owns
            _, vector = factors[0]
            vector *= 0.5 ** (len(untouched) / 2)
        else:
            zero = np.array([1.0, 0.0], dtype=complex)
            factors += [((layout.bit_of_qubit[q],), zero) for q in untouched]

        l = self.local_qubits
        ranks = np.arange(self.num_ranks)
        scales = np.ones(self.num_ranks, dtype=np.complex128)
        local, crossing = [], []
        for bits, vector in factors:
            if all(b >= l for b in bits):
                scales *= vector[extract_bits(ranks, [b - l for b in bits])]
            else:
                (crossing if max(bits) >= l else local).append((bits, vector))
        # Ranks agreeing on the rank bits of a crossing factor share its
        # slice; ranks agreeing on those of all of them, the local array.
        masks = [
            bit_mask([b - l for b in bits if b >= l]) for bits, _ in crossing
        ]
        picks = bit_mask([b - l for bits, _ in crossing for b in bits if b >= l])
        slices = {}

        def slice_of(i, rank):
            key = (i, rank & masks[i])
            if key not in slices:
                bits, vector = crossing[i]
                slices[key] = _rank_slice(bits, vector, l, key[1])
            return slices[key]

        def kernel_for(ranks):  # one unit per group of ranks sharing an array
            sharing: dict[int, list[int]] = {}
            for rank in ranks:
                sharing.setdefault(rank & picks, []).append(rank - ranks.start)
            groups = [
                (local + [slice_of(i, ranks.start + group[0])
                          for i in range(len(crossing))],
                 [(shard, scales[ranks.start + shard]) for shard in group])
                for group in sharing.values()
            ]

            def part(array, start, stop):
                # A one-rank span writes its own array: views made here,
                # on a pool thread, raised dense_24q's peak RSS by up to
                # 1.5 MiB in 5 of 12 processes (2 vCPUs, 20 rounds each).
                shards = [array] if len(ranks) == 1 else array.reshape(len(ranks), -1)
                for factors, ((lead, scale), *rest) in groups[start:stop]:
                    first = shards[lead]
                    if scale != 0 or any(other != 0 for _, other in rest):
                        product_fill(first, factors)
                    for shard, other in rest:
                        _scale_into(shards[shard], first, other)
                    _scale_into(first, first, scale)

            return part, len(groups)

        with self.telemetry.tracer.span(
            "kernel.product", kind="kernel", ops=len(ops)
        ):
            self.storage.sweep(
                kernel_for,
                label=f"product write of {len(ops)} ops",
                overwrites=True,
            )
        self.layout = layout
        self.kernel_cost.record(self.num_qubits, 0, diagonal=True)

    def _sweep(
        self,
        gate: BlockGate,
        bits: Sequence[int],
        *,
        closing: Iterable[int] | None = None,
    ) -> None:
        """Run *gate* on physical *bits* over every shard, in one sweep.

        Targets must be local bits; a control on a global bit holds, on
        every rank, the value the rank number spells.  The kernel follows
        from the gate (:func:`_kernel`: the phase multiply when it has no
        targets, else the dense sweep), one per span the storage hands
        over: a control on a rank bit inside the span is a top bit of its
        longer vector, one above it is fixed by the span's ranks
        (:meth:`~repro.kernels.blocks.BlockGate.restrict`), and one kernel
        is built per value of those.  Every span shape does the same
        arithmetic on every amplitude, bit for bit.  Telemetry only times
        the sweep; it never picks the way.  A windowed dense sweep writes
        back in panel order, or in the staged order of the *closing* swap
        (:func:`_write_order`), and the state adopts the layout that leaves.
        """
        l = self.local_qubits
        if any(bits[j] >= l for j in gate.targets):
            raise NeedsSwapError(
                f"op acts densely on global bits "
                f"{[bits[j] for j in gate.targets if bits[j] >= l]}"
            )
        k, m = len(bits), len(gate.targets)
        order = _write_order(self.layout, gate, bits, closing)
        ranked = [j for j in gate.controls if bits[j] >= l]
        kernels: dict[tuple, tuple] = {}

        def kernel_for(ranks):
            width = l + len(ranks).bit_length() - 1
            fixed = {
                j: ranks.start >> (bits[j] - l) & 1
                for j in ranked if bits[j] >= width
            }
            key = (width, *fixed.values())
            if key not in kernels:
                kernels[key] = _kernel(
                    gate.restrict(fixed) if fixed else gate,
                    [b for j, b in enumerate(bits) if j not in fixed],
                    width, l, self.storage.dtype, order=order,
                )
            return kernels[key]

        sweep = partial(
            self.storage.sweep, kernel_for,
            label=f"op k={k} m={m} bits={list(bits)}",
        )
        tel = self.telemetry
        if tel.active:
            with tel.tracer.span(
                "kernel.apply", kind="kernel", k=k, diagonal=not m
            ):
                start = time.perf_counter()
                sweep()
                elapsed = time.perf_counter() - start
            tel.metrics.histogram("kernel.apply.seconds", k=k).observe(elapsed)
        else:
            sweep()
        if order is not None:
            self.layout = self.layout.permute_low_bits(order)
        # An op does 2**m multiply-adds per amplitude, m its dense width
        # (one multiply for a phase, m = 0).
        self.kernel_cost.record(self.num_qubits, m, diagonal=not m)

    # ------------------------------------------------------------------
    # Swaps (Sec. 3.4)
    # ------------------------------------------------------------------
    def _swap_local_bits(self, bit_a: int, bit_b: int) -> None:
        """Swap two local bits via a SWAP kernel on every span.

        The reference the composed :meth:`_apply_local_bit_permutation` is
        tested against.
        """
        l = self.local_qubits
        if not (bit_a < l and bit_b < l):
            raise ValueError("both bits must be local")
        if bit_a == bit_b:
            return
        with self.telemetry.tracer.span(
            "comm.staging_swap", kind="staging", bit_a=bit_a, bit_b=bit_b
        ):
            def part(array, start, stop):
                apply_gate_indexed(array, SWAP_MATRIX, (bit_a, bit_b))

            self.storage.sweep(
                lambda ranks: (part, 1),
                label=f"staging_swap bits={[bit_a, bit_b]}",
            )
        self.layout = self.layout.swap_bits(bit_a, bit_b)
        self.stats.record_local_swap()
        self.kernel_cost.record(self.num_qubits, 2)

    def _apply_local_bit_permutation(
        self, transpositions: Sequence[tuple[int, int]]
    ) -> None:
        """Apply a chain of local-bit swaps as ONE transposed copy per shard.

        Composes *transpositions* (the caller adopts the layout they lead
        to) into a single axis permutation of the shard viewed
        one axis per run of bits that move together, and applies it with
        strided ``np.copyto`` calls — bit-exact with the per-swap SWAP
        kernels it replaces (a pure index shuffle touches no amplitude
        arithmetic) at a fraction of the memory traffic, and with no
        index table of any size.  With no transpositions (the sweep
        before the swap staged it) nothing runs and nothing is counted.
        The shards of a span go ``2**16 >> l`` at a time, one copy per
        chunk of at most 1 MiB (a span of one shard: one copy), through a
        buffer lent to each part that may run at once: one a pool thread
        allocated and freed would stay in that thread's malloc arena.
        Swap/kernel counters still advance once per transposition so
        ``CommStats`` and the cost model keep their Sec. 3.4 accounting.
        """
        if not transpositions:
            return
        l = self.local_qubits
        # source_of[i]: the source bit whose value lands on destination bit i.
        source_of = list(range(l))
        for bit_a, bit_b in transpositions:
            source_of[bit_a], source_of[bit_b] = (
                source_of[bit_b], source_of[bit_a],
            )
        # One axis per maximal run of bits that keep their relative order
        # (top bit first on both sides).
        starts = [
            i for i in range(l)
            if i == 0 or source_of[i] != source_of[i - 1] + 1
        ]
        runs = [
            (source_of[lo], hi - lo) for lo, hi in zip(starts, starts[1:] + [l])
        ][::-1]
        by_source = sorted(runs, reverse=True)
        shape = [1 << width for _, width in by_source]
        axes = [by_source.index(run) for run in runs]
        # Axis 0 counts shards, each permuted alone.
        order = [0] + [a + 1 for a in axes]
        permuted_shape = [shape[a] for a in axes]

        lent = queue.SimpleQueue()

        def kernel_for(ranks):
            per = min(len(ranks), max(1, (1 << _CHUNK_QUBITS) >> l))
            # Made at the first span's call: spans have one size, and no
            # part runs before the last call.
            if lent.empty():
                for _ in range(self.storage.sweep_threads()):
                    lent.put(np.empty(per << l, dtype=self.storage.dtype))

            def part(array, start, stop):  # chunks of `per` shards
                buf = lent.get()
                try:
                    staged = buf.reshape(-1, *permuted_shape)
                    for shards in array.reshape(-1, per, 1 << l)[start:stop]:
                        np.copyto(staged, shards.reshape(-1, *shape).transpose(order))
                        np.copyto(shards, staged.reshape(shards.shape))
                finally:
                    lent.put(buf)

            return part, len(ranks) // per

        with self.telemetry.tracer.span(
            "comm.staging_swap", kind="staging", swaps=len(transpositions)
        ):
            self.storage.sweep(
                kernel_for,
                label=f"staging_swap transpositions={list(transpositions)}",
            )
        for _ in transpositions:
            self.stats.record_local_swap()
            self.kernel_cost.record(self.num_qubits, 2)

    def swap_global_set(self, new_global_qubits: Iterable[int]) -> None:
        """Global-to-local swap so that exactly *new_global_qubits* are global.

        Executes the Sec. 3.4 recipe :meth:`QubitLayout.plan_swap` returns:
        the free rank renumbering, the staging swaps of local bits, one
        q-qubit group-local all-to-all (Fig. 3).  The layout is adopted in
        two steps so it matches the amplitudes whenever the exchange can
        fail: a retried swap redoes the exchange alone.  When the sweep
        before the swap staged it already (:func:`_write_order`), the
        recipe has no transpositions and no staging copy runs.
        """
        step = self.layout.plan_swap(new_global_qubits)
        q = step.q
        if q == 0:
            return
        if step.rank_source is not None:
            self.storage.permute_shards(step.rank_source)
            self.stats.record_rank_renumbering()
        self._apply_local_bit_permutation(step.transpositions)
        self.layout = step.staged

        num_groups = 1 << (self.global_qubits - q)
        group_size = 1 << q
        shard_bytes = self.storage.shard_bytes
        moved_per_rank = shard_bytes * (group_size - 1) // group_size
        with self.telemetry.tracer.span(
            "comm.alltoall",
            kind="comm",
            q=q,
            num_groups=num_groups,
            group_size=group_size,
            bytes=moved_per_rank * group_size * num_groups,
        ):
            self.storage.exchange_blocks(q)
        self.stats.record_alltoall(
            num_groups=num_groups,
            group_size=group_size,
            shard_bytes=shard_bytes,
        )
        self.layout = step.after

    def make_local(self, qubits: Iterable[int]) -> None:
        """Ensure every qubit in *qubits* is local, evicting others.

        Victims are the lowest-bit local qubits not in *qubits* — the
        paper's upper-bound choice (Sec. 3.6.1) before its local search.
        """
        qubits = set(qubits)
        needed = sorted(q for q in qubits if not self.is_local(q))
        if not needed:
            return
        if len(qubits) > self.local_qubits:
            raise ValueError(
                f"cannot make {len(qubits)} qubits local with only "
                f"{self.local_qubits} local slots"
            )
        victims_pool = sorted(
            (q for q in self.local_qubit_set() if q not in qubits),
            key=self.bit_position,
        )
        victims = victims_pool[: len(needed)]
        new_global = (self.global_qubit_set() - set(needed)) | set(victims)
        self.swap_global_set(new_global)

    def swap_all_global_to_local(self) -> None:
        """Turn every global qubit local in one world all-to-all (Fig. 3)."""
        g = self.global_qubits
        if g == 0:
            return
        victims = sorted(self.local_qubit_set(), key=self.bit_position)[:g]
        self.swap_global_set(set(victims))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def shard_checksum(self, rank: int) -> int:
        """CRC32 of one shard's raw bytes (cheap end-to-end integrity)."""
        return zlib.crc32(np.ascontiguousarray(self.storage.read(rank)))

    def shard_checksums(self) -> list[int]:
        """Per-rank CRC32 checksums of every shard.

        The resilience layer records these after each operation and
        re-verifies them at swap boundaries: amplitudes only ever change
        through kernels and exchanges, so a silent mismatch means the data
        was corrupted at rest or in transit.
        """
        return [self.shard_checksum(r) for r in range(self.num_ranks)]

    def norm(self) -> float:
        """2-norm across all shards."""
        total = 0.0
        for r in range(self.num_ranks):
            shard = self.storage.read(r)
            total += float(np.vdot(shard, shard).real)
        return float(np.sqrt(total))

    def __repr__(self) -> str:
        return (
            f"DistributedState(n={self.num_qubits}, local={self.local_qubits}, "
            f"ranks={self.num_ranks})"
        )
