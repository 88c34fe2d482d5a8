"""Gate-application kernels over numpy state vectors.

Index conventions (little-endian) follow Sec. 2/3.2 of the paper: state
index bit ``q`` is the value of qubit ``q``; a gate bound to qubits
``(q0, .., q_{k-1})`` uses matrix row/column bit ``j`` for qubit ``qj``.

The dense kernel is table-free: :class:`DenseSweep` computes, once per
op, how the ``2**k`` amplitudes of every matrix-vector product are
reached from the target bit *positions* alone — strided views for
targets above a small window, one periodic in-window index (KiB, never
cached) for targets inside it, no copy at all for bottom-contiguous
targets — and then sweeps cache-sized blocks through reused per-thread
panels with ``np.copyto`` / ``np.take(..., out=)`` and one
``np.matmul(..., out=)`` per block, its controls' blocks stacked on a
batch axis.  Nothing the sweep needs grows with the shard.

Large sweeps run on every CPU: one process-wide pool (:func:`run_split`)
takes disjoint pieces of them, each through its own thread's panels, so
pooled and serial results agree bit for bit.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from typing import Sequence

import numpy as np

from repro.kernels.blocks import BlockGate
from repro.kernels.tables import (
    GATHER_CACHE,
    GatherTableCache,
    _build_diagonal_factor,
)
from repro.util.bits import bit_length_of_power_of_two, permuted_indices
from repro.util.executors import register_executor
from repro.util.validation import check_qubit_indices

__all__ = [
    "DenseSweep",
    "SPLIT_MIN_AMPLITUDES",
    "apply_gate_reference",
    "apply_gate_indexed",
    "apply_diagonal_gate",
    "apply_diagonal_factor",
    "apply_gate",
    "blas_threads",
    "chunk_for",
    "run_split",
    "split_sweep",
    "split_sweep_threads",
    "split_threads",
    "sweep_order",
]

#: Number of ``c`` substrings per block of a 4-qubit dense sweep: a
#: 256 KiB panel, so the copy-in, product and write-back panels of one
#: block share the L2 cache.  Measured on the reference host, a gate on
#: qubits (9, 12, 13, 17) of a 2**20 state: 5.5 ms per sweep at 1024,
#: 6.0-8.1 ms at 256/2048/4096/16384 and 7.6 ms as one block (12.4 ms
#: for the tensordot kernel).
DEFAULT_CHUNK = 1 << 10

#: Gate width :data:`DEFAULT_CHUNK` was measured on: the scheduler's
#: cluster width, which is what most dense ops are.
_CHUNK_GATE_QUBITS = 4


def chunk_for(k: int) -> int:
    """Blocking chunk of a k-qubit dense sweep.

    What :data:`DEFAULT_CHUNK` really fixes is the panel (``chunk *
    2**k`` amplitudes), so other gate widths scale the chunk to keep
    it.  Every dense sweep built without an explicit chunk uses this.
    """
    return max(1, (DEFAULT_CHUNK << _CHUNK_GATE_QUBITS) >> k)


_panel_buffers = threading.local()


def _panels(amplitudes: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """Two per-thread reusable flat panels of *amplitudes* entries each.

    One growing pair per thread and dtype: a sweep slices what its block
    needs, so the steady-state loop allocates nothing and a process
    holds at most its largest block twice.
    """
    pool = getattr(_panel_buffers, "pool", None)
    if pool is None:
        pool = _panel_buffers.pool = {}
    pair = pool.get(dtype.str)
    if pair is None or pair[0].shape[0] < amplitudes:
        pair = pool[dtype.str] = (
            np.empty(amplitudes, dtype=dtype),
            np.empty(amplitudes, dtype=dtype),
        )
    return pair[0][:amplitudes], pair[1][:amplitudes]


#: Fewest amplitudes every piece of a split sweep gets, or the sweep runs
#: serially.  Measured on the reference host (2 vCPUs, 1 BLAS thread;
#: ``benchmarks/bench_sweep_pool.py``, two runs), one array split in two,
#: pooled / serial time by piece size: a k = 4 sweep 0.76-1.20 at 2**16-
#: 2**17, 0.71-0.86 at 2**18-2**19, 0.56-0.82 at 2**20; a two-qubit phase
#: multiply 1.35-4.4 up to 2**17, 0.88-1.04 at 2**18, 0.72-0.95 at 2**19,
#: 0.57-0.72 at 2**20.  2**20 is past both crossovers in every run, and
#: above every shard of the job service's workloads, whose executor
#: threads already own the cores.
SPLIT_MIN_AMPLITUDES = 1 << 20

_CPUS = len(os.sched_getaffinity(0))
#: The sweep pool: ``None`` until first use, ``False`` when sweeps stay
#: serial (one CPU, or no way to pin BLAS to one thread).
_pool = None
_pool_lock = threading.Lock()
_pool_thread = threading.local()


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _openblas(action: str):
    """``openblas_<action>_num_threads`` of the OpenBLAS numpy loaded, or
    ``None`` (found by path in this process's memory map)."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        paths = []
    names = [f"{prefix}openblas_{action}_num_threads{suffix}"
             for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", ""))]
    return next((getattr(lib, name) for lib in map(ctypes.CDLL, paths)
                 for name in names if hasattr(lib, name)), None)


def blas_threads() -> int | None:
    """Threads the OpenBLAS numpy loaded may use (``None``: not found)."""
    getter = _openblas("get")
    return None if getter is None else int(getter())


def pin_blas() -> bool:
    """Pin OpenBLAS to one thread, for good; ``False`` when it is not
    found.  The sweep pool's GEMMs already fill the CPUs: BLAS threads
    would compete for them, and spin-wait on them between calls."""
    pin = _openblas("set")
    if pin is not None:
        pin(1)
    return pin is not None


def _sweep_pool() -> ThreadPoolExecutor | None:
    """The process-wide sweep pool, one thread per CPU; ``None`` when
    sweeps stay serial.  Starting it pins BLAS (:func:`pin_blas`)."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = _CPUS > 1 and pin_blas() and ThreadPoolExecutor(
                _CPUS, thread_name_prefix="repro-sweep",
                initializer=lambda: setattr(_pool_thread, "marked", True),
            )
            if _pool:
                register_executor(_pool)
        return _pool or None


def _split_pool(count: int, amplitudes: int) -> ThreadPoolExecutor | None:
    """The pool :func:`run_split` hands *count* items to, or ``None``."""
    if (count < 2 or amplitudes < SPLIT_MIN_AMPLITUDES
            or hasattr(_pool_thread, "marked")):
        return None
    return _sweep_pool()


def split_threads(count: int, amplitudes: int) -> int:
    """Threads :func:`run_split` runs *count* items of *amplitudes* on at
    once: the sweep pool's width, or 1 when they run inline.  What a
    caller lending each running item a buffer allocates (on its own
    thread: a buffer a pool thread frees stays in that thread's malloc
    arena)."""
    return _CPUS if _split_pool(count, amplitudes) else 1


def run_split(work, items, amplitudes: int) -> None:
    """``work(item)`` for every item, on the sweep pool when each item
    holds at least :data:`SPLIT_MIN_AMPLITUDES` (*amplitudes*: the
    smallest one's) and there are two or more; inline otherwise, and
    always when called from a pool thread, so nesting cannot deadlock.
    Items must touch disjoint amplitudes.  Returns once every item is
    done; the first failure in item order is re-raised.
    """
    pool = None
    if amplitudes >= SPLIT_MIN_AMPLITUDES:
        items = list(items)
        pool = _split_pool(len(items), amplitudes)
    if pool is None:
        for item in items:
            work(item)
        return
    futures = [pool.submit(work, item) for item in items]
    wait(futures)
    for future in futures:
        future.result()


def _split_parts(count: int, size: int, units: int) -> int:
    """Unit ranges :func:`split_sweep` cuts each of *count* arrays of
    *size* amplitudes and *units* units into."""
    return max(1, min(-(-_CPUS // count), units, size // SPLIT_MIN_AMPLITUDES))


def split_sweep(items) -> None:
    """``part(array, start, stop)`` over units ``0..units-1`` of every
    ``(part, array, units)`` item (arrays all of one size), through
    :func:`run_split`.

    Each array is cut into as many unit ranges as it takes to give every
    CPU a piece, none smaller than :data:`SPLIT_MIN_AMPLITUDES`; a unit
    is what its *part* sweeps as one (a :class:`DenseSweep` block, a row).
    """
    items = list(items)
    pieces, smallest = [], []
    for part, array, units in items:
        parts = _split_parts(len(items), array.size, units)
        pieces += [(part, array, i * units // parts, (i + 1) * units // parts)
                   for i in range(parts)]
        smallest.append(units // parts * array.size // units)
    run_split(lambda piece: piece[0](*piece[1:]), pieces, min(smallest, default=0))


def split_sweep_threads(count: int, size: int) -> int:
    """Most pieces :func:`split_sweep` runs at once over *count* arrays of
    *size* amplitudes: what a caller lending each running piece a buffer
    allocates."""
    parts = _split_parts(count, size, size)
    return split_threads(count * parts, size // parts)


def _num_qubits_of(state: np.ndarray) -> int:
    if state.ndim != 1:
        raise ValueError(f"state must be 1-D, got shape {state.shape}")
    return bit_length_of_power_of_two(state.shape[0])


def apply_gate_reference(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Tensor-contraction kernel via :func:`numpy.tensordot` (in place).

    Reshapes the state to an n-axis tensor (axis ``i`` = qubit ``n-1-i``)
    and contracts the gate over the target axes.  Fast and allocation-heavy
    (one full temporary) — the "two state vectors" baseline of Sec. 3.1
    expressed in idiomatic numpy.  It shares no code with the production
    kernels, and on an ``np.clongdouble`` state numpy runs it without
    BLAS: the tests' oracle (``oracle_state`` in ``tests/conftest.py``).
    """
    n = _num_qubits_of(state)
    qubits = check_qubit_indices(qubits, n)
    k = len(qubits)
    psi = state.reshape((2,) * n)
    gate_tensor = np.asarray(matrix, dtype=state.dtype).reshape((2,) * (2 * k))
    # Column (input) axis for gate bit j sits at 2k-1-j; state axis for
    # qubit q sits at n-1-q.
    col_axes = [2 * k - 1 - j for j in range(k)]
    state_axes = [n - 1 - q for q in qubits]
    out = np.tensordot(gate_tensor, psi, axes=(col_axes, state_axes))
    # Row axes of ``out`` are [bit k-1, ..., bit 0] = qubits reversed.
    out = np.moveaxis(out, range(k), [n - 1 - q for q in reversed(qubits)])
    state[:] = out.reshape(-1)
    return state


#: Widest periodic window: gates whose highest target sits below this
#: bit are resolved by one in-window index of at most 2**12 entries
#: (32 KiB), whatever the shard size.
_WINDOW_MAX_BITS = 12

#: Widest gate for which the real-block GEMM beats complex GEMM on the
#: reference host (small inner dimensions leave zgemm overhead-bound;
#: from k=4 up the two are within noise of each other).
_REAL_GEMM_MAX_QUBITS = 3


def _real_gemm_operand(matrix_t: np.ndarray) -> np.ndarray:
    """Real block matrix ``W`` with ``(g.view(real) @ W).view(complex) == g @ matrix_t``.

    Interleaved re/im columns: for ``y = x @ M`` with ``M = A + iB``,
    ``Re y_i = sum_j (Re x_j * A_ji - Im x_j * B_ji)`` and
    ``Im y_i = sum_j (Re x_j * B_ji + Im x_j * A_ji)`` — each complex
    product contributes two adjacent real terms, so one real GEMM over
    the float view computes the whole panel.  This is the paper's Sec. 3.2
    FMA trick — the complex update against pre-computed ``(mR, mR)`` and
    ``(-mI, mI)`` factor pairs — built once per op.  Only used for small
    gates (see :data:`_REAL_GEMM_MAX_QUBITS`).
    """
    d = matrix_t.shape[0]
    w = np.empty((2 * d, 2 * d), dtype=matrix_t.real.dtype)
    w[0::2, 0::2] = matrix_t.real
    w[1::2, 0::2] = -matrix_t.imag
    w[0::2, 1::2] = matrix_t.imag
    w[1::2, 1::2] = matrix_t.real
    return w


def _panel_order(
    positions: Sequence[int], controls: Sequence[int], w: int
) -> tuple[int, ...]:
    """The bits of a ``2**w`` window in the panel's order: the (sorted)
    target *positions*, then the in-window *controls* (sorted), then the
    other window bits, ascending."""
    rest = [p for p in range(w) if p not in positions]
    return (
        *positions,
        *(p for p in rest if p in controls),
        *(p for p in rest if p not in controls),
    )


def _window_index(
    positions: Sequence[int], w: int, controls: Sequence[int] = ()
) -> np.ndarray:
    """In-window source offsets that bring the target bits together.

    Entry ``j = c << k | x`` is the offset, inside a window of ``2**w``
    amplitudes, whose bits at the (sorted) target *positions* spell ``x``
    and whose other bits spell ``c`` — so gathering a window through it
    yields rows of ``2**k`` amplitudes ready for ``panel @ M.T``.  The
    in-window *controls* (sorted) are the low bits of ``c``, so a panel
    viewed as ``(-1, 2**d, 2**k)`` has one control value per middle
    index.  Every window of a shard uses this one index (it is
    periodic), which is why it is rebuilt per op and never stored.
    """
    return permuted_indices(_panel_order(positions, controls, w))


def sweep_order(
    gate: BlockGate, bits: Sequence[int], local_bits: int
) -> tuple[int, ...] | None:
    """The bit order a distributed sweep of *gate* on physical *bits*
    leaves a shard in: bit ``i`` then holds what bit ``order[i]`` held,
    for the window bits ``i < len(order)``; every other bit stays.

    A windowed :class:`DenseSweep` writes its GEMM product back in panel
    order (:func:`_panel_order`), so it needs no inverse take.  The
    order covers the window's bits below *local_bits*, so it never moves
    a rank bit: a sweep whose window holds one (a control from
    *local_bits* up, below :data:`_WINDOW_MAX_BITS`) leaves it in place,
    through one take, while a shard alone has no such bit and writes its
    panel straight back.  ``None`` for
    an op whose sweep writes back in place: one with no targets (the
    phase multiply) and one with a target from :data:`_WINDOW_MAX_BITS`
    up (the slab scheme).
    """
    if not gate.targets:
        return None
    pos = sorted(bits[j] for j in gate.targets)
    if pos[-1] >= _WINDOW_MAX_BITS:
        return None
    ctl = sorted(bits[j] for j in gate.controls)
    limit = min(local_bits, _WINDOW_MAX_BITS)
    return _panel_order(pos, ctl, 1 + max(p for p in pos + ctl if p < limit))


def _axes_above(low: int, n: int, controls: Sequence[int]):
    """Axes of bits ``low..n-1`` of a shard view, top bit first, with a
    size-2 axis per control: ``(shape, indices of the control axes)``."""
    edges = sorted({low, n}.union(controls, (p + 1 for p in controls)))
    shape = [1 << (hi - lo) for lo, hi in zip(edges[-2::-1], edges[:0:-1])]
    lows = edges[-2::-1]
    return shape, [i for i, lo in enumerate(lows) if lo in controls]


def _outer_blocks(shape, control_axes, mats, batch: int):
    """``(index, matrices)`` per block: the view index of each block of
    the looped axes *shape*, and the ``2**batch`` stack of matrices its
    control axes' values pick from *mats* (a stack of one with no batch
    axis).

    Control axes are top bit first and the controls of *mats* ascending,
    so the last control axis is the lowest looped control.
    """
    out = []
    for index in np.ndindex(*shape):
        value = 0
        for axis in control_axes:
            value = value << 1 | index[axis]
        lo = value << batch
        out.append((index, mats[lo:lo + (1 << batch)]))
    return out


class DenseSweep:
    """The paper's k-qubit kernel (Sec. 3.2) as a per-op sweep descriptor.

    Built once per op from the target bit positions of a ``2**n`` shard
    and applied to any number of shards (:meth:`apply`): every rank of a
    distributed state, a single state vector, one worker's shard.

    The gate may be a matrix or a :class:`~repro.kernels.blocks.BlockGate`;
    a matrix is scanned for *controls*, the bits it is exactly
    block-diagonal in (:func:`~repro.kernels.blocks.control_bits`).  The
    sweep runs the op as ``2**d`` blocks of a ``2**m`` gate (``m = k -
    d``): only the ``m`` target bits are gathered into the panel, a
    control above the panel's contiguous run is an outer loop axis whose
    value picks the block, and a control inside it is a batch axis of
    the panel's GEMMs.  Per amplitude that is ``2**m`` multiply-adds
    instead of ``2**k``; with no controls (``d = 0``) the sweep is the
    plain dense one.  Each block of ``chunk_size`` index substrings
    ``c`` (default :func:`chunk_for` of ``m``; rounded down to a power of
    two) then takes three steps through one of two address schemes,
    chosen from the highest target bit alone:

    * **window** (every target below bit :data:`_WINDOW_MAX_BITS`): the
      shard is a stack of windows ``(..., rows, 2**w)``, ``w`` reaching
      the highest gate bit below that limit; one ``np.take`` through the
      periodic in-window index gathers each ``c``'s amplitudes into a
      row (panel order: targets, then in-window controls, then the other
      window bits), ``panel @ M.T`` multiplies (a real GEMM for small
      gates), and the product is written back.  The in-window controls
      are the low bits of ``c``: the panel viewed as ``(2**d, rows,
      2**m)`` meets the stack of ``2**d`` blocks in one ``np.matmul``,
      each item a GEMM over every ``2**d``-th row.  A window already in
      panel order (targets the bottom ``m`` bits, ...) *is* such rows
      and skips the gather.
    * **slab** (some target above the window): the shard is viewed as
      ``reshape(hi, 2, .., 2, lo)`` with one size-2 axis per target and
      control, and one transposed ``np.copyto`` brings the block's
      ``2**m`` slabs into a contiguous ``(2**m, chunk)`` panel, with a
      leading batch axis for the controls inside it; ``M @ panel``
      multiplies and the mirror-image copy writes back.

    Either way a block is one ``np.matmul`` call, a stack of one when
    the block has no control inside it.

    A window's write-back leaves it in *order*: bit ``i`` of each
    window takes what bit ``order[i]`` held, for ``i < len(order)`` (the
    window reaches that far); the window's other bits stay.  A
    distributed sweep passes the panel order (:func:`sweep_order`), so
    the GEMM writes its product straight into the shard and no inverse
    take runs; the one before a swap may pass a composed order that also
    stages the swap, written back through one take, as is an order that
    keeps a rank bit of the window in place.  The caller records the
    layout that leaves.  Without *order* (single-vector callers:
    :func:`apply_gate_indexed`, the product write's factors) the inverse
    take restores the old order.

    The panels are per-thread buffers reused across calls, so the
    steady-state sweep allocates nothing, and nothing it uses grows with
    the shard: the panel holds ``DEFAULT_CHUNK << 4`` amplitudes whatever
    ``d`` is.
    """

    def __init__(
        self,
        n: int,
        matrix,
        qubits: Sequence[int],
        dtype,
        chunk_size: int | None = None,
        *,
        order: Sequence[int] | None = None,
    ) -> None:
        qubits = check_qubit_indices(qubits, n)
        k = len(qubits)
        dtype = np.dtype(dtype)
        gate = matrix
        if not isinstance(gate, BlockGate):
            matrix = np.asarray(matrix)
            if k == 0 or matrix.shape != (1 << k, 1 << k):
                raise ValueError(
                    f"matrix of shape {matrix.shape} does not act on "
                    f"{k} qubit(s)"
                )
            gate = BlockGate.of(matrix)
        elif gate.num_bits != k:
            raise ValueError(f"{gate.num_bits}-bit gate on {k} qubit(s)")
        if len(gate.controls) == k:
            # All controls (a diagonal): the lowest-placed bit is the target.
            lowest = min(range(k), key=qubits.__getitem__)
            gate = BlockGate.split(
                gate.dense(), [j for j in gate.controls if j != lowest]
            )
        # Targets and controls by ascending position: block row bit i is
        # the i-th lowest target, block index bit i the i-th lowest control.
        t_order = sorted(gate.targets, key=qubits.__getitem__)
        c_order = sorted(gate.controls, key=qubits.__getitem__)
        pos = [qubits[j] for j in t_order]
        ctl = [qubits[j] for j in c_order]
        m, d = len(pos), len(ctl)
        t_perm = permuted_indices([gate.targets.index(j) for j in t_order])
        c_perm = permuted_indices([gate.controls.index(j) for j in c_order])
        blocks = np.asarray(gate.blocks, dtype=dtype)[
            c_perm[:, None, None], t_perm[None, :, None], t_perm[None, None, :]
        ]
        #: The sweep's dense width and control count.
        self.dense_bits, self.controls = m, d

        total_c = 1 << (n - m)
        if chunk_size is None:
            chunk_size = chunk_for(m)
        chunk = min(int(chunk_size), total_c)
        cbits = max(chunk, 1).bit_length() - 1
        self._dtype = dtype
        self._index = self._write = self._real = self._perm = None
        self._windowed = pos[-1] < _WINDOW_MAX_BITS
        order = () if order is None else tuple(order)
        if order and not self._windowed:
            raise ValueError(f"targets {pos} outside the window {order}")
        if self._windowed:
            # The window reaches the highest gate bit below its limit (so
            # a control above it leaves blocks of 2**12 amplitudes or
            # more) and every bit *order* moves; the rest stay put.
            w = max(
                1 + max(p for p in pos + ctl if p < _WINDOW_MAX_BITS),
                len(order),
            )
            order += tuple(range(len(order), w))
            inner = [p for p in ctl if p < w]
            outer = ctl[len(inner):]
            rb = min(max(0, cbits - (w - m)), (outer[0] if outer else n) - w)
            shape, ctl_axes = _axes_above(w + rb, n, outer)
            self._shape = (*shape, 1 << rb, 1 << w)
            self._block_shape = (1 << rb, 1 << w)
            self._block_size = 1 << (rb + w)
            self._gemm_shape = (-1, 1 << len(inner), 1 << m)
            panel = _panel_order(pos, inner, w)
            gather = _window_index(pos, w, inner)
            if panel != tuple(range(w)):
                self._index = gather
            if order != panel:
                # Panel slot j holds source offset gather[j]; destination
                # offset o takes the source offset whose bit order[i] is
                # bit i of o.
                slot = np.empty_like(gather)
                slot[gather] = np.arange(1 << w)
                self._write = slot[permuted_indices(order)]
            mats = np.ascontiguousarray(blocks.transpose(0, 2, 1))
            if m <= _REAL_GEMM_MAX_QUBITS and dtype.kind == "c":
                self._real = mats.real.dtype
                mats = np.stack([_real_gemm_operand(b) for b in mats])
            self._outer = _outer_blocks(shape, ctl_axes, mats, len(inner))
            return
        # Slab scheme.  Axes of the shard view, top bit first: a size-2
        # axis per target and per control; the other runs between them,
        # split where the block's ``cbits`` lowest non-target bits end.
        b, left = 0, cbits
        while left:
            left -= b not in pos
            b += 1
        cut = {0, b, n}.union(pos, ctl, (p + 1 for p in pos), (p + 1 for p in ctl))
        edges = sorted(cut)
        shape, kinds = [], []
        for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
            shape.append(1 << (hi - lo))
            kinds.append(
                "x" if lo in pos else
                ("batch" if hi <= b else "ctl") if lo in ctl else
                "in" if hi <= b else "out"
            )
        axes = {kind: [i for i, a in enumerate(kinds) if a == kind]
                for kind in ("out", "ctl", "batch", "x", "in")}
        # The panel's own axis order is free, and numpy's copy loop runs
        # over its innermost axis: put the longest non-target run there.
        # (With the shard's order a gate on bits 1-2 copies 2-amplitude
        # runs: 48 ms per k=4 sweep of a 2**22 shard instead of 33.)
        axes["in"].sort(key=shape.__getitem__)
        looped = sorted(axes["out"] + axes["ctl"])
        self._shape = tuple(shape)
        self._perm = (*looped, *axes["batch"], *axes["x"], *axes["in"])
        batch = len(axes["batch"])
        self._block_shape = (
            *(2,) * (batch + m), *(shape[i] for i in axes["in"])
        )
        self._block_size = math.prod(self._block_shape)
        self._gemm_shape = (1 << batch, 1 << m, -1)
        self._outer = _outer_blocks(
            [shape[i] for i in looped],
            [looped.index(i) for i in axes["ctl"]],
            np.ascontiguousarray(blocks), batch,
        )

    @property
    def num_blocks(self) -> int:
        """Blocks per shard; ``apply(shard, i, j)`` sweeps blocks ``i..j-1``."""
        return len(self._outer)

    def bind(self, start: int = 0, stop: int | None = None):
        """A ``run(shard)`` callable sweeping blocks ``start..stop-1``.

        Resolves the calling thread's panels and every view of them once,
        so sweeping many shards (every rank of an op) pays per shard only
        for the shard's own views.  The callable belongs to the thread
        that bound it.
        """
        a, b = (
            buf.reshape(self._block_shape)
            for buf in _panels(self._block_size, self._dtype)
        )
        shape, perm = self._shape, self._perm
        gemm_shape, blocks = self._gemm_shape, self._outer[start:stop]
        if not self._windowed:
            panel, product = a.reshape(gemm_shape), b.reshape(gemm_shape)

            def run(shard: np.ndarray) -> np.ndarray:
                view = shard.reshape(shape).transpose(perm)
                for outer, matrices in blocks:
                    block = view[outer]
                    np.copyto(a, block)
                    np.matmul(matrices, panel, out=product)
                    np.copyto(block, b)
                return shard

            return run
        index, write, real = self._index, self._write, self._real

        def stacked(rows: np.ndarray) -> np.ndarray:
            # ``(2**d, rows, 2**m)``: one GEMM per in-window control value,
            # over every 2**d-th row (a strided operand BLAS takes as is),
            # all in one matmul call.
            rows = rows.reshape(gemm_shape)
            if real is not None:
                rows = rows.view(real)
            return rows.transpose(1, 0, 2)

        panel, product = stacked(b), stacked(a)

        def run(shard: np.ndarray) -> np.ndarray:
            view = shard.reshape(shape)
            for outer, matrices in blocks:
                block = view[outer]
                if index is None:
                    # The window is in panel order already: the shard's
                    # rows are the panel.
                    np.matmul(stacked(block), matrices, out=product)
                else:
                    # (The method, not ``np.take``: its Python wrapper is a
                    # tenth of a sweep over a 2**11-amplitude shard.)
                    block.take(index, axis=-1, out=b, mode="clip")
                    if write is None:  # left in panel order
                        np.matmul(panel, matrices, out=stacked(block))
                        continue
                    np.matmul(panel, matrices, out=product)
                if write is None:
                    np.copyto(block, a)
                else:
                    a.take(write, axis=-1, out=block, mode="clip")
            return shard

        return run

    def apply(
        self, shard: np.ndarray, start: int = 0, stop: int | None = None
    ) -> np.ndarray:
        """Apply the gate to *shard* in place (blocks ``start..stop-1``).

        Distinct blocks touch disjoint amplitudes, so block ranges can be
        swept concurrently from different threads.
        """
        return self.bind(start, stop)(shard)


def apply_gate_indexed(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    *,
    chunk_size: int | None = None,
) -> np.ndarray:
    """The paper's kernel on one state vector, in place.

    Splits every state index into the ``c`` substring and the ``x``
    substring (Sec. 3.2) and multiplies each block of ``chunk_size``
    substrings (default :func:`chunk_for`) by the gate in one BLAS call —
    the numpy analogue of the paper's register/MCDRAM blocking.  A
    one-shard :class:`DenseSweep`: the distributed state builds the same
    descriptor once per op and applies it to every rank, so per-rank and
    all-ranks executions agree bit for bit.
    """
    n = _num_qubits_of(state)
    return DenseSweep(n, matrix, qubits, state.dtype, chunk_size).apply(state)


def apply_diagonal_factor(state: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """Multiply *state* by a phase factor from ``GatherTableCache.diagonal_factor``.

    The factor is either a flat ``2**n`` vector — one contiguous SIMD
    multiply — or, for states too large to expand, a broadcastable
    tensor over the ``(2,)*n`` view.  *state* may also be a stack of
    states (any view whose last axis is a ``2**n`` row): every row gets
    the factor.
    """
    if factor.ndim == 1:
        state *= factor
    else:
        psi = state.reshape(state.shape[:-1] + (2,) * factor.ndim)
        psi *= factor
    return state


def apply_diagonal_gate(
    state: np.ndarray,
    diag: np.ndarray,
    qubits: Sequence[int],
    *,
    cache: GatherTableCache | None = GATHER_CACHE,
) -> np.ndarray:
    """Apply a diagonal gate given its diagonal (length ``2**k``), in place.

    One complex multiply per amplitude — no index gather, no temporary of
    state size.  This is the specialization that makes CZ and T gates
    (Sec. 3.5) cheap even locally.  The phase factor is memoized in
    *cache* (default: the process-wide
    :data:`~repro.kernels.tables.GATHER_CACHE`; pass ``None`` to rebuild
    per call).
    """
    n = _num_qubits_of(state)
    qubits = check_qubit_indices(qubits, n)
    diag = np.asarray(diag, dtype=state.dtype)
    if cache is not None:
        factor = cache.diagonal_factor(n, qubits, diag)
    else:
        factor = _build_diagonal_factor(diag, qubits, n)
    return apply_diagonal_factor(state, factor)


def apply_gate(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Sequence[int],
    *,
    diagonal: bool,
) -> np.ndarray:
    """Apply a gate matrix to one state vector, in place, through one of
    the two production kernels: the phase multiply
    (:func:`apply_diagonal_gate`) when *diagonal* says the matrix is
    diagonal (e.g. :attr:`~repro.gates.Gate.is_diagonal`), the dense
    sweep (:func:`apply_gate_indexed`) at any width otherwise.
    """
    if diagonal:
        return apply_diagonal_gate(state, np.diagonal(matrix), qubits)
    return apply_gate_indexed(state, matrix, qubits)
