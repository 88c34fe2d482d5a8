"""Shard storage backends for the distributed state.

A "node" owns one shard of ``2**l`` amplitudes.  Two backends implement
the same interface:

* :class:`InMemoryShards` — one numpy array per rank, all in process
  memory; the stand-in for MPI ranks with DRAM-resident state.
* :class:`DiskShards` — one raw file per rank, streamed through RAM with
  ``preadv``/``pwrite``; the SSD-backed mode the paper's outlook
  describes (feasible because the whole circuit needs only two
  all-to-alls).  Sweeps and block exchanges run with bounded memory.

The key collective is :meth:`ShardStorage.exchange_blocks` — the q-qubit
global-to-local swap of Fig. 3: within every group of ``2**q`` consecutive
ranks, rank ``h*2**q + s`` sends its ``b``-th block to rank ``h*2**q + b``,
which stores it as its ``s``-th block.

Loop order
----------
Every writer reaches amplitudes through :meth:`ShardStorage.sweep`, and
only the backend knows how its shards lie: it asks the writer for one
kernel per *span*, a run of consecutive ranks it hands over as one array
(the block of all small in-memory shards is one span, any other shard
one of its own).  The in-memory backend runs the kernels on the spot,
cut into pieces for every CPU through the sweep pool of
:mod:`repro.kernels`; :class:`DiskShards` *defers* them, keyed
by file, and its stage flush streams every file through a RAM buffer
once: ``preadv`` the shard, run all its pending kernels in order,
``pwrite`` it back — one read and one write per shard per *stage*, not
per op.  Files are independent within a stage, so a flush with enough
work (a file's amplitudes times its passes — load, pending kernels,
store — reaching :data:`~repro.kernels.apply.SPLIT_MIN_AMPLITUDES`)
hands whole files to the sweep pool, one staging buffer per pool
thread.  Whatever needs
amplitudes (``get``, ``exchange_blocks``, ``drain``, ``close``) flushes
first, so every reader sees every enqueued op (a layer that reads after
each op degrades the run to op-major);
``set`` replaces a shard and drops what was pending on it.  A store lands
in the page cache: nothing is durable per op, :meth:`DiskShards.drain`
(run end under a pipeline layer, ``close()``) is where files are fsynced.

:meth:`ShardStorage.arm_pipeline` hands the backend the pipeline layer's
single worker.  While armed, a flush that stays on the calling thread
loads the next ``depth - 1`` files on it while the calling thread
computes on the current one, and stores the previous one behind it (at
most ``depth + 1`` shard-sized buffers); an exchange reads the next
block pair while the current one is written.  A pooled flush overlaps
files with each other instead and uses no worker.  Every file's kernels
run in enqueue order, one file on one thread at a time: pooled,
pipelined and serial runs are bit-exact.
"""

from __future__ import annotations

import abc
import os
import queue
import sys
import threading
import time
from collections import deque
from concurrent.futures import Future, wait
from functools import partial
from pathlib import Path

import numpy as np

import repro.kernels.apply as kernels
from repro.kernels.apply import (
    run_split,
    split_sweep,
    split_sweep_threads,
    split_threads,
)
from repro.telemetry.runtime import NULL_TELEMETRY
from repro.util.validation import check_power_of_two

__all__ = [
    "ShardStorage",
    "InMemoryShards",
    "DiskShards",
    "ShardIOError",
]

#: Largest shard kept back to back with its neighbours in one array: the
#: size up to which malloc would carve each from the heap anyway (glibc's
#: mmap threshold), and a dense sweep of one costs little more than the
#: ~10 us it takes to dispatch it.
_BLOCK_SHARD_BYTES = 1 << 17

#: Staging budget of the in-memory block exchange (two tiles of blocks):
#: half of the 2 MiB L2, so a tile is still cached when it is written back.
_EXCHANGE_STAGE_BYTES = 1 << 20

#: Smallest in-memory shard array that goes to the next storage of its
#: shape when its storage is freed: glibc's largest mmap threshold.
#: malloc maps every allocation this large afresh, and the kernel faults
#: in and zeroes each page on first touch (a ``product_fill`` of one
#: 64 MiB shard: 30.3 ms on fresh pages, 19.0 ms on reused ones, median
#: of 9, 2-vCPU Xeon); smaller ones reuse freed heap memory anyway.
_RECYCLE_MIN_BYTES = 32 << 20


def _refcounts(arrays: list) -> list[int]:
    return [sys.getrefcount(array) for array in arrays]


#: What :func:`_refcounts` reads for an array only its list references.
_UNSHARED_REFS = _refcounts([np.empty(0)])[0]


class _SpareArrays:
    """The large shard arrays of the last :class:`InMemoryShards` freed,
    kept for the next storage of their size and dtype (one list per
    process, behind a lock: service workers build and drop states on
    several threads at once).

    It holds at most one storage's arrays: :meth:`give` replaces what
    was held, and a :meth:`take` that finds no array of the size and
    dtype asked for drops every one before its caller allocates.  Live
    plus spare bytes so never pass what was live before the last free.
    """

    def __init__(self) -> None:
        # Re-entrant: the collector may free a storage, which gives its
        # arrays back, on a thread inside ``take``.
        self._lock = threading.RLock()
        self._arrays: list[np.ndarray] = []

    def take(self, size: int, dtype: np.dtype) -> np.ndarray | None:
        """An array of *size* elements of *dtype*, holding whatever its
        last storage left there; ``None`` (and nothing held) if none."""
        with self._lock:
            arrays = self._arrays
            for i, array in enumerate(arrays):
                if array.size == size and array.dtype == dtype:
                    return arrays.pop(i)
            self._arrays = []
        return None

    def give(self, arrays: list[np.ndarray]) -> None:
        """Hold *arrays* in place of what was held, bar those something
        else still references (a view :meth:`ShardStorage.read` handed
        out, say): their bytes must not change under it."""
        unshared = [
            array for array, refs in zip(arrays, _refcounts(arrays))
            if refs <= _UNSHARED_REFS
        ]
        with self._lock:
            self._arrays = unshared

    @property
    def nbytes(self) -> int:
        """Bytes held."""
        with self._lock:
            return sum(array.nbytes for array in self._arrays)


_SPARES = _SpareArrays()


class ShardStorage(abc.ABC):
    """Interface shared by the in-memory and on-disk shard backends.

    The public methods live here and a backend implements the ``_``
    methods they call, so the init is kept in one place:
    :meth:`initialize` records it as :attr:`pending`.  :meth:`read`,
    :meth:`drain`, the writers (:meth:`set`, :meth:`sweep`,
    :meth:`exchange_blocks`, :meth:`permute_shards`) and the hand-out of
    a writable shard (:meth:`get`) write it first, unless they overwrite
    every amplitude (``overwrites=True``).  Writers end
    :attr:`fresh_init`.
    """

    num_shards: int
    shard_size: int
    dtype: np.dtype
    #: The owning state's bundle (``use_telemetry`` sets it).
    telemetry = NULL_TELEMETRY
    #: ``"zero"`` / ``"plus"`` while the shards hold exactly that init,
    #: written or :attr:`pending`, and no writer has run since.
    fresh_init: str | None = None
    #: A fill is owed before any amplitude is read: the init, or zeros
    #: where no init was given (over another state's recycled arrays).
    pending = False
    #: Bytes of the shard arrays held in RAM, by where their pages came
    #: from: ``"fresh"`` (``np.zeros``) or ``"recycled"`` (a freed
    #: storage's); none for shards kept in files.
    page_bytes: dict[str, int] = {}

    def initialize(self, init: str) -> None:
        """Hold ``|0...0>`` (``"zero"``) or ``|+...+>`` (``"plus"``)."""
        if init not in ("zero", "plus"):
            raise ValueError(f"unknown init {init!r}")
        self.fresh_init, self.pending = init, True

    def _materialize(self, *, overwrites: bool = False) -> None:
        """Write the pending init (one fill per span), or drop it when
        the caller *overwrites* it all."""
        if self.pending and not overwrites:
            n = (self.num_shards * self.shard_size).bit_length() - 1
            amp = 2.0 ** (-n / 2) if self.fresh_init == "plus" else 0
            zero = self.fresh_init == "zero"

            def fill(array, start, stop, first):
                array[:] = amp
                if first:
                    array[0] = 1.0

            self._sweep(
                [(ranks, partial(fill, first=zero and ranks.start == 0), 1)
                 for ranks in self._spans()],
                label=f"init {self.fresh_init or 'zeros'}",
                overwrites=True,
            )
        self.pending = False

    def _write(self, *, overwrites: bool = False) -> None:
        """Every writer's first step."""
        self._materialize(overwrites=overwrites)
        self.fresh_init = None

    def get(self, rank: int) -> np.ndarray:
        """The shard owned by *rank*, as a mutable array (view where
        possible); a writer."""
        self._write()
        return self._get(rank)

    def read(self, rank: int) -> np.ndarray:
        """The shard owned by *rank*, read-only; not a writer."""
        self._materialize()
        view = self._get(rank).view()
        view.flags.writeable = False
        return view

    def set(self, rank: int, data: np.ndarray) -> None:
        """Replace the shard owned by *rank*."""
        if data.shape != (self.shard_size,):
            raise ValueError(f"shard must have shape ({self.shard_size},)")
        self._write()
        self._set(rank, data)

    def exchange_blocks(self, swap_qubits: int) -> None:
        """Fig. 3 block exchange over groups of ``2**swap_qubits`` ranks."""
        self._write()
        self._exchange_blocks(swap_qubits)

    def permute_shards(self, permutation: np.ndarray) -> None:
        """Relabel shards: new shard ``i`` is old shard ``permutation[i]``.

        This is the rank renumbering of Sec. 3.5 — free on MPI, a pointer
        shuffle here.
        """
        self._check_permutation(permutation)
        self._write()
        self._permute_shards(permutation)

    def sweep(self, kernel_for, *, label: str = "", overwrites=False) -> None:
        """Run a kernel in place on every *span* — the one way amplitudes
        are written outside the collectives.

        A span is a ``range`` of consecutive ranks whose shards the
        backend holds as one array, in rank order: bit ``l + i`` of an
        index into it is bit ``i`` of ``rank - ranks.start``.  The block
        of all in-memory shards is one span, ``range(0, num_shards)``;
        any other shard is ``range(r, r + 1)``.  ``kernel_for(ranks)`` is
        called once per span, on the calling thread, and returns ``(part,
        units)``: ``part(array, start, stop)`` sweeps units
        ``start..stop-1`` of the span's array, in place.  ``None`` leaves
        the span alone.

        Parts may run on any thread, several at once on distinct units,
        and later than the call (until :meth:`flush`).  *label* names the
        op (kind, k, bits) for the error of a kernel that fails later than
        its op; *overwrites* promises that every part replaces its span
        without reading it (a span left alone then still gets a pending
        init).
        """
        spans = self._spans()
        given = [(ranks, *kernel) for ranks in spans
                 if (kernel := kernel_for(ranks)) is not None]
        overwrites = overwrites and len(given) == len(spans)
        self._write(overwrites=overwrites)
        self._sweep(given, label=label, overwrites=overwrites)

    @abc.abstractmethod
    def _get(self, rank: int) -> np.ndarray:
        """The shard owned by *rank*, as a mutable array."""

    @abc.abstractmethod
    def _set(self, rank: int, data: np.ndarray) -> None:
        """Replace the shard owned by *rank* (*data* has its shape)."""

    @abc.abstractmethod
    def _exchange_blocks(self, swap_qubits: int) -> None: ...

    @abc.abstractmethod
    def _permute_shards(self, permutation: np.ndarray) -> None: ...

    def _spans(self) -> list[range]:
        """The spans :meth:`sweep` walks: one rank each, unless the
        backend keeps shards side by side."""
        return [range(rank, rank + 1) for rank in range(self.num_shards)]

    @abc.abstractmethod
    def _sweep(self, parts, *, label: str, overwrites: bool) -> None:
        """Run (or defer) every ``(ranks, part, units)`` of *parts*."""

    @abc.abstractmethod
    def sweep_threads(self) -> int:
        """Most parts of one sweep that run at once: what a part needing
        scratch is lent, one buffer per running part."""

    def flush(self) -> None:
        """Run every deferred sweep (nothing is ever deferred here)."""

    # -- pipelining hooks (no-ops for memory-resident backends) --------
    def arm_pipeline(self, executor, *, depth: int = 1, observer=None) -> None:
        """Enable background I/O overlap using *executor* (no-op here)."""

    def disarm_pipeline(self) -> None:
        """Disable background I/O overlap, free its buffers (no-op here)."""

    def drain(self) -> None:
        """Make everything written so far durable (no-op here)."""

    # ------------------------------------------------------------------
    def _check_permutation(self, permutation) -> None:
        if sorted(permutation) != list(range(self.num_shards)):
            raise ValueError("permutation must be a bijection over ranks")

    def _check_exchange_args(self, swap_qubits: int) -> tuple[int, int, int]:
        group = 1 << swap_qubits
        if group > self.num_shards:
            raise ValueError(
                f"cannot swap {swap_qubits} qubits across {self.num_shards} shards"
            )
        block = self.shard_size // group
        if block * group != self.shard_size:
            raise ValueError("shard size not divisible into blocks")
        num_groups = self.num_shards // group
        return group, block, num_groups

    @property
    def shard_bytes(self) -> int:
        """Size of one shard in bytes."""
        return self.shard_size * np.dtype(self.dtype).itemsize


class InMemoryShards(ShardStorage):
    """All shards live in process memory.

    Shards of up to :data:`_BLOCK_SHARD_BYTES` are views into one array,
    back to back in rank order, so a sweep takes them all at once (one
    span) instead of dispatching ``2**g`` times.
    Larger ones are one array each: dispatch is noise next to their
    sweep, and one allocation of the whole state fragments the heap of a
    long-lived process.  With
    every in-memory state made one block (2-vCPU Xeon, benchmark seed 0,
    runs alternated), ``service_mix`` peak RSS rose from 140.4 / 140.7 /
    141.3 MiB to 151.7–154.5 MiB (+8–10 %) while its ``run_s`` stayed
    within noise (1.17–1.28 s one block, 1.20–1.26 s split), and
    ``dense_24q`` did not move (``run_s`` 0.40–0.42 s against 0.38–0.41 s,
    peak RSS 314.8 against 315.1 MiB).

    An array of at least :data:`_RECYCLE_MIN_BYTES` (a large shard, or a
    large block) comes from the arrays the last storage freed when one
    has its size and dtype, and goes back to them when this storage is
    freed (by reference counting: nothing here refers back to it), unless
    something else still references it.  Such an array still holds a
    dropped state's amplitudes, so a storage built on one owes a zero
    fill (:attr:`pending`) until :meth:`initialize` or a write of every
    amplitude says otherwise: it reads as zeros, as fresh pages do.
    :attr:`page_bytes` counts the bytes allocated fresh and recycled.

    The exchange transposes each group's matrix of blocks tile by tile
    through two stage buffers.  On the block, a tile pair over as many
    groups as the stage holds is four ``np.copyto`` calls (two in, two
    transposed back); one array per shard takes ``4 * tile`` row copies.
    On 1024 shards of ``2**11`` amplitudes (2-vCPU Xeon, median of 9,
    two processes a side) the block copies took a q = 9 exchange from
    27–29 to 8–10 ms and a q = 6 one from 12–14 to 4.5–6 ms.
    """

    def __init__(
        self, num_shards: int, shard_size: int, dtype=np.complex128
    ) -> None:
        #: The arrays ``__del__`` hands on.
        self._recyclable: list[np.ndarray] = []
        check_power_of_two(num_shards, "num_shards")
        check_power_of_two(shard_size, "shard_size")
        self.num_shards = num_shards
        self.shard_size = shard_size
        self.dtype = np.dtype(dtype)
        self.page_bytes = {"fresh": 0, "recycled": 0}
        self._block = self._allocate()
        if self._block is None:
            self._shards = [self._array(shard_size) for _ in range(num_shards)]
        else:
            self._shards = list(self._block.reshape(num_shards, shard_size))
        self.pending = self.page_bytes["recycled"] > 0

    def __del__(self) -> None:
        recyclable, self._recyclable = self._recyclable, []
        # The views go first: each one refers to its array.
        self._shards = self._block = None
        if recyclable:
            _SPARES.give(recyclable)

    def _allocate(self) -> np.ndarray | None:
        """The array holding every shard, or ``None`` for one array each."""
        if self.shard_bytes > _BLOCK_SHARD_BYTES:
            return None
        return self._array(self.num_shards * self.shard_size)

    def _array(self, size: int) -> np.ndarray:
        """*size* amplitudes: a freed storage's array when it is large
        and one of that size is spare, else zeros on fresh pages."""
        nbytes = size * self.dtype.itemsize
        if nbytes < _RECYCLE_MIN_BYTES:
            self.page_bytes["fresh"] += nbytes
            return np.zeros(size, dtype=self.dtype)
        array = _SPARES.take(size, self.dtype)
        if array is None:
            array = np.zeros(size, dtype=self.dtype)
            self.page_bytes["fresh"] += nbytes
        else:
            self.page_bytes["recycled"] += nbytes
        self._recyclable.append(array)
        return array

    def _spans(self) -> list[range]:
        if self._block is None:
            return super()._spans()
        return [range(self.num_shards)]

    def _sweep(self, parts, *, label: str, overwrites: bool) -> None:
        """Run the parts here and now, in pieces of at least
        :data:`~repro.kernels.apply.SPLIT_MIN_AMPLITUDES` on the sweep pool."""
        split_sweep(
            (part, self._shards[ranks.start] if self._block is None
             else self._block, units)
            for ranks, part, units in parts
        )

    def sweep_threads(self) -> int:
        spans = self._spans()
        return split_sweep_threads(len(spans), len(spans[0]) * self.shard_size)

    def _get(self, rank: int) -> np.ndarray:
        return self._shards[rank]

    def _set(self, rank: int, data: np.ndarray) -> None:
        self._shards[rank][:] = data

    def _exchange_blocks(self, swap_qubits: int) -> None:
        # shard[s] block t <-> shard[t] block s within each group: the
        # all-to-all of Fig. 3 is the transpose of the group's
        # (group x group) matrix of blocks, done in place tile by tile
        # through two tiles of staging.  Once eight blocks exceed
        # _EXCHANGE_STAGE_BYTES the tile is one block and this is the
        # pairwise swap.
        group, block, num_groups = self._check_exchange_args(swap_qubits)
        block_bytes = block * self.dtype.itemsize
        tile = 1
        while (
            tile < group
            and 2 * (2 * tile) ** 2 * block_bytes <= _EXCHANGE_STAGE_BYTES
        ):
            tile *= 2
        if self._block is None:
            self._exchange_rows(group, block, tile)
            return
        # The block is (groups, group, group, block): a tile pair is four
        # copies over `span` groups at once (two in, two transposed back),
        # so 1024 ranks x 4-amplitude blocks take ~150 calls, not a
        # Python loop over rows.
        span = 1
        while (
            span < num_groups
            and 2 * (2 * span) * tile ** 2 * block_bytes <= _EXCHANGE_STAGE_BYTES
        ):
            span *= 2
        blocks = self._block.reshape(num_groups, group, group, block)
        stage_a = np.empty((span, tile, tile, block), dtype=self.dtype)
        stage_b = np.empty_like(stage_a)
        back_a = stage_a.transpose(0, 2, 1, 3)
        back_b = stage_b.transpose(0, 2, 1, 3)
        for base in range(0, num_groups, span):
            groups = blocks[base:base + span]
            for i, j in self._exchange_tiles(group, tile):
                a = groups[:, i:i + tile, j:j + tile]
                np.copyto(stage_a, a)
                if i == j:
                    np.copyto(a, back_a)
                    continue
                b = groups[:, j:j + tile, i:i + tile]
                np.copyto(stage_b, b)
                np.copyto(a, back_b)
                np.copyto(b, back_a)

    def _exchange_rows(self, group: int, block: int, tile: int) -> None:
        """The exchange over one array per shard: a tile pair costs
        ``4 * tile`` row copies for ``tile**2`` block swaps."""
        stage_a = np.empty((tile, tile, block), dtype=self.dtype)
        stage_b = np.empty_like(stage_a)
        steps = range(tile)
        for base in range(0, self.num_shards, group):
            rows = [
                shard.reshape(group, block)
                for shard in self._shards[base:base + group]
            ]
            for i, j in self._exchange_tiles(group, tile):
                if i == j:
                    for a in steps:
                        stage_a[a] = rows[i + a][i:i + tile]
                    for a in steps:
                        rows[i + a][i:i + tile] = stage_a[:, a]
                    continue
                for a in steps:
                    stage_a[a] = rows[i + a][j:j + tile]
                for b in steps:
                    stage_b[b] = rows[j + b][i:i + tile]
                for a in steps:
                    rows[i + a][j:j + tile] = stage_b[:, a]
                for b in steps:
                    rows[j + b][i:i + tile] = stage_a[:, b]

    @staticmethod
    def _exchange_tiles(group: int, tile: int):
        """Every ``(tile row i, tile column j >= i)`` of one group's
        exchange.  Each names a set of blocks no other tile touches (the
        tile and its mirror image), so tiles can run in any order.  A
        diagonal tile of one block stays put and is not listed."""
        for i in range(0, group, tile):
            for j in range(i if tile > 1 else i + tile, group, tile):
                yield i, j

    def _permute_shards(self, permutation: np.ndarray) -> None:
        if self._block is None:
            self._shards = [self._shards[int(p)] for p in permutation]
            return
        # The block stays in rank order: shards move along the cycles of
        # the permutation, one shard of scratch.
        scratch = np.empty(self.shard_size, dtype=self.dtype)
        moved = [False] * self.num_shards
        for first in range(self.num_shards):
            if moved[first] or permutation[first] == first:
                continue
            scratch[:] = self._shards[first]
            rank = first
            while (source := int(permutation[rank])) != first:
                self._shards[rank][:] = self._shards[source]
                moved[rank], rank = True, source
            self._shards[rank][:] = scratch
            moved[rank] = True


class ShardIOError(OSError):
    """A shard file could not be opened, or a read or write of one failed
    or came up short; the message names rank, file, offset and byte counts."""


def _preadv(fd: int, view: memoryview, offset: int) -> int:
    return os.preadv(fd, [view], offset)


def _run_now(fn, *args) -> Future:
    """``Executor.submit`` on the calling thread (the unarmed pipeline)."""
    future: Future = Future()
    try:
        future.set_result(fn(*args))
    except Exception as exc:
        future.set_exception(exc)
    return future


class DiskShards(ShardStorage):
    """Shards stored as one raw file per rank, streamed through RAM.

    Stage-major: :meth:`sweep` only appends kernels to a per-file pending
    list and :meth:`flush` runs them, each file loaded and stored once
    however many ops are pending (module docstring: flush-before-read,
    durability).  Peak memory is one shard-sized staging buffer per
    thread the flush runs on (the sweep pool's width for a pooled flush,
    ``depth + 1`` for an armed serial one) plus four blocks in
    ``exchange_blocks``, whatever the state size — what makes
    SSD-resident states exceeding RAM practical.  The buffers are
    allocated on the calling thread and lent to the pool's.

    :meth:`get` hands out cached ``np.memmap`` handles; ``close()``
    flushes, fsyncs and releases handles, fds and buffers (idempotent —
    everything reopens lazily).  Pending work lives in memory until then,
    hence the context manager.  ``io_stats`` counts stage ``flushes``
    (``pooled_flushes`` of them on the sweep pool), the ``shard_loads`` /
    ``shard_stores`` they did, ``bytes_read`` / ``bytes_written``
    (exchanges included), ``sync_flushes`` (fsyncs, all synchronous, at
    drain; ``async_syncs`` stays 0), ``read_aheads`` (shards) and
    ``exchange_prefetched_pairs`` loaded ahead by the pipeline worker.  A
    pooled flush issues no read-aheads and no store-behind events.
    """

    def __init__(
        self,
        num_shards: int,
        shard_size: int,
        directory: str | Path,
        dtype=np.complex128,
    ) -> None:
        check_power_of_two(num_shards, "num_shards")
        check_power_of_two(shard_size, "shard_size")
        self.num_shards = num_shards
        self.shard_size = shard_size
        self.dtype = np.dtype(dtype)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # Shard *labels* indirect through this permutation so that
        # permute_shards is a pure relabeling (no file I/O), mirroring how
        # MPI rank renumbering moves no data.
        self._file_of_rank = list(range(num_shards))
        #: file index -> cached writable memmap for readers (lazy).
        self._handles: dict[int, np.memmap] = {}
        #: file index -> O_RDWR fd; opened on the calling thread only,
        #: other threads index this cache and never mutate it.
        self._fds: dict[int, int] = {}
        #: (executor, depth, observer) while armed, else None.
        self._pipeline: tuple | None = None
        #: file index -> deferred ``(kernel, label, rank)``, oldest first;
        #: by file, so a relabel leaves pending work where it is.
        self._pending: dict[int, list[tuple]] = {}
        #: files whose oldest pending kernel overwrites the shard (no load).
        self._unread: set[int] = set()
        #: files written since the last drain.
        self._written: set[int] = set()
        #: shard-sized staging buffers not in use (all of them at rest).
        self._buffers: list[np.ndarray] = []
        self.io_stats = dict.fromkeys(
            ("flushes", "pooled_flushes", "shard_loads", "shard_stores",
             "bytes_read", "bytes_written", "sync_flushes", "async_syncs",
             "read_aheads", "exchange_prefetched_pairs"),
            0,
        )
        for f in range(num_shards):
            path = self._path(f)
            if not path.exists() or path.stat().st_size != self.shard_bytes:
                with open(path, "wb") as handle:  # sparse zeros
                    handle.truncate(self.shard_bytes)

    def __enter__(self) -> "DiskShards":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _path(self, file_index: int) -> Path:
        return self.directory / f"shard_{file_index:06d}.dat"

    # -- file access ---------------------------------------------------
    def _io_error(self, file_index: int, what: str) -> ShardIOError:
        rank = self._file_of_rank.index(file_index)
        return ShardIOError(f"rank {rank} ({self._path(file_index)}): {what}")

    def _fd(self, file_index: int) -> int:
        """The file's cached fd (calling thread: opens it on first use)."""
        fd = self._fds.get(file_index)
        if fd is None:
            try:
                fd = os.open(self._path(file_index), os.O_RDWR)
            except OSError as exc:
                raise self._io_error(file_index, f"cannot open: {exc}") from exc
            self._fds[file_index] = fd
        return fd

    def _transfer(self, call, file_index: int, data: np.ndarray, offset: int):
        """``preadv``/``pwrite`` all of *data* at *offset* of an opened
        file, or raise :class:`ShardIOError` (any thread)."""
        view = memoryview(data.view(np.uint8))
        fd, done, verb = self._fds[file_index], 0, call.__name__.lstrip("_")
        try:
            while done < len(view):
                count = call(fd, view[done:], offset + done)
                if count <= 0:
                    break
                done += count
        except OSError as exc:
            raise self._io_error(
                file_index, f"{verb} at offset {offset + done}: {exc}"
            ) from exc
        if done != len(view):
            raise self._io_error(
                file_index,
                f"short {verb} at offset {offset}: expected {len(view)} "
                f"bytes, got {done}",
            )

    def _load(self, file_index: int, buffer: np.ndarray) -> bool:
        """Read a whole shard, unless its first kernel overwrites it."""
        if file_index in self._unread:
            return False
        self._transfer(_preadv, file_index, buffer, 0)
        return True

    # ------------------------------------------------------------------
    def _get(self, rank: int) -> np.ndarray:
        """The rank's file as a writable memmap, every pending op applied
        (page-cache coherent with the fd I/O of later sweeps)."""
        self.flush()
        file_index = self._file_of_rank[rank]
        mm = self._handles.get(file_index)
        if mm is None:
            mm = self._handles[file_index] = np.memmap(
                self._path(file_index),
                dtype=self.dtype,
                mode="r+",
                shape=(self.shard_size,),
            )
        return mm

    def _set(self, rank: int, data: np.ndarray) -> None:
        file_index = self._file_of_rank[rank]
        # Replaced whole: what was pending on it (possibly left by a failed
        # attempt) must not run on the new data.
        self._pending.pop(file_index, None)
        self._unread.discard(file_index)
        self._fd(file_index)
        data = np.ascontiguousarray(data, dtype=self.dtype)
        self._transfer(os.pwrite, file_index, data, 0)
        self._written.add(file_index)
        self.io_stats["bytes_written"] += data.nbytes

    # -- deferred sweeps -----------------------------------------------
    def _sweep(self, parts, *, label: str, overwrites: bool) -> None:
        """Defer each file's part to the stage flush (:meth:`flush`)."""
        for ranks, part, units in parts:
            file_index = self._file_of_rank[ranks.start]
            if overwrites:
                self._pending[file_index] = []
                self._unread.add(file_index)
            self._pending.setdefault(file_index, []).append(
                (partial(part, start=0, stop=units), label, ranks.start)
            )

    def sweep_threads(self) -> int:
        # A flush pools once its files have enough kernels pending,
        # however small the shards.
        return split_threads(self.num_shards, kernels.SPLIT_MIN_AMPLITUDES)

    def flush(self) -> None:
        """The stage flush: every file with pending kernels goes through
        RAM once — load, run its kernels in order, store.

        Whole files go to the sweep pool when there are two or more and
        each holds enough work (shard amplitudes times its pending
        kernels plus load and store, against
        :data:`~repro.kernels.apply.SPLIT_MIN_AMPLITUDES`); else
        they stream through this thread (:meth:`_stream`).  A kernel that
        raises is re-raised with a note naming its op, rank and file; no
        file starts after it, and every file not stored keeps its pending
        list and its bytes.
        """
        if not self._pending:
            return
        files = sorted(self._pending)
        stats, tel = self.io_stats, self.telemetry
        # A file's work: its load, its pending kernels and its store, each
        # one pass over the shard.
        work = self.shard_size * (2 + min(map(len, self._pending.values())))
        threads = split_threads(len(files), work)
        start = time.perf_counter()
        loads, stores = stats["shard_loads"], stats["shard_stores"]
        with tel.tracer.span(
            "storage.stage_flush",
            kind="storage",
            files=len(files),
            kernels=sum(map(len, self._pending.values())),
            threads=threads,
        ) as span:
            try:
                if threads > 1:
                    stats["pooled_flushes"] += 1
                    self._stream_pooled(files, work, threads)
                else:
                    self._stream(files)
            finally:
                read = (stats["shard_loads"] - loads) * self.shard_bytes
                written = (stats["shard_stores"] - stores) * self.shard_bytes
                stats["bytes_read"] += read
                stats["bytes_written"] += written
                if span is not None:
                    span.attrs.update(bytes_read=read, bytes_written=written)
        stats["flushes"] += 1
        if tel.active:
            tel.metrics.histogram("storage.flush.seconds").observe(
                time.perf_counter() - start
            )
            tel.metrics.counter("storage.read.bytes").inc(read)
            tel.metrics.counter("storage.write.bytes").inc(written)

    def _run_pending(self, file_index: int, buffer: np.ndarray) -> None:
        """Run the file's pending kernels on its loaded *buffer*, in
        enqueue order; a failure gets a note naming op, rank and file."""
        for kernel, label, rank in self._pending[file_index]:
            try:
                kernel(buffer)
            except Exception as exc:
                exc.add_note(
                    f"in deferred op {label!r} on rank {rank} "
                    f"({self._path(file_index)}), run by the stage flush"
                )
                raise

    def _stored(self, file_index: int) -> None:
        """Bookkeeping of a file stored with every pending kernel run."""
        del self._pending[file_index]
        self._unread.discard(file_index)
        self._written.add(file_index)
        self.io_stats["shard_stores"] += 1

    def _staging(self) -> np.ndarray:
        return self._buffers.pop() if self._buffers else np.empty(
            self.shard_size, dtype=self.dtype
        )

    def _stream_pooled(self, files: list[int], work: int, threads: int) -> None:
        """Load, compute and store each of *files* as one sweep-pool task,
        on one of *threads* staging buffers lent by this thread.  The
        tasks only report what they did; this thread keeps the books."""
        for file_index in files:
            self._fd(file_index)
        lent = queue.SimpleQueue()
        for _ in range(threads):
            lent.put(self._staging())
        loaded, stored = [], []
        failed = threading.Event()

        def run(file_index):
            if failed.is_set():
                return
            buffer = lent.get()
            try:
                loaded.append(self._load(file_index, buffer))
                self._run_pending(file_index, buffer)
                self._transfer(os.pwrite, file_index, buffer, 0)
                stored.append(file_index)
            except BaseException:
                failed.set()
                raise
            finally:
                lent.put(buffer)

        try:
            run_split(run, files, work)
        finally:
            self.io_stats["shard_loads"] += sum(loaded)
            for file_index in stored:
                self._stored(file_index)
            while not lent.empty():
                self._buffers.append(lent.get())

    def _stream(self, files: list[int]) -> None:
        """Load, compute, store each of *files* on this thread; armed, the
        worker loads up to ``depth - 1`` files ahead and stores one behind."""
        executor, depth, observer = self._pipeline or (None, 1, None)
        submit = executor.submit if executor else _run_now
        stats = self.io_stats
        for file_index in files:
            self._fd(file_index)
        ahead: deque = deque()  # (buffer, load future) of the next files
        behind = None  # (file, buffer, store future) of the previous one
        issued = 0  # files[:issued] have a load issued
        buffer = None  # the one this thread computes on

        def issue(via, file_index):
            spare = self._staging()
            ahead.append((spare, via(self._load, file_index, spare)))

        def retire():
            nonlocal behind
            (file_index, spare, future), behind = behind, None
            self._buffers.append(spare)  # the worker is done with it
            future.result()
            self._stored(file_index)

        try:
            for i, file_index in enumerate(files):
                if not ahead:  # nothing read ahead: load it here
                    issue(_run_now, file_index)
                    issued = i + 1
                buffer, future = ahead.popleft()
                if not future.done():
                    waited = time.perf_counter()
                    wait([future])
                    observer("load_stall", file_index, time.perf_counter() - waited)
                stats["shard_loads"] += future.result()
                while executor and issued < min(i + depth, len(files)):
                    stats["read_aheads"] += files[issued] not in self._unread
                    issue(submit, files[issued])
                    issued += 1
                self._run_pending(file_index, buffer)
                if behind is not None:
                    retire()
                behind = (
                    file_index, buffer,
                    submit(self._transfer, os.pwrite, file_index, buffer, 0),
                )
                buffer = None
                if executor is None:
                    retire()
                else:
                    observer("store_behind", file_index, 0.0)
        finally:
            # Nothing may still run on the worker, or hold a buffer, once
            # this returns (only a failure leaves loads in flight).
            wait([future for _, future in ahead])
            self._buffers.extend(spare for spare, _ in ahead)
            if buffer is not None:
                self._buffers.append(buffer)
            if behind is not None:
                retire()

    # -- pipelining ----------------------------------------------------
    def arm_pipeline(
        self, executor, *, depth: int = 1, observer=lambda *event: None
    ) -> None:
        """Overlap flush and exchange I/O on *executor* until disarmed.

        ``observer(event, file_index, seconds)`` hears of every
        ``"load_stall"`` (the calling thread waited *seconds* for a
        read-ahead) and ``"store_behind"`` (a store handed to the worker).
        A flush on the sweep pool uses no worker and reports neither.
        """
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self._pipeline = (executor, int(depth), observer)

    def disarm_pipeline(self) -> None:
        """Back to synchronous I/O; frees the staging buffers.
        Nothing is in flight between calls, so there is nothing to wait
        for, and pending kernels stay pending."""
        self._pipeline = None
        self._buffers.clear()

    def drain(self) -> None:
        """The durability point: write a pending init, flush, then fsync
        every file written since the last drain."""
        self._materialize()
        self.flush()
        for file_index in sorted(self._written):
            os.fsync(self._fd(file_index))
        self.io_stats["sync_flushes"] += len(self._written)
        self._written.clear()

    # ------------------------------------------------------------------
    def _exchange_blocks(self, swap_qubits: int) -> None:
        """Pairwise block swap on the fds; armed, the worker reads pair
        ``i+1`` while pair ``i`` is written.

        Each ``(file, block)`` slot is read once and written once, by its
        unique pair, so a pair read early never sees another pair's write.
        """
        group, block, num_groups = self._check_exchange_args(swap_qubits)
        self.flush()
        files = self._file_of_rank
        pairs = [
            (files[g * group + s], files[g * group + b], s, b)
            for g in range(num_groups)
            for s in range(group)
            for b in range(s + 1, group)
        ]
        if not pairs:
            return
        for file_index in files:
            self._fd(file_index)
        executor = self._pipeline[0] if self._pipeline else None
        submit = executor.submit if executor else _run_now
        # Two pairs of block buffers, used alternately.
        bufs = [
            [np.empty(block, dtype=self.dtype) for _ in range(2)]
            for _ in range(2)
        ]
        nxt = submit(self._read_pair, pairs[0], bufs[0])
        try:
            for i, (file_s, file_b, s, b) in enumerate(pairs):
                from_s, from_b = nxt.result()
                if i + 1 < len(pairs):
                    nxt = submit(self._read_pair, pairs[i + 1], bufs[(i + 1) % 2])
                self._transfer(os.pwrite, file_s, from_b, b * from_b.nbytes)
                self._transfer(os.pwrite, file_b, from_s, s * from_s.nbytes)
        finally:
            wait([nxt])
        self._written.update(files)
        moved = 2 * len(pairs) * block * self.dtype.itemsize
        self.io_stats["bytes_read"] += moved
        self.io_stats["bytes_written"] += moved
        if executor:
            self.io_stats["exchange_prefetched_pairs"] += len(pairs) - 1

    def _read_pair(self, pair: tuple[int, int, int, int], out):
        """Fill *out* with the two blocks pair ``(s, b)`` swaps."""
        file_s, file_b, s, b = pair
        self._transfer(_preadv, file_s, out[0], b * out[0].nbytes)
        self._transfer(_preadv, file_b, out[1], s * out[1].nbytes)
        return out

    def _permute_shards(self, permutation: np.ndarray) -> None:
        self._file_of_rank = [self._file_of_rank[int(p)] for p in permutation]

    def close(self) -> None:
        """Flush, fsync, and release handles, fds and buffers (idempotent).

        The next access transparently reopens, so ``close()`` is a
        resource release, not an end-of-life marker.
        """
        try:
            self.drain()
        finally:
            self.disarm_pipeline()
            for mm in self._handles.values():
                mm.flush()
            self._handles.clear()
            fds, self._fds = list(self._fds.values()), {}
            for fd in fds:
                os.close(fd)
