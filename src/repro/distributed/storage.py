"""Shard storage backends for the distributed state.

A "node" owns one shard of ``2**l`` amplitudes.  Three backends implement
the same interface:

* :class:`InMemoryShards` — one numpy array per rank, all in process
  memory; the stand-in for MPI ranks with DRAM-resident state.
* :class:`SharedMemoryShards` — the same, as views into one shared block
  that several worker processes run the same program over, each owning a
  contiguous block of ranks (``local_ranks``) and meeting at a barrier
  inside the two collectives.
* :class:`DiskShards` — one raw file per rank accessed through cached
  ``np.memmap`` handles; the SSD-backed mode the paper's outlook
  describes (feasible because the whole circuit needs only two
  all-to-alls).  Block exchanges run with bounded memory.

The key collective is :meth:`ShardStorage.exchange_blocks` — the q-qubit
global-to-local swap of Fig. 3: within every group of ``2**q`` consecutive
ranks, rank ``h*2**q + s`` sends its ``b``-th block to rank ``h*2**q + b``,
which stores it as its ``s``-th block.

Pipelined mode
--------------
:meth:`ShardStorage.arm_pipeline` hands the backend a background
executor (the pipeline layer's single worker).  While armed,
:class:`DiskShards` overlaps its blocking I/O with the main thread's
compute:

* :meth:`sync` schedules an fd-level ``os.fsync`` on the executor
  instead of a synchronous whole-mapping ``msync`` — ``os.fsync``
  releases the GIL, so the writeback runs while the next kernel computes
  (``mmap.flush`` would hold the GIL and serialize);
* :meth:`get`/:meth:`prefetch` issue page-cache read-ahead of upcoming
  shards;
* :meth:`exchange_blocks` double-buffers: the block copies of pair
  ``i+1`` are read in the background while pair ``i``'s swapped blocks
  are written, and per-pair flushes collapse into one deferred fsync per
  file.

None of this changes any byte of any shard — page-cache coherence makes
reads through the shared mappings see every write immediately, and
fsync placement only affects *durability* timing, which
:meth:`drain` (called by the layer's cleanup and by :meth:`close`)
re-establishes at run boundaries.  Pipelined and serial runs are
bit-exact.
"""

from __future__ import annotations

import abc
import os
import threading
from itertools import islice
from pathlib import Path

import numpy as np

from repro.util.validation import check_power_of_two

__all__ = ["ShardStorage", "InMemoryShards", "SharedMemoryShards", "DiskShards"]

#: Read-ahead request size: large enough to amortise syscalls, small
#: enough that one request never dominates the worker's queue.
_READ_AHEAD_STEP = 1 << 20

#: Largest shard kept back to back with its neighbours in one array: the
#: size up to which malloc would carve each from the heap anyway (glibc's
#: mmap threshold), and a dense sweep of one costs little more than the
#: ~10 us it takes to dispatch it.
_BLOCK_SHARD_BYTES = 1 << 17

#: Staging budget of the in-memory block exchange (two tiles of blocks):
#: half of the 2 MiB L2, so a tile is still cached when it is written back.
_EXCHANGE_STAGE_BYTES = 1 << 20


class ShardStorage(abc.ABC):
    """Interface shared by the in-memory and on-disk shard backends."""

    num_shards: int
    shard_size: int
    dtype: np.dtype

    @abc.abstractmethod
    def get(self, rank: int) -> np.ndarray:
        """The shard owned by *rank*, as a mutable array (view where possible)."""

    @abc.abstractmethod
    def set(self, rank: int, data: np.ndarray) -> None:
        """Replace the shard owned by *rank*."""

    @abc.abstractmethod
    def exchange_blocks(self, swap_qubits: int) -> None:
        """Fig. 3 block exchange over groups of ``2**swap_qubits`` ranks."""

    @abc.abstractmethod
    def permute_shards(self, permutation: np.ndarray) -> None:
        """Relabel shards: new shard ``i`` is old shard ``permutation[i]``.

        This is the rank renumbering of Sec. 3.5 — free on MPI, a pointer
        shuffle here.
        """

    @property
    def local_ranks(self) -> range:
        """The ranks this process computes on (all of them in process)."""
        return range(self.num_shards)

    def local_block(self) -> np.ndarray | None:
        """Every local rank's amplitudes as one array, or ``None``.

        Whole shards back to back, ``len(local_ranks) * shard_size``
        amplitudes in no particular rank order: for a sweep that does the
        same to every shard and so need not tell them apart.  ``None``
        when the local shards do not sit side by side in memory.
        """
        return None

    # -- pipelining hooks (no-ops for memory-resident backends) --------
    def sync(self, shard: np.ndarray) -> None:
        """Flush *shard* to the backing store (no-op in memory)."""
        if isinstance(shard, np.memmap):
            shard.flush()

    def prefetch(self, ranks) -> None:
        """Hint that *ranks* will be read soon (no-op by default)."""

    def arm_pipeline(self, executor, *, depth: int = 1) -> None:
        """Enable background I/O overlap using *executor* (no-op here)."""

    def disarm_pipeline(self) -> None:
        """Quiesce and disable background I/O overlap (no-op here)."""

    def drain(self) -> None:
        """Block until all scheduled background I/O completed (no-op here)."""

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
    back to back, so a sweep that treats every shard alike takes them all
    at once (:meth:`local_block`) instead of dispatching ``2**g`` times.
    Larger ones are one array each, mapped and returned to the system
    one by one: dispatch is noise next to their sweep, and one allocation
    of the whole state fragments the heap of a long-lived process (it
    tripled the spread of the job service's peak RSS).
    """

    def __init__(
        self, num_shards: int, shard_size: int, dtype=np.complex128
    ) -> None:
        check_power_of_two(num_shards, "num_shards")
        check_power_of_two(shard_size, "shard_size")
        self.num_shards = num_shards
        self.shard_size = shard_size
        self.dtype = np.dtype(dtype)
        self._block = self._allocate()
        if self._block is None:
            self._shards = [
                np.zeros(shard_size, dtype=self.dtype)
                for _ in range(num_shards)
            ]
        else:
            self._shards = list(self._block.reshape(num_shards, shard_size))

    def _allocate(self) -> np.ndarray | None:
        """The array holding every shard, or ``None`` for one array each."""
        if self.shard_bytes > _BLOCK_SHARD_BYTES:
            return None
        return np.zeros(self.num_shards * self.shard_size, dtype=self.dtype)

    def local_block(self) -> np.ndarray | None:
        return self._block

    def get(self, rank: int) -> np.ndarray:
        return self._shards[rank]

    def set(self, rank: int, data: np.ndarray) -> None:
        if data.shape != (self.shard_size,):
            raise ValueError(f"shard must have shape ({self.shard_size},)")
        self._shards[rank][:] = data

    def exchange_blocks(self, swap_qubits: int) -> None:
        # shard[s] block t <-> shard[t] block s within each group: the
        # all-to-all of Fig. 3 is the transpose of the group's
        # (group x group) matrix of blocks, done in place tile by tile.
        # A tile pair costs 4*tile copies for tile**2 block swaps, so the
        # many-rank, tiny-block exchanges (1024 ranks x 4-amplitude
        # blocks) are not a Python loop over every pair of ranks; once
        # eight blocks exceed _EXCHANGE_STAGE_BYTES the tile is one block
        # and this is the pairwise swap.  Staging is two tiles.
        group, block, _ = self._check_exchange_args(swap_qubits)
        tile = 1
        block_bytes = block * self.dtype.itemsize
        while (
            tile < group
            and 2 * (2 * tile) ** 2 * block_bytes <= _EXCHANGE_STAGE_BYTES
        ):
            tile *= 2
        stage_a = np.empty((tile, tile, block), dtype=self.dtype)
        stage_b = np.empty_like(stage_a)
        steps = range(tile)
        rows_base = None
        for base, i, j in self._exchange_tiles(group, tile):
            if base != rows_base:
                rows_base = base
                rows = [
                    shard.reshape(group, block)
                    for shard in self._shards[base:base + group]
                ]
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

    def _exchange_tiles(self, group: int, tile: int):
        """Every ``(group base, tile row i, tile column j >= i)`` of one
        exchange.  Each names a set of blocks no other tile touches (the
        tile and its mirror image), so tiles can run in any order.  A
        diagonal tile of one block stays put and is not listed."""
        for base in range(0, self.num_shards, group):
            for i in range(0, group, tile):
                for j in range(i if tile > 1 else i + tile, group, tile):
                    yield base, i, j

    def permute_shards(self, permutation: np.ndarray) -> None:
        self._check_permutation(permutation)
        self._shards = [self._shards[int(p)] for p in permutation]


class SharedMemoryShards(InMemoryShards):
    """One worker's attachment to shards that live in one shared block.

    *buffer* (a ``multiprocessing.shared_memory`` block's ``buf``) holds
    the whole state once, ``num_shards`` slots of ``shard_size``
    amplitudes; every worker process holds its own attachment over it,
    naming which of *num_workers* it is, and runs the same program.
    Worker ``w`` owns the contiguous ranks ``local_ranks`` and writes no
    other shard outside the two collectives, which are the only places
    workers meet:

    * :meth:`permute_shards` relabels rank -> slot in every worker
      identically (a pointer shuffle, as in the parent), then waits on
      *barrier*: the wait orders every worker's kernel writes to the slots
      it owned before the relabel ahead of any access by those slots' new
      owners.
    * :meth:`exchange_blocks` is the parent's tiled in-place block
      transpose with the disjoint tiles dealt round-robin to the workers,
      between two waits: the first orders all kernel writes (the staging
      swaps included) ahead of any block move, the second orders all block
      moves ahead of any kernel on the exchanged shards.  No scratch copy
      of the state exists.

    With the defaults an attachment is alone in its world: it owns every
    rank and its barrier has one party.  A worker that fails must
    ``abort()`` the barrier so its peers leave their waits with
    ``BrokenBarrierError``.
    """

    def __init__(
        self,
        num_shards: int,
        shard_size: int,
        *,
        buffer,
        barrier=None,
        worker: int = 0,
        num_workers: int = 1,
        dtype=np.complex128,
    ) -> None:
        if not 0 <= worker < num_workers <= num_shards:
            raise ValueError(
                f"need 0 <= worker < num_workers <= {num_shards}, got "
                f"worker {worker} of {num_workers}"
            )
        self._buffer = buffer
        self._barrier = barrier if barrier is not None else threading.Barrier(1)
        self._worker, self._num_workers = worker, num_workers
        self._slots = list(range(num_shards))
        super().__init__(num_shards, shard_size, dtype=dtype)

    def _allocate(self) -> np.ndarray:
        # Not np.frombuffer: that pins the buffer, and a shared block must
        # be closable while attachments (or a traceback holding one) live.
        return np.ndarray(
            (self.num_shards * self.shard_size,),
            dtype=self.dtype,
            buffer=self._buffer,
        )

    @property
    def local_ranks(self) -> range:
        w, count, ranks = self._worker, self._num_workers, self.num_shards
        return range(w * ranks // count, (w + 1) * ranks // count)

    def local_block(self) -> np.ndarray | None:
        # A worker's ranks are scattered over the slots once relabeled.
        return self._block if self._num_workers == 1 else None

    @property
    def slot_of_rank(self) -> tuple[int, ...]:
        """Which slot of the block each rank's shard currently occupies."""
        return tuple(self._slots)

    def relabel(self, slot_of_rank) -> None:
        """Adopt a rank -> slot labelling (e.g. the one a worker ended with)."""
        slots = self._block.reshape(self.num_shards, self.shard_size)
        self._slots = [int(slot) for slot in slot_of_rank]
        self._shards = [slots[slot] for slot in self._slots]

    def permute_shards(self, permutation: np.ndarray) -> None:
        super().permute_shards(permutation)
        self._slots = [self._slots[int(p)] for p in permutation]
        self._barrier.wait()

    def exchange_blocks(self, swap_qubits: int) -> None:
        self._barrier.wait()
        super().exchange_blocks(swap_qubits)
        self._barrier.wait()

    def _exchange_tiles(self, group: int, tile: int):
        return islice(
            super()._exchange_tiles(group, tile),
            self._worker, None, self._num_workers,
        )


class DiskShards(ShardStorage):
    """Shards stored as one raw file per rank, accessed via memmap.

    ``exchange_blocks`` swaps blocks pairwise so peak memory is two blocks
    regardless of state size — this is what makes SSD-resident simulation
    of states exceeding RAM practical.

    Memmap handles are opened once per file and cached; ``close()``
    releases them (idempotent — handles reopen lazily on the next
    access).  In pipelined mode (:meth:`arm_pipeline`) shard syncs and
    exchange flushes run as background fd-level fsyncs and upcoming
    shards are read ahead; see the module docstring for the overlap and
    bit-exactness arguments.
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
        #: file index -> cached writable memmap (created lazily).
        self._handles: dict[int, np.memmap] = {}
        #: id(memmap) -> file index, for sync() routing.
        self._file_of_mm: dict[int, int] = {}
        #: file index -> O_RDWR fd for GIL-free fsync/pread.
        self._fds: dict[int, int] = {}
        #: (executor, depth) while armed, else None.
        self._pipeline: tuple[object, int] | None = None
        self._io_lock = threading.Lock()
        #: file indexes with writes awaiting a background fsync.
        self._dirty: set[int] = set()
        self._flusher = None
        #: file index -> in-flight read-ahead future.
        self._reads_inflight: dict[int, object] = {}
        #: Background-I/O counters (reported by the pipeline bench).
        self.io_stats = {
            "sync_flushes": 0,
            "async_syncs": 0,
            "read_aheads": 0,
            "exchange_prefetched_pairs": 0,
        }
        for f in range(num_shards):
            path = self._path(f)
            if not path.exists() or path.stat().st_size != self.shard_bytes:
                mm = np.memmap(path, dtype=self.dtype, mode="w+", shape=(shard_size,))
                mm[:] = 0
                mm.flush()
                del mm

    def _path(self, file_index: int) -> Path:
        return self.directory / f"shard_{file_index:06d}.dat"

    def _handle(self, file_index: int) -> np.memmap:
        """The cached writable mapping of one file (opened on first use).

        Main-thread only: background tasks touch files exclusively
        through :meth:`_fd`, so this cache needs no lock.
        """
        mm = self._handles.get(file_index)
        if mm is None:
            mm = np.memmap(
                self._path(file_index),
                dtype=self.dtype,
                mode="r+",
                shape=(self.shard_size,),
            )
            self._handles[file_index] = mm
            self._file_of_mm[id(mm)] = file_index
        return mm

    def _fd(self, file_index: int) -> int:
        """A plain fd for the file, for fsync/pread off the main thread."""
        with self._io_lock:
            fd = self._fds.get(file_index)
            if fd is None:
                fd = os.open(self._path(file_index), os.O_RDWR)
                self._fds[file_index] = fd
            return fd

    def _open(self, rank: int) -> np.memmap:
        return self._handle(self._file_of_rank[rank])

    # ------------------------------------------------------------------
    def get(self, rank: int) -> np.ndarray:
        mm = self._open(rank)
        if self._pipeline is not None and rank + 1 < self.num_shards:
            depth = self._pipeline[1]
            self.prefetch(range(rank + 1, min(rank + 1 + depth, self.num_shards)))
        return mm

    def set(self, rank: int, data: np.ndarray) -> None:
        if data.shape != (self.shard_size,):
            raise ValueError(f"shard must have shape ({self.shard_size},)")
        mm = self._open(rank)
        mm[:] = data
        self.sync(mm)

    def sync(self, shard: np.ndarray) -> None:
        """Flush one shard: synchronous msync, or a scheduled background
        fsync while the pipeline is armed (durability is re-established
        by :meth:`drain`; page-cache coherence keeps reads exact either
        way)."""
        file_index = self._file_of_mm.get(id(shard))
        if file_index is None:
            # Not one of our cached handles (e.g. a foreign memmap).
            if isinstance(shard, np.memmap):
                shard.flush()
            return
        if self._pipeline is None:
            shard.flush()
            with self._io_lock:
                self.io_stats["sync_flushes"] += 1
            return
        self._schedule_fsync(file_index)

    # -- background machinery ------------------------------------------
    def _schedule_fsync(self, file_index: int) -> None:
        executor = self._pipeline[0]
        with self._io_lock:
            self._dirty.add(file_index)
            self.io_stats["async_syncs"] += 1
            if self._flusher is None or self._flusher.done():
                self._flusher = executor.submit(self._flush_dirty)

    def _flush_dirty(self) -> None:
        while True:
            with self._io_lock:
                if not self._dirty:
                    return
                file_index = self._dirty.pop()
            os.fsync(self._fd(file_index))

    def _read_ahead(self, file_index: int) -> None:
        try:
            fd = self._fd(file_index)
            offset, remaining = 0, self.shard_bytes
            while remaining > 0:
                n = len(os.pread(fd, min(_READ_AHEAD_STEP, remaining), offset))
                if n == 0:
                    break
                offset += n
                remaining -= n
            with self._io_lock:
                self.io_stats["read_aheads"] += 1
        finally:
            with self._io_lock:
                self._reads_inflight.pop(file_index, None)

    def prefetch(self, ranks) -> None:
        """Schedule page-cache read-ahead of *ranks* (armed mode only)."""
        if self._pipeline is None:
            return
        executor = self._pipeline[0]
        for rank in ranks:
            if not 0 <= rank < self.num_shards:
                continue
            file_index = self._file_of_rank[rank]
            with self._io_lock:
                if file_index in self._reads_inflight:
                    continue
                # Submit under the lock: the task's self-removal in its
                # finally block takes the same lock, so the entry is
                # always present before it can be popped.
                self._reads_inflight[file_index] = executor.submit(
                    self._read_ahead, file_index
                )

    def arm_pipeline(self, executor, *, depth: int = 1) -> None:
        """Route syncs/reads through *executor* until disarmed."""
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self._pipeline = (executor, int(depth))

    def disarm_pipeline(self) -> None:
        """Wait out background I/O, then return to synchronous mode."""
        if self._pipeline is None:
            return
        self.drain()
        with self._io_lock:
            reads = [f for f in self._reads_inflight.values() if f is not None]
        for future in reads:
            future.result()
        self._pipeline = None

    def drain(self) -> None:
        """Block until every scheduled background flush reached the disk."""
        while True:
            with self._io_lock:
                flusher = self._flusher
            if flusher is not None:
                flusher.result()
            with self._io_lock:
                if self._dirty:
                    if self._pipeline is not None:
                        self._flusher = self._pipeline[0].submit(
                            self._flush_dirty
                        )
                        continue
                    leftovers = sorted(self._dirty)
                    self._dirty.clear()
                elif self._flusher is None or self._flusher.done():
                    return
                else:
                    continue
            for file_index in leftovers:
                os.fsync(self._fd(file_index))

    # ------------------------------------------------------------------
    def exchange_blocks(self, swap_qubits: int) -> None:
        group, block, num_groups = self._check_exchange_args(swap_qubits)
        if self._pipeline is None:
            for g in range(num_groups):
                base = g * group
                for s in range(group):
                    mm_s = self._open(base + s)
                    for b in range(s + 1, group):
                        mm_b = self._open(base + b)
                        tmp = np.array(mm_s[b * block : (b + 1) * block])
                        mm_s[b * block : (b + 1) * block] = mm_b[s * block : (s + 1) * block]
                        mm_b[s * block : (s + 1) * block] = tmp
                        mm_b.flush()
                    mm_s.flush()
            return
        self._exchange_blocks_pipelined(group, block, num_groups)

    def _exchange_blocks_pipelined(
        self, group: int, block: int, num_groups: int
    ) -> None:
        """Double-buffered exchange: read pair ``i+1`` while writing pair
        ``i``, one deferred fsync per file instead of one msync per pair.

        Safe because each ``(file, block-range)`` slot is read once and
        written once, by its unique pair — prefetching a later pair's
        reads can never observe an earlier pair's unwritten data, and
        the mapping/pread views are page-cache coherent.
        """
        executor = self._pipeline[0]
        pairs = [
            (g * group + s, g * group + b, s, b)
            for g in range(num_groups)
            for s in range(group)
            for b in range(s + 1, group)
        ]
        if not pairs:
            return
        # Pre-open every handle on the main thread: the background reader
        # only indexes the caches, it never mutates them.
        for rank in range(self.num_shards):
            self._open(rank)
        touched: set[int] = set()
        nxt = executor.submit(self._read_pair, pairs[0], block)
        for i, (s_rank, b_rank, s, b) in enumerate(pairs):
            from_s, from_b = nxt.result()
            if i + 1 < len(pairs):
                nxt = executor.submit(self._read_pair, pairs[i + 1], block)
                with self._io_lock:
                    self.io_stats["exchange_prefetched_pairs"] += 1
            mm_s = self._handles[self._file_of_rank[s_rank]]
            mm_b = self._handles[self._file_of_rank[b_rank]]
            mm_s[b * block : (b + 1) * block] = from_b
            mm_b[s * block : (s + 1) * block] = from_s
            touched.add(self._file_of_rank[s_rank])
            touched.add(self._file_of_rank[b_rank])
        for file_index in sorted(touched):
            self._schedule_fsync(file_index)

    def _read_pair(self, pair: tuple[int, int, int, int], block: int):
        """Copy out the two blocks pair ``(s, b)`` will swap (worker side)."""
        s_rank, b_rank, s, b = pair
        mm_s = self._handles[self._file_of_rank[s_rank]]
        mm_b = self._handles[self._file_of_rank[b_rank]]
        return (
            np.array(mm_s[b * block : (b + 1) * block]),
            np.array(mm_b[s * block : (s + 1) * block]),
        )

    def permute_shards(self, permutation: np.ndarray) -> None:
        self._check_permutation(permutation)
        self._file_of_rank = [self._file_of_rank[int(p)] for p in permutation]

    def close(self) -> None:
        """Flush and release cached handles and fds (idempotent).

        The next access transparently reopens, so ``close()`` is a
        resource release, not an end-of-life marker.
        """
        self.disarm_pipeline()
        for mm in self._handles.values():
            mm.flush()
        self._handles.clear()
        self._file_of_mm.clear()
        with self._io_lock:
            fds, self._fds = list(self._fds.values()), {}
        for fd in fds:
            os.close(fd)
