"""Shard storage backends for the distributed state.

A "node" owns one shard of ``2**l`` amplitudes.  Two backends implement the
same interface:

* :class:`InMemoryShards` — one numpy array per rank, all in process
  memory; the stand-in for MPI ranks with DRAM-resident state.
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
from pathlib import Path

import numpy as np

from repro.util.validation import check_power_of_two

__all__ = ["ShardStorage", "InMemoryShards", "DiskShards"]

#: Read-ahead request size: large enough to amortise syscalls, small
#: enough that one request never dominates the worker's queue.
_READ_AHEAD_STEP = 1 << 20

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
    """All shards live in process memory as one array per rank."""

    def __init__(
        self, num_shards: int, shard_size: int, dtype=np.complex128
    ) -> None:
        check_power_of_two(num_shards, "num_shards")
        check_power_of_two(shard_size, "shard_size")
        self.num_shards = num_shards
        self.shard_size = shard_size
        self.dtype = np.dtype(dtype)
        self._shards = [
            np.zeros(shard_size, dtype=self.dtype) for _ in range(num_shards)
        ]

    def get(self, rank: int) -> np.ndarray:
        return self._shards[rank]

    def set(self, rank: int, data: np.ndarray) -> None:
        if data.shape != (self.shard_size,):
            raise ValueError(f"shard must have shape ({self.shard_size},)")
        self._shards[rank] = np.ascontiguousarray(data, dtype=self.dtype)

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
        for base in range(0, self.num_shards, group):
            rows = [
                shard.reshape(group, block)
                for shard in self._shards[base:base + group]
            ]
            for i in range(0, group, tile):
                if tile > 1:  # a diagonal tile of one block stays put
                    for a in steps:
                        stage_a[a] = rows[i + a][i:i + tile]
                    for a in steps:
                        rows[i + a][i:i + tile] = stage_a[:, a]
                for j in range(i + tile, group, tile):
                    for a in steps:
                        stage_a[a] = rows[i + a][j:j + tile]
                    for b in steps:
                        stage_b[b] = rows[j + b][i:i + tile]
                    for a in steps:
                        rows[i + a][j:j + tile] = stage_b[:, a]
                    for b in steps:
                        rows[j + b][i:i + tile] = stage_a[:, b]

    def permute_shards(self, permutation: np.ndarray) -> None:
        if sorted(permutation) != list(range(self.num_shards)):
            raise ValueError("permutation must be a bijection over ranks")
        self._shards = [self._shards[int(p)] for p in permutation]


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
        if sorted(permutation) != list(range(self.num_shards)):
            raise ValueError("permutation must be a bijection over ranks")
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
