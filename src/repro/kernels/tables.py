"""Memoized kernel lookup tables: diagonal factors.

The paper's single-core wins come from precomputing everything the kernel
needs before touching the state (Sec. 3.2-3.4).  The dense kernel needs
nothing precomputed that grows with the shard — its addresses come from
bit positions (:class:`repro.kernels.apply.DenseSweep`) — so the small
LRU cache here holds only the one family worth keeping: the
**diagonal factor tensors**, the per-amplitude phase factor of the phase
multiply, keyed on ``(n, qubits, diag bytes)``.  Supremacy circuits
repeat the same CZ layers dozens of times and every virtual rank applies
the same op to an identically-shaped shard, so one factor serves ``2**g``
ranks times every repetition of the layer.  (The plan compiler composes
fused ops from bit masks and block indices: it needs no tables.)

Cache hits and misses are counted, along with the bytes of table
construction the hits avoided — the numbers ``repro simulate
--plan-stats``, ``/statusz`` and the repo benchmark read from
:meth:`GatherTableCache.stats`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.util.locktrack import TrackedLock

__all__ = ["GatherTableCache", "GATHER_CACHE"]


#: Widest state for which diagonal factors are expanded to a flat dense
#: vector.  Flat factors turn the diagonal fast path into one contiguous
#: SIMD multiply (``state *= factor``) instead of a strided broadcast;
#: above this the ``2**n`` expansion would dwarf the shard itself, so the
#: broadcastable tensor is kept.
_FLAT_DIAG_MAX_QUBITS = 16


def _build_diagonal_factor(
    diag: np.ndarray, qubits: Sequence[int], n: int
) -> np.ndarray:
    """Per-amplitude phase factor for a diagonal gate.

    Returns a flat dense ``2**n`` vector when ``n`` is small enough
    (:data:`_FLAT_DIAG_MAX_QUBITS`) — elementwise identical to the
    broadcast expansion, so switching representations is bit-exact — and
    the broadcastable ``(2,)*n``-compatible tensor otherwise.
    """
    tensor = _build_diagonal_tensor(diag, qubits, n)
    if n <= _FLAT_DIAG_MAX_QUBITS:
        return np.ascontiguousarray(
            np.broadcast_to(tensor, (2,) * n)
        ).reshape(1 << n)
    return tensor


def _build_diagonal_tensor(
    diag: np.ndarray, qubits: Sequence[int], n: int
) -> np.ndarray:
    """Broadcastable tensor of per-amplitude phases for a diagonal gate."""
    k = len(qubits)
    d_t = np.asarray(diag).reshape((2,) * k)
    # d_t axis a corresponds to qubit qubits[k-1-a]; transpose to descending
    # qubit order so it lines up with the state tensor's axis layout.
    qubit_of_axis = [qubits[k - 1 - a] for a in range(k)]
    order = np.argsort(qubit_of_axis)[::-1]
    d_t = np.transpose(d_t, order)
    shape = []
    qs = sorted(qubits, reverse=True)
    qi = 0
    for bit in range(n - 1, -1, -1):
        if qi < k and qs[qi] == bit:
            shape.append(2)
            qi += 1
        else:
            shape.append(1)
    return d_t.reshape(shape)


class GatherTableCache:
    """LRU cache of diagonal factor tensors.

    (The dense kernel has no tables — "gather" survives only in the
    name, by which ``--plan-stats``, ``/statusz`` and the repo benchmark
    address this cache.)  ``capacity`` bounds the number of cached entries; least-recently-used
    entries are evicted first.  Returned arrays are marked read-only —
    they are shared across every rank and every repetition of an op.

    All cache operations hold an internal re-entrant lock (a named
    :class:`~repro.util.locktrack.TrackedLock`), so
    one process-wide instance (:data:`GATHER_CACHE`) can be shared by the
    service layer's concurrent worker threads: lookups, LRU reordering,
    insertion/eviction and the counter updates are atomic with respect to
    each other, and a get-or-build runs the build under the lock so a key
    is constructed at most once.
    """

    def __init__(self, *, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = TrackedLock(
            "repro.kernels.tables.GatherTableCache._lock"
        )
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Bytes of tables cached right now (sum over live entries).
        self.bytes_cached = 0
        #: Bytes of table construction avoided by hits so far.
        self.bytes_saved = 0

    # ------------------------------------------------------------------
    def set_capacity(self, capacity: int) -> None:
        """Rebound the cache to *capacity* entries, evicting LRU overflow."""
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        with self._lock:
            self.capacity = capacity
            while len(self._entries) > self.capacity:
                _, (_, evicted_bytes) = self._entries.popitem(last=False)
                self.bytes_cached -= evicted_bytes

    def _record(self, *, hit: bool, nbytes: int) -> None:
        if hit:
            self.hits += 1
            self.bytes_saved += nbytes
        else:
            self.misses += 1

    def _lookup(self, key: tuple):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._record(hit=True, nbytes=entry[1])
        return entry

    def _insert(self, key: tuple, value, nbytes: int) -> None:
        self._record(hit=False, nbytes=nbytes)
        self._entries[key] = (value, nbytes)
        self.bytes_cached += nbytes
        while len(self._entries) > self.capacity:
            _, (_, evicted_bytes) = self._entries.popitem(last=False)
            self.bytes_cached -= evicted_bytes

    # ------------------------------------------------------------------
    def diagonal_factor(
        self, n: int, qubits: Sequence[int], diag: np.ndarray
    ) -> np.ndarray:
        """The broadcastable phase tensor for a diagonal gate, memoized.

        Keyed on ``(n, qubits, diag bytes)`` so repeated CZ/T layers (and
        every rank of a sharded state) reuse one tensor.
        """
        qubits = tuple(int(q) for q in qubits)
        diag = np.asarray(diag)
        key = ("diag", n, qubits, diag.dtype.str, diag.tobytes())
        with self._lock:
            entry = self._lookup(key)
            if entry is not None:
                return entry[0]
            factor = _build_diagonal_factor(diag, qubits, n)
            factor.setflags(write=False)
            self._insert(key, factor, factor.nbytes)
            return factor

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Consistent counters snapshot (the ``--plan-stats`` payload)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hit_rate,
                "entries": len(self._entries),
                "capacity": self.capacity,
                "bytes_cached": self.bytes_cached,
                "bytes_saved": self.bytes_saved,
            }

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = 0
            self.bytes_cached = self.bytes_saved = 0

    def __len__(self) -> int:
        return len(self._entries)


#: Process-wide default cache: every rank of every state shares it, which
#: is exactly what makes the tables worth memoizing.
GATHER_CACHE = GatherTableCache()
