"""Clustering: merge stage gates into fused k-qubit kernels (Sec. 3.6.1, step 2).

Within one stage every gate is either local (all qubits local) or
specializable on global qubits.  Local gates are merged greedily into
clusters of at most ``kmax`` qubits; specializable global gates become
standalone :class:`GateOp` items (they cost no kernel time and no
communication).

A cluster respects per-qubit gate order with a *blocking* rule: once a
gate is skipped (not admitted to the growing cluster), its qubits are
blocked and no later gate touching them may join the cluster.  The
paper's "small local search" is implemented per cluster: several seed
gates propose qubit sets, each grown by absorption lookahead and then
improved by a first-improvement hill climb exchanging one cluster qubit
at a time; the candidate absorbing the most gates wins.  Qubit sets are
int bitmasks, and the blocking rule is read off each gate's ancestor
mask in closed form (:class:`_ClusterStep`).
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from itertools import islice
from operator import or_
from typing import Sequence

from repro.gates.gate import Gate
from repro.scheduling.program import ClusterOp, GateOp, gate_specializable_under
from repro.util.bits import bit_mask, mask_bits
from repro.util.rng import ensure_rng

__all__ = ["cluster_stage_gates"]

#: How many distinct local seed gates to try per cluster.
_SEED_GATES = 4
#: Lookahead window (in pending gates) used to score candidate qubits.
_HORIZON = 96
#: Scan cap: a cluster's gates always lie near the front of the pending
#: list (all its qubits block quickly), so scans need not walk the tail.
_SCAN_LIMIT = 192


class _ClusterStep:
    """The search for one cluster, over a pending list that stays fixed.

    Qubit sets are int masks (:func:`~repro.util.bits.bit_mask`).  The
    blocking rule has a closed form: a scan-window gate joins a cluster
    on qubit set *allowed* iff its *ancestor mask* — the OR of the qubit
    masks of the gate and of its same-qubit predecessors in the window,
    transitively — lies inside *allowed*.  The ancestor masks are taken
    once per step, and one pass over them scores every exchange out of
    one cluster qubit (:meth:`exchanges`).  The seeds, trials and climbs
    of one step revisit the same sets, so exchange scores and growth
    ties are memoised per step.  The RNG draws from sorted lists (ties
    before ``rng.integers``, outside qubits before ``rng.shuffle``):
    that order fixes every schedule, which
    ``tests/scheduling/data/schedule_digests.json`` pins.
    """

    def __init__(
        self,
        qubits: Sequence[tuple[int, ...]],
        masks: Sequence[int],
        remaining: Sequence[int],
        global_mask: int,
        kmax: int,
        counts: Counter,
    ) -> None:
        #: ``(position, ancestor mask)`` of the window gates a cluster of
        #: at most *kmax* qubits can take, in pending order.
        self.window: list[tuple[int, int]] = []
        last: dict[int, int] = {}
        for pos in remaining[:_SCAN_LIMIT]:
            ancestors = masks[pos]
            for q in qubits[pos]:
                ancestors |= last.get(q, 0)
            for q in qubits[pos]:
                last[q] = ancestors
            if ancestors.bit_count() <= kmax:
                self.window.append((pos, ancestors))
        #: Masks of the local gates in the lookahead window.
        self.horizon = [
            masks[pos] for pos in remaining[:_HORIZON]
            if not masks[pos] & global_mask
        ]
        self.horizon_qubits = reduce(or_, self.horizon, 0)
        self.counts = counts
        self.memo: dict[int, tuple[int, dict[int, int]]] = {}
        self.ties: dict[int, list[int]] = {}

    def cluster(self, allowed: int) -> list[int]:
        """Positions, in order, of the gates a cluster on *allowed* takes."""
        outside = ~allowed
        return [
            pos for pos, ancestors in self.window if not ancestors & outside
        ]

    def exchanges(self, base: int) -> tuple[int, dict[int, int]]:
        """Cluster sizes of ``base | {q}`` for every qubit ``q`` outside *base*.

        Returns the number of gates a cluster on *base* takes and, keyed
        by ``1 << q``, how many more ``q`` lets in: those whose ancestor
        mask leaves *base* by exactly ``q``.  Read only (memoised).
        """
        found = self.memo.get(base)
        if found is not None:
            self.counts["scan_memo_hits"] += 1
            return found
        self.counts["scans"] += 1
        inside = 0
        extra: dict[int, int] = {}
        outside = ~base
        for _, ancestors in self.window:
            rest = ancestors & outside
            if not rest:
                inside += 1
            elif not rest & (rest - 1):  # one qubit
                extra[rest] = extra.get(rest, 0) + 1
        self.memo[base] = inside, extra
        return inside, extra

    def grow(self, qubit_set: int, kmax: int, rng) -> int:
        """Grow *qubit_set* to ``kmax`` qubits by absorption-count lookahead."""
        while qubit_set.bit_count() < kmax:
            ties = self.ties.get(qubit_set)
            if ties is None:
                ties = self.ties[qubit_set] = self._best_additions(qubit_set)
            if not ties:
                break
            qubit_set |= 1 << ties[int(rng.integers(len(ties)))]
        return qubit_set

    def _best_additions(self, qubit_set: int) -> list[int]:
        """The outside qubits, ascending, that complete the most horizon gates."""
        scores: dict[int, int] = {}
        for mask in self.horizon:
            outside = mask & ~qubit_set
            if outside and not outside & (outside - 1):  # one qubit
                q = outside.bit_length() - 1
                scores[q] = scores.get(q, 0) + 1
        if not scores:
            return []
        best = max(scores.values())
        return sorted(q for q, s in scores.items() if s == best)

    def climb(self, qubit_set: int, rng) -> tuple[int, int]:
        """Improve *qubit_set* by first-improvement single-qubit exchanges.

        Tries each cluster qubit out in ascending order and, for it, the
        outside qubits in shuffled order; takes the first exchange that
        grows the cluster.  Returns the final cluster size and set.
        """
        low = qubit_set & -qubit_set
        inside, extra = self.exchanges(qubit_set ^ low)
        best = inside + extra.get(low, 0)
        improved = True
        while improved:
            improved = False
            outside = mask_bits(self.horizon_qubits & ~qubit_set)
            rng.shuffle(outside)
            for q_out in mask_bits(qubit_set):
                base = qubit_set & ~(1 << q_out)
                inside, extra = self.exchanges(base)
                for q_in in outside:
                    size = inside + extra.get(1 << q_in, 0)
                    if size > best:
                        qubit_set, best = base | (1 << q_in), size
                        improved = True
                        break
                if improved:
                    break
        return best, qubit_set


def _cluster_qubit_order(
    gates: Sequence[Gate], order: Sequence[int], cluster: Sequence[int]
) -> tuple[int, ...]:
    """Qubit tuple in first-touch order (defines the fused matrix bits)."""
    qubits: list[int] = []
    for pos in cluster:
        for q in gates[pos].qubits:
            if q not in qubits:
                qubits.append(q)
    return tuple(qubits)


def cluster_stage_gates(
    gates: Sequence[Gate],
    global_qubits: frozenset[int],
    kmax: int,
    *,
    trials: int = 3,
    seed: int = 0,
    stats: Counter | None = None,
) -> list:
    """Partition a stage's gate sequence into ordered ops.

    Returns a list of :class:`ClusterOp` / :class:`GateOp` whose
    concatenated gates are a per-qubit-order-preserving permutation of the
    input sequence.

    Parameters
    ----------
    gates:
        Stage gates in a valid topological (circuit) order.
    global_qubits:
        Stage's global set; gates touching it become GateOps.
    kmax:
        Maximum cluster size (Table 1 sweeps 3, 4, 5).
    trials:
        Randomised lookahead growths per seed gate (the "small local
        search" of Sec. 3.6.1).
    stats:
        A counter the call adds its work to: ``scans`` (passes over a
        step's ancestor masks, each scoring every exchange out of one
        cluster qubit) and ``scan_memo_hits`` (exchange scores answered
        by the step's memo).
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    global_mask = bit_mask(global_qubits)
    qubits = [gate.qubits for gate in gates]
    masks = [bit_mask(gate_qubits) for gate_qubits in qubits]
    for gate, mask in zip(gates, masks):
        if mask & global_mask:
            if not gate_specializable_under(gate, global_qubits):
                raise ValueError(
                    f"stage gate {gate!r} touches global qubits but is not "
                    "specializable"
                )
        elif gate.num_qubits > kmax:
            raise ValueError(f"gate {gate!r} is larger than kmax={kmax}")
    counts = Counter() if stats is None else stats
    rng = ensure_rng(seed)
    remaining = list(range(len(gates)))
    ops: list = []
    while remaining:
        first = remaining[0]
        if masks[first] & global_mask:
            ops.append(GateOp(gates[first]))
            remaining.pop(0)
            continue
        step = _ClusterStep(
            qubits, masks, remaining, global_mask, kmax, counts
        )
        # Seed gates: the first few local gates.
        seeds = islice(
            (pos for pos in remaining if not masks[pos] & global_mask),
            _SEED_GATES,
        )
        best_size, best_set = 0, 0
        for seed_pos in seeds:
            for _ in range(max(1, trials)):
                grown = step.grow(masks[seed_pos], kmax, rng)
                size, improved_set = step.climb(grown, rng)
                if size > best_size or (
                    size == best_size
                    and improved_set.bit_count() < best_set.bit_count()
                ):
                    best_size, best_set = size, improved_set
        # Fall back to the first local gate alone (always legal).
        best_cluster = step.cluster(best_set) or [first]
        chosen = set(best_cluster)
        ops.append(
            ClusterOp(
                qubits=_cluster_qubit_order(gates, remaining, best_cluster),
                gates=tuple(gates[pos] for pos in best_cluster),
            )
        )
        remaining = [pos for pos in remaining if pos not in chosen]
    return _merge_adjacent_clusters(ops, kmax)


def _merge_adjacent_clusters(ops: list, kmax: int) -> list:
    """Fixpoint pass merging cluster pairs whose union fits in kmax.

    Two clusters merge when their combined qubit set has at most kmax
    qubits and no op between them touches any of those qubits (so the
    later one can slide back without reordering shared-qubit gates).
    """
    changed = True
    while changed:
        changed = False
        for i, first in enumerate(ops):
            if not isinstance(first, ClusterOp):
                continue
            # Qubits touched by skipped intermediates: a later candidate
            # sliding back across them must not share any.
            blocked: set[int] = set()
            for j in range(i + 1, len(ops)):
                other = ops[j]
                other_qubits = (
                    set(other.qubits)
                    if isinstance(other, ClusterOp)
                    else set(other.gate.qubits)
                )
                mergeable = (
                    isinstance(other, ClusterOp) and not (other_qubits & blocked)
                )
                if mergeable:
                    union = list(first.qubits)
                    union += [q for q in other.qubits if q not in first.qubits]
                    if len(union) <= kmax:
                        ops[i] = ClusterOp(
                            qubits=tuple(union), gates=first.gates + other.gates
                        )
                        del ops[j]
                        changed = True
                        break
                if other_qubits & set(first.qubits):
                    break  # order with `first` itself now constrains
                blocked |= other_qubits
            if changed:
                break
    return ops
