"""Clustering: merge stage gates into fused k-qubit kernels (Sec. 3.6.1, step 2).

Within one stage every gate is either local (all qubits local) or
specializable on global qubits.  Local gates are merged greedily into
clusters of at most ``kmax`` qubits; specializable global gates become
standalone :class:`GateOp` items (they cost no kernel time and no
communication).

The scan respects per-qubit gate order with a *blocking* rule: once a
gate is skipped (not admitted to the growing cluster), its qubits are
blocked and no later gate touching them may join the cluster.  The
paper's "small local search" is implemented per cluster: several seed
gates propose qubit sets, each grown by absorption lookahead and then
improved by a first-improvement hill climb exchanging one cluster qubit
at a time; the candidate absorbing the most gates wins.  Qubit sets are
int bitmasks and, the pending list being fixed within one cluster step,
that step's scans are memoised by their allowed mask (:class:`_ClusterStep`).
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
    masks of the scan window and of the lookahead horizon are taken once,
    and every scan is memoised by its allowed mask: the seeds, trials and
    exchanges of one step re-scan many of the same sets.  The RNG draws
    from sorted lists (ties before ``rng.integers``, outside qubits
    before ``rng.shuffle``): that order fixes every schedule, which
    ``tests/scheduling/data/schedule_digests.json`` pins.
    """

    def __init__(
        self,
        masks: Sequence[int],
        remaining: Sequence[int],
        global_mask: int,
        counts: Counter,
    ) -> None:
        #: ``(position, qubit mask)`` of the gates a scan may walk.
        self.window = [(pos, masks[pos]) for pos in remaining[:_SCAN_LIMIT]]
        #: Masks of the local gates in the lookahead window.
        self.horizon = [
            masks[pos] for pos in remaining[:_HORIZON]
            if not masks[pos] & global_mask
        ]
        self.horizon_qubits = reduce(or_, self.horizon, 0)
        self.memo: dict[int, list[int]] = {}
        self.counts = counts

    def scan(self, allowed: int) -> list[int]:
        """Positions, in order, of the gates fitting entirely in *allowed*.

        Applies the blocking rule: skipped gates (global, oversize, or
        touching blocked qubits) block their qubits for the rest of the
        scan.  The list is shared through the memo: read only.
        """
        cluster = self.memo.get(allowed)
        if cluster is not None:
            self.counts["scan_memo_hits"] += 1
            return cluster
        self.counts["scans"] += 1
        cluster = []
        blocked = 0
        for pos, mask in self.window:
            if mask & blocked or mask & ~allowed:
                blocked |= mask
                if not allowed & ~blocked:
                    break  # every cluster qubit is blocked: nothing more fits
            else:
                cluster.append(pos)
        self.memo[allowed] = cluster
        return cluster

    def grow(self, qubit_set: int, kmax: int, rng) -> int:
        """Grow *qubit_set* to ``kmax`` qubits by absorption-count lookahead."""
        while qubit_set.bit_count() < kmax:
            scores: dict[int, int] = {}
            for mask in self.horizon:
                outside = mask & ~qubit_set
                if outside and not outside & (outside - 1):  # one qubit
                    q = outside.bit_length() - 1
                    scores[q] = scores.get(q, 0) + 1
            if not scores:
                break
            best = max(scores.values())
            ties = sorted(q for q, s in scores.items() if s == best)
            qubit_set |= 1 << ties[int(rng.integers(len(ties)))]
        return qubit_set

    def climb(self, qubit_set: int, rng) -> tuple[list[int], int]:
        """Improve *qubit_set* by first-improvement single-qubit exchanges."""
        best_cluster = self.scan(qubit_set)
        improved = True
        while improved:
            improved = False
            outside = mask_bits(self.horizon_qubits & ~qubit_set)
            rng.shuffle(outside)
            for q_out in mask_bits(qubit_set):
                for q_in in outside:
                    trial = (qubit_set & ~(1 << q_out)) | (1 << q_in)
                    cand = self.scan(trial)
                    if len(cand) > len(best_cluster):
                        qubit_set, best_cluster = trial, cand
                        improved = True
                        break
                if improved:
                    break
        return best_cluster, qubit_set


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
        A counter the call adds its work to: ``scans`` (blocking scans
        run) and ``scan_memo_hits`` (scans answered by the step's memo).
    """
    if kmax < 1:
        raise ValueError(f"kmax must be >= 1, got {kmax}")
    global_mask = bit_mask(global_qubits)
    masks = [bit_mask(gate.qubits) for gate in gates]
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
        step = _ClusterStep(masks, remaining, global_mask, counts)
        # Seed gates: the first few local gates.
        seeds = islice(
            (pos for pos in remaining if not masks[pos] & global_mask),
            _SEED_GATES,
        )
        best_cluster: list[int] = []
        best_set = 0
        for seed_pos in seeds:
            for _ in range(max(1, trials)):
                grown = step.grow(masks[seed_pos], kmax, rng)
                cluster, improved_set = step.climb(grown, rng)
                if len(cluster) > len(best_cluster) or (
                    len(cluster) == len(best_cluster)
                    and improved_set.bit_count() < best_set.bit_count()
                ):
                    best_cluster, best_set = cluster, improved_set
        if not best_cluster:
            # Fall back to the first local gate alone (always legal).
            best_cluster = [first]
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
