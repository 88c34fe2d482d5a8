"""Stage finding: minimize the number of global-to-local swaps.

Sec. 3.6.1, step 1.  A *stage* is a maximal set of gates executable with a
fixed global-qubit assignment: dense gates need all their qubits local,
while diagonal gates are executable anywhere thanks to the Sec. 3.5
specialization.  Following the paper, the finder assumes the worst case in
which every *random single-qubit* gate is dense (so a T cannot be relied
on to specialize — schedules are reused across instances of the same
shape), while the structural CZ gates always specialize.

The global set for each stage is chosen by a greedy seed (qubits whose
first locality-requiring gate lies furthest in the future) improved by a
first-improvement hill climb over single qubit exchanges — the paper's
"cheap search algorithm".  A one-stage-completion check terminates the
loop as soon as every qubit still requiring locality fits into the local
set, which is what recovers the 36-qubit "2 swaps -> 1 swap" result.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.circuit.circuit import Circuit
from repro.util.bits import bit_mask
from repro.util.rng import ensure_rng

__all__ = ["StagePlan", "find_stages"]


@dataclass
class StagePlan:
    """Output of the stage finder: per stage, a global set and gate ids."""

    num_qubits: int
    local_qubits: int
    stages: list[tuple[frozenset[int], list[int]]] = field(default_factory=list)
    #: Candidate global sets the search scored (``_CircuitView.advance`` calls).
    evaluations: int = 0

    @property
    def num_swaps(self) -> int:
        """Global-to-local swaps (stage transitions)."""
        return max(0, len(self.stages) - 1)

    @property
    def num_stages(self) -> int:
        """Number of communication-free stages."""
        return len(self.stages)

    def all_gate_ids(self) -> list[int]:
        """Every scheduled gate id, in execution order."""
        out: list[int] = []
        for _, gate_ids in self.stages:
            out.extend(gate_ids)
        return out


class _CircuitView:
    """Preprocessed circuit arrays for fast stage evaluation.

    Qubit sets are int bitmasks (:func:`~repro.util.bits.bit_mask`), so
    whether a gate may run under a global set is one ``&``.
    """

    def __init__(
        self, circuit: Circuit, *, specialize: bool, worst_case_dense: bool
    ) -> None:
        self.num_qubits = circuit.num_qubits
        self.qubits_of: list[tuple[int, ...]] = []
        #: True when the gate is executable regardless of qubit locality.
        self.anywhere: list[bool] = []
        for gate in circuit:
            self.qubits_of.append(gate.qubits)
            ok = False
            if specialize and gate.is_diagonal:
                # Worst-case mode: random single-qubit gates are assumed
                # dense (T may be an X^(1/2) in another instance); the
                # structural multi-qubit CZs always specialize.
                ok = gate.num_qubits >= 2 or not worst_case_dense
            self.anywhere.append(ok)
        self.masks = [bit_mask(qubits) for qubits in self.qubits_of]
        #: Per gate, the qubits it needs local (0 when it runs anywhere).
        self.needs_local = [
            0 if ok else mask for mask, ok in zip(self.masks, self.anywhere)
        ]
        self.per_qubit: list[list[int]] = [[] for _ in range(self.num_qubits)]
        #: Per gate, ``(qubit, position in per_qubit[qubit])`` for each of
        #: its qubits: gate ``gid`` is next on qubit ``q`` iff
        #: ``fronts[q]`` equals that position.
        self.slots: list[tuple[tuple[int, int], ...]] = []
        for gid, qubits in enumerate(self.qubits_of):
            self.slots.append(
                tuple((q, len(self.per_qubit[q])) for q in qubits)
            )
            for q in qubits:
                self.per_qubit[q].append(gid)
        #: ``next_local[q][i]``: position of the first gate at or after
        #: ``i`` in ``per_qubit[q]`` that needs ``q`` local (the list's
        #: length when none does).
        self.next_local: list[list[int]] = []
        for gids in self.per_qubit:
            nxt = [len(gids)] * (len(gids) + 1)
            for i in range(len(gids) - 1, -1, -1):
                nxt[i] = nxt[i + 1] if self.anywhere[gids[i]] else i
            self.next_local.append(nxt)
        self.num_gates = len(self.qubits_of)
        #: Candidate global sets scored so far: the stage search's unit
        #: of work (one :meth:`advance` call each).
        self.evaluations = 0
        self._chains_key: tuple[int, ...] | None = None
        self._chains: tuple[list[list[int]], ...] = ([], [], [])

    def gate_remaining(self, gid: int, fronts: list[int]) -> bool:
        """True when gate *gid* has not yet been executed."""
        q0, pos = self.slots[gid][0]
        return fronts[q0] <= pos

    def interaction_adjacency(self, fronts: list[int]) -> dict[int, set[int]]:
        """Qubit adjacency via the *remaining* multi-qubit gates."""
        adj: dict[int, set[int]] = {q: set() for q in range(self.num_qubits)}
        for gid, qubits in enumerate(self.qubits_of):
            if len(qubits) < 2 or not self.gate_remaining(gid, fronts):
                continue
            for a in qubits:
                for b in qubits:
                    if a != b:
                        adj[a].add(b)
        return adj

    # ------------------------------------------------------------------
    def _ancestor_chains(
        self, fronts: list[int]
    ) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
        """Per qubit, its pending gates' ancestor masks in closed form.

        A pending gate's *ancestor mask* is the OR of ``needs_local`` over
        the gate and its pending same-qubit predecessors, transitively: the
        gate runs under a global mask iff its ancestor mask misses it.
        Along one qubit's pending gates that mask only grows, so what
        runs on each qubit is a prefix of them.  Returns three per-qubit
        lists: the distinct nonzero ancestor masks in chain order, the
        ``per_qubit`` position where each first appears, and how many
        gates *led* by the qubit (it is their first qubit) lie before
        that position.  Positions and counts end with a sentinel for
        "the whole chain runs".  Built once per distinct *fronts*: every
        candidate of one stage shares them.
        """
        key = tuple(fronts)
        if key == self._chains_key:
            return self._chains
        n = self.num_qubits
        masks: list[list[int]] = [[] for _ in range(n)]
        positions: list[list[int]] = [[] for _ in range(n)]
        counts: list[list[int]] = [[] for _ in range(n)]
        last = [0] * n
        led = [0] * n
        needs_local, slots = self.needs_local, self.slots
        for gid in range(self.num_gates):
            gate_slots = slots[gid]
            lead, lead_pos = gate_slots[0]
            if fronts[lead] > lead_pos:
                continue  # already executed
            ancestors = needs_local[gid]
            for q, _ in gate_slots:
                ancestors |= last[q]
            for q, pos in gate_slots:
                if ancestors != last[q]:
                    masks[q].append(ancestors)
                    positions[q].append(pos)
                    counts[q].append(led[q])
                last[q] = ancestors
            led[lead] += 1
        for q in range(n):
            positions[q].append(len(self.per_qubit[q]))
            counts[q].append(led[q])
        self._chains_key = key
        self._chains = masks, positions, counts
        return self._chains

    def advance(self, fronts: list[int], global_mask: int) -> tuple[int, list[int]]:
        """Score the global set *global_mask* from *fronts*.

        Returns how many gates run under it and the advanced fronts: per
        qubit, one binary search for the first ancestor mask meeting
        *global_mask* (:meth:`_ancestor_chains`).  The largest set that
        keeps per-qubit order runs: a gate runs unless it needs a global
        qubit local or an earlier pending gate on one of its qubits did
        not run.
        """
        self.evaluations += 1
        meets = global_mask.__and__
        new_fronts: list[int] = []
        executed = 0
        for masks, positions, counts in zip(*self._ancestor_chains(fronts)):
            stop = bisect_left(masks, 1, key=meets)
            new_fronts.append(positions[stop])
            executed += counts[stop]
        return executed, new_fronts

    def executed_between(
        self, fronts: list[int], new_fronts: list[int]
    ) -> list[int]:
        """The gate ids (ascending) that moving *fronts* to *new_fronts* runs."""
        qubits_of = self.qubits_of
        return sorted(
            gid
            for q, gids in enumerate(self.per_qubit)
            for gid in gids[fronts[q]:new_fronts[q]]
            if qubits_of[gid][0] == q
        )

    def max_executable(
        self, fronts: list[int], global_mask: int
    ) -> tuple[list[int], list[int]]:
        """Execute every gate runnable under the global set *global_mask*.

        ``fronts[q]`` is the index into ``per_qubit[q]`` of the next
        pending gate on qubit ``q``.  Returns the executed gate ids
        (ascending) and the advanced fronts (see :meth:`advance`).
        """
        _, new_fronts = self.advance(fronts, global_mask)
        return self.executed_between(fronts, new_fronts), new_fronts

    def qubits_needing_local(self, fronts: list[int]) -> set[int]:
        """Qubits with a remaining gate that requires them to be local."""
        return {
            q for q, f in enumerate(fronts)
            if self.next_local[q][f] < len(self.per_qubit[q])
        }

    def first_block_distance(self, fronts: list[int]) -> list[float]:
        """Per qubit: #pending gates before its first locality-requiring one.

        ``inf`` when the qubit never needs to be local again — the safest
        qubits to keep global.
        """
        dist: list[float] = []
        for q, f in enumerate(fronts):
            first = self.next_local[q][f]
            dist.append(
                float(first - f) if first < len(self.per_qubit[q])
                else float("inf")
            )
        return dist

    def remaining(self, fronts: list[int]) -> int:
        """Number of gate *slots* left (gate counted once per qubit)."""
        return sum(len(self.per_qubit[q]) - fronts[q] for q in range(self.num_qubits))

    def max_gate_local_requirement(self) -> int:
        """Largest number of local qubits any single gate requires."""
        worst = 0
        for gid, qubits in enumerate(self.qubits_of):
            if not self.anywhere[gid]:
                worst = max(worst, len(qubits))
        return worst


def _candidate_seeds(
    view: _CircuitView,
    fronts: list[int],
    dist: list[float],
    g: int,
    rng,
    count: int,
) -> list[set[int]]:
    """Initial global-set candidates for the stage search.

    Two families: (a) the g qubits whose first locality-requiring gate
    lies furthest ahead (the paper's "lowest-order / upper-bound" analogue
    generalised to gate distance); (b) BFS balls on the remaining
    interaction graph — compact frozen regions minimize how far blocking
    propagates through the circuit's light cone, which is what makes the
    one-swap 36-qubit schedule findable.
    """
    n = view.num_qubits
    seeds: list[set[int]] = []
    order = sorted(range(n), key=lambda q: (-dist[q], q))
    seeds.append(set(order[:g]))

    # Frontier rescue: a set that provably lets the earliest pending gate
    # run (its qubits forced local).  Without it the search can stall on
    # circuits whose whole frontier is two-qubit gates straddling every
    # candidate global set (seen with specialization disabled).
    frontier_qubits: set[int] = set()
    for q in range(n):
        f = fronts[q]
        if f < len(view.per_qubit[q]):
            gid = view.per_qubit[q][f]
            ready = all(
                view.per_qubit[p][fronts[p]] == gid
                for p in view.qubits_of[gid]
                if fronts[p] < len(view.per_qubit[p])
            )
            if ready:
                frontier_qubits.update(view.qubits_of[gid])
                break
    if frontier_qubits:
        rescue = [q for q in order if q not in frontier_qubits][:g]
        if len(rescue) == g and set(rescue) not in seeds:
            seeds.append(set(rescue))

    adj = view.interaction_adjacency(fronts)
    degrees = sorted(range(n), key=lambda q: (len(adj[q]), q))
    roots = degrees[: max(2, count)] + [
        int(x)
        for x in rng.choice(n, size=min(n, max(0, count - 2)), replace=False)
    ]
    for root in roots:
        ball = [root]
        seen = {root}
        frontier = [root]
        while len(ball) < g and frontier:
            nxt: list[int] = []
            for q in frontier:
                neighbors = sorted(adj[q] - seen)
                rng.shuffle(neighbors)
                for nb in neighbors:
                    if len(ball) >= g:
                        break
                    seen.add(nb)
                    ball.append(nb)
                    nxt.append(nb)
            frontier = nxt
        if len(ball) < g:
            # Disconnected leftovers: pad with furthest-blocking qubits.
            for q in order:
                if len(ball) >= g:
                    break
                if q not in seen:
                    ball.append(q)
                    seen.add(q)
        seed = set(ball)
        if seed not in seeds:
            seeds.append(seed)
        if len(seeds) >= count + 1:
            break
    return seeds


def _hill_climb(
    view: _CircuitView,
    fronts: list[int],
    global_set: set[int],
    rng,
    *,
    local_qubits: int,
    neighbor_samples: int,
    max_passes: int,
) -> tuple[set[int], tuple[int, int], list[int]]:
    """First-improvement hill climb over single qubit exchanges.

    The objective is lexicographic: primarily, whether the *remainder*
    after this stage completes in a single further stage (this is what
    turns two swaps into one for the 36-qubit circuit); secondarily, the
    number of gates the stage executes.  Returns the set, its objective
    and the fronts after its stage.
    """
    n = view.num_qubits

    def score(mask: int) -> tuple[tuple[int, int], list[int]]:
        executed, cand_fronts = view.advance(fronts, mask)
        finishes = int(len(view.qubits_needing_local(cand_fronts)) <= local_qubits)
        return (finishes, executed), cand_fronts

    # `current` stays a set: iterating it orders `pairs`, hence the shuffle.
    current = set(global_set)
    mask = bit_mask(current)
    best_key, new_fronts = score(mask)
    for _ in range(max_passes):
        improved = False
        local = [q for q in range(n) if q not in current]
        pairs = [(go, li) for go in current for li in local]
        rng.shuffle(pairs)
        for go, li in pairs[:neighbor_samples]:
            if go not in current or li in current:
                continue  # stale after an accepted move
            exchange = (1 << go) | (1 << li)
            cand_key, cand_fronts = score(mask ^ exchange)
            if cand_key > best_key:
                current.discard(go)
                current.add(li)
                mask ^= exchange
                best_key, new_fronts = cand_key, cand_fronts
                improved = True
        if not improved:
            break
    return current, best_key, new_fronts


def find_stages(
    circuit: Circuit,
    local_qubits: int,
    *,
    specialize: bool = True,
    worst_case_dense: bool = True,
    seed: int = 0,
    restarts: int = 3,
    neighbor_samples: int = 150,
    max_passes: int = 4,
) -> StagePlan:
    """Partition *circuit* into communication-free stages.

    Returns a :class:`StagePlan` whose ``num_swaps`` is the Fig. 5 metric.
    The first stage's global set is adopted for free at initialisation.

    Parameters mirror :class:`repro.scheduling.SchedulerConfig`; see the
    module docstring for the algorithm.
    """
    n = circuit.num_qubits
    view = _CircuitView(
        circuit, specialize=specialize, worst_case_dense=worst_case_dense
    )
    plan = StagePlan(num_qubits=n, local_qubits=min(local_qubits, n))
    g = n - plan.local_qubits
    fronts = [0] * n
    rng = ensure_rng(seed)

    if g == 0:
        executed, fronts = view.max_executable(fronts, 0)
        plan.stages.append((frozenset(), executed))
        plan.evaluations = view.evaluations
        return plan

    if view.max_gate_local_requirement() > plan.local_qubits:
        raise ValueError(
            "a gate requires more local qubits than available"
        )

    while view.remaining(fronts) > 0:
        needing = view.qubits_needing_local(fronts)
        if len(needing) <= plan.local_qubits:
            # Completion: park g qubits that never need locality again.
            candidates = sorted(
                (q for q in range(n) if q not in needing),
                key=lambda q: len(view.per_qubit[q]) - fronts[q],
            )
            final_global = frozenset(candidates[:g])
            executed, fronts = view.max_executable(fronts, bit_mask(final_global))
            plan.stages.append((final_global, executed))
            if view.remaining(fronts) != 0:
                raise AssertionError("completion stage failed to drain circuit")
            break

        dist = view.first_block_distance(fronts)
        seeds = _candidate_seeds(view, fronts, dist, g, rng, max(1, restarts))
        best = None  # ((finishes_next, stage_size), set, fronts)
        for seed_set in seeds:
            cand_set, key, cand_fronts = _hill_climb(
                view,
                fronts,
                seed_set,
                rng,
                local_qubits=plan.local_qubits,
                neighbor_samples=neighbor_samples,
                max_passes=max_passes,
            )
            if best is None or key > best[0]:
                best = (key, cand_set, cand_fronts)
                if key[0]:
                    break
        (_, stage_size), chosen_set, new_fronts = best
        if not stage_size:
            raise RuntimeError(
                "stage finder made no progress; circuit may contain a gate "
                "larger than the local qubit count"
            )
        executed = view.executed_between(fronts, new_fronts)
        fronts = new_fronts
        plan.stages.append((frozenset(chosen_set), executed))

    plan.evaluations = view.evaluations
    return plan
