"""The full scheduling pipeline (Sec. 3.6.1 steps 1-3).

``schedule_circuit`` chains stage finding, per-stage clustering and the
swap-point adjustment into an executable :class:`Schedule`.  The whole
pre-computation runs in seconds on a laptop (the paper quotes 1-3 s) and
its output can be reused for every instance of the same circuit shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

from repro.circuit.circuit import Circuit
from repro.gates.gate import Gate
from repro.scheduling.clustering import cluster_stage_gates
from repro.scheduling.program import (
    ClusterOp,
    Schedule,
    Stage,
    gate_specializable_under,
)
from repro.scheduling.stages import find_stages
from repro.telemetry.runtime import NULL_TELEMETRY, Telemetry

__all__ = ["SchedulerConfig", "schedule_circuit"]


@dataclass(frozen=True)
class SchedulerConfig:
    """Tuning knobs of the scheduling pipeline.

    Parameters
    ----------
    local_qubits:
        ``l`` — amplitudes per node are ``2**l`` (Table 1 uses 30).
    kmax:
        Largest fused-kernel size (Table 1 sweeps 3/4/5; Sec. 4 finds 4-5
        optimal depending on the machine).
    specialize_global_diagonal:
        The Sec. 3.5 optimization; turning it off reproduces the "3 swaps
        instead of 2" ablation for the 45-qubit circuit.
    worst_case_dense:
        Stage finding treats every random single-qubit gate as dense (the
        paper's conservative default, enabling schedule reuse across
        instances).
    skip_initial_hadamards:
        Drop a leading all-qubit Hadamard layer and mark the schedule for
        ``"plus"`` initialisation (Sec. 3.6's shortcut).
    drop_final_diagonals:
        Remove trailing diagonal gates (the paper: "we do not simulate
        the final CZ gates as they only alter the phases ... not the
        probabilities").  Output *probabilities* are preserved exactly;
        amplitudes are not — leave off when amplitudes matter.
    adjust_swaps:
        Step 3: try to move each swap earlier to kill trailing small
        clusters, when this does not increase the swap count.
    seed / stage_restarts / neighbor_samples / cluster_trials:
        Search-effort knobs for the stochastic parts; none may be
        negative.
    """

    local_qubits: int
    kmax: int = 5
    specialize_global_diagonal: bool = True
    worst_case_dense: bool = True
    skip_initial_hadamards: bool = True
    drop_final_diagonals: bool = False
    adjust_swaps: bool = True
    seed: int = 0
    stage_restarts: int = 3
    neighbor_samples: int = 150
    cluster_trials: int = 3

    def __post_init__(self) -> None:
        if self.local_qubits < 1:
            raise ValueError(
                f"local_qubits must be >= 1, got {self.local_qubits}"
            )
        if self.kmax < 1:
            raise ValueError(f"kmax must be >= 1, got {self.kmax}")
        for name in ("seed", "stage_restarts", "neighbor_samples",
                     "cluster_trials"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} must be >= 0, got {getattr(self, name)}"
                )
        if self.kmax > self.local_qubits:
            raise ValueError(
                f"kmax={self.kmax} exceeds local_qubits="
                f"{self.local_qubits}: a fused cluster kernel must fit "
                f"inside the local partition (pass kmax<="
                f"{self.local_qubits})"
            )

    def with_(self, **kwargs) -> "SchedulerConfig":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)


def _strip_initial_hadamards(circuit: Circuit) -> tuple[Circuit, str]:
    """Remove a leading H-on-every-qubit layer if present."""
    n = circuit.num_qubits
    if len(circuit) < n:
        return circuit, "zero"
    head = circuit.gates[:n]
    covered = set()
    for gate in head:
        if gate.name != "h" or gate.num_qubits != 1:
            return circuit, "zero"
        covered.update(gate.qubits)
    if covered != set(range(n)):
        return circuit, "zero"
    return Circuit(n, circuit.gates[n:]), "plus"


def _adjust_swap_points(
    stage_data: list[tuple[frozenset[int], list[Gate]]],
    kmax: int,
    config: SchedulerConfig,
    counts: Counter,
) -> list[tuple[frozenset[int], list[Gate], list]]:
    """Step 3: migrate boundary clusters across swap points when cheaper.

    At each stage boundary, repeatedly try moving the first cluster of
    the next stage back into this one (performing the swap later), then,
    over every boundary again, the last cluster of a stage forward into
    the next (performing it earlier).  A move is legal when no op between
    the cluster and the boundary shares its qubits, every migrated gate
    runs under the receiving stage's global set and the giving stage
    keeps a gate; it is kept when the total cluster count drops.  Every
    clustering adds its scan counts to *counts*.
    """

    def cluster(gates, global_set, stage_index):
        return cluster_stage_gates(
            gates, global_set, kmax, trials=config.cluster_trials,
            seed=config.seed + stage_index, stats=counts,
        )

    clustered: list[tuple[frozenset[int], list[Gate], list]] = []
    for i, (global_set, gates) in enumerate(stage_data):
        ops = cluster(gates, global_set, i)
        clustered.append((global_set, list(gates), ops))

    if not config.adjust_swaps:
        return clustered

    for forward in (False, True):
        for i in range(len(clustered) - 1):
            while _migrate(clustered, i, forward, cluster):
                pass
    return clustered


def _migrate(clustered, i: int, forward: bool, cluster) -> bool:
    """Move the cluster next to the boundary after stage *i* across it —
    stage ``i``'s last one *forward*, else stage ``i + 1``'s first —
    when legal and fewer clusters result; whether it moved."""
    giver, taker = (i, i + 1) if forward else (i + 1, i)
    global_give, gates_give, ops_give = clustered[giver]
    global_take, gates_take, ops_take = clustered[taker]
    positions = [p for p, op in enumerate(ops_give) if isinstance(op, ClusterOp)]
    if not positions:
        return False
    pos = positions[-1] if forward else positions[0]
    moved = ops_give[pos]
    # Ops between the cluster and the boundary sharing its qubits would
    # be reordered across it.
    between = ops_give[pos + 1:] if forward else ops_give[:pos]
    if any(
        set(op.qubits if isinstance(op, ClusterOp) else op.gate.qubits)
        & set(moved.qubits)
        for op in between
    ):
        return False
    if not all(gate_specializable_under(g, global_take) for g in moved.gates):
        return False
    # Remove exactly the cluster's gate occurrences (positional, robust
    # to repeated identical Gate objects).
    to_remove = list(moved.gates)
    new_give = []
    for g in gates_give:
        for k, pending in enumerate(to_remove):
            if pending is g:
                to_remove.pop(k)
                break
        else:
            new_give.append(g)
    if not new_give:
        return False  # never empty a stage
    new_take = (
        list(moved.gates) + gates_take if forward else gates_take + list(moved.gates)
    )
    new_ops_give = cluster(new_give, global_give, giver)
    new_ops_take = cluster(new_take, global_take, taker)
    old_total = _count_clusters(ops_give) + _count_clusters(ops_take)
    if _count_clusters(new_ops_give) + _count_clusters(new_ops_take) >= old_total:
        return False
    clustered[giver] = (global_give, new_give, new_ops_give)
    clustered[taker] = (global_take, new_take, new_ops_take)
    return True


def _count_clusters(ops) -> int:
    return sum(1 for op in ops if isinstance(op, ClusterOp))


def schedule_circuit(
    circuit: Circuit,
    config: SchedulerConfig,
    *,
    telemetry: Telemetry | None = None,
) -> Schedule:
    """Run the full pipeline and return an executable :class:`Schedule`.

    The returned schedule references the (possibly Hadamard-stripped)
    circuit it covers; ``Schedule.initial_state`` says how the state must
    be initialised (``"plus"`` when the H layer was absorbed).  An active
    *telemetry* bundle records one ``schedule``-kind span per pipeline
    phase plus summary gauges (stages, swaps, clusters); the
    ``find_stages`` span carries the search's ``evaluations`` (candidate
    global sets scored, each in closed form) and ``cluster_and_adjust``
    its ``scans`` (exchange-scoring passes over a cluster step's
    ancestor masks) and ``scan_memo_hits``.
    """
    if config.local_qubits > circuit.num_qubits:
        raise ValueError(
            f"local_qubits={config.local_qubits} exceeds the circuit's "
            f"{circuit.num_qubits} qubits: the local partition cannot "
            f"hold more qubits than exist (pass local_qubits<="
            f"{circuit.num_qubits})"
        )
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    tracer = tel.tracer
    with tracer.span(
        "schedule_circuit",
        kind="schedule",
        qubits=circuit.num_qubits,
        gates=len(circuit),
        kmax=config.kmax,
    ):
        work = circuit
        initial_state = "zero"
        if config.skip_initial_hadamards:
            work, initial_state = _strip_initial_hadamards(circuit)
        if config.drop_final_diagonals:
            from repro.circuit.transforms import drop_final_diagonal_gates

            work = drop_final_diagonal_gates(work)

        with tracer.span("find_stages", kind="schedule") as span:
            plan = find_stages(
                work,
                config.local_qubits,
                specialize=config.specialize_global_diagonal,
                worst_case_dense=config.worst_case_dense,
                seed=config.seed,
                restarts=config.stage_restarts,
                neighbor_samples=config.neighbor_samples,
            )
            if span is not None:
                span.attrs["evaluations"] = plan.evaluations
        stage_data = [
            (global_set, [work.gates[i] for i in gate_ids])
            for global_set, gate_ids in plan.stages
        ]
        with tracer.span("cluster_and_adjust", kind="schedule") as span:
            counts = Counter(scans=0, scan_memo_hits=0)
            clustered = _adjust_swap_points(
                stage_data, config.kmax, config, counts
            )
            if span is not None:
                span.attrs.update(counts)

        stages = [Stage(global_qubits=gs, ops=ops) for gs, _, ops in clustered]
        schedule = Schedule(
            circuit=work,
            local_qubits=config.local_qubits,
            stages=stages,
            initial_state=initial_state,
            kmax=config.kmax,
        )
        with tracer.span("validate", kind="schedule"):
            schedule.validate()
    if tel.metrics.enabled:
        tel.metrics.gauge("schedule.stages").set(len(schedule.stages))
        tel.metrics.gauge("schedule.swaps").set(schedule.num_swaps)
        tel.metrics.gauge("schedule.clusters").set(schedule.num_clusters)
    return schedule
