"""Structural invariants of a :class:`~repro.scheduling.Schedule`.

The scheduling pipeline's output is only trustworthy if every stage obeys
the layout contract the distributed executor assumes (Sec. 3.4-3.6 of the
paper): clusters fit in ``kmax`` and touch only stage-local qubits,
specialized gates really specialize under the stage's global set, swap
points are feasible, the original circuit is covered exactly once in a
legal order, and every fused cluster matrix is unitary.
:func:`verify_schedule` checks all of that *without executing anything*
and reports violations as :class:`~repro.staticcheck.diagnostics.Finding`s
instead of raising, so a single run surfaces every problem at once — on
malformed schedules too, which is what it exists to reject.

``Schedule.validate()`` raises the first error this finds (unitarity
aside): the checker is the one implementation of these rules.
"""

from __future__ import annotations

import numpy as np

from repro.scheduling.program import (
    ClusterOp,
    GateOp,
    Schedule,
    gate_specializable_under,
)
from repro.staticcheck.diagnostics import CheckReport, Severity

__all__ = ["verify_schedule"]

_W = Severity.WARNING
_E = Severity.ERROR


def _op_gates(op) -> list:
    if isinstance(op, ClusterOp):
        return list(op.gates)
    if isinstance(op, GateOp):
        return [op.gate]
    return []


def _gate_key(gate) -> tuple:
    return (gate.name, gate.qubits, gate.matrix.tobytes())


# ----------------------------------------------------------------------
# Individual passes (each appends findings to the shared report)
# ----------------------------------------------------------------------
def _check_structure(schedule: Schedule, report: CheckReport) -> None:
    n, l = schedule.num_qubits, schedule.local_qubits
    if not 0 < l <= n:
        report.add(
            _E, "structure",
            f"local_qubits={l} outside (0, {n}]",
            hint="the qubit split must leave at least one local qubit",
        )
        return
    g = n - l
    for i, stage in enumerate(schedule.stages):
        bad = sorted(q for q in stage.global_qubits if not 0 <= q < n)
        if bad:
            report.add(
                _E, "structure",
                f"stage global set contains out-of-range qubits {bad}",
                stage=i,
                hint=f"qubits must lie in [0, {n})",
            )
        if len(stage.global_qubits) != g:
            report.add(
                _E, "structure",
                f"stage global set has {len(stage.global_qubits)} qubits, "
                f"expected {g}",
                stage=i,
                hint="every stage must keep exactly num_qubits - "
                "local_qubits qubits global",
            )


def _check_swaps(schedule: Schedule, report: CheckReport) -> None:
    l = schedule.local_qubits
    for i in range(1, len(schedule.stages)):
        prev = schedule.stages[i - 1].global_qubits
        cur = schedule.stages[i].global_qubits
        incoming = prev - cur  # become local
        outgoing = cur - prev  # become global
        if not incoming and not outgoing:
            report.add(
                _W, "swap",
                "swap point between identical global sets (no-op swap)",
                stage=i,
                hint="merge the two stages; the swap wastes one "
                "communication step",
            )
            continue
        if len(incoming) != len(outgoing):
            report.add(
                _E, "swap",
                f"swap exchanges {len(incoming)} incoming against "
                f"{len(outgoing)} outgoing qubits",
                stage=i,
                hint="a global-to-local swap must exchange equal-size "
                "qubit sets to preserve the split",
            )
        if len(incoming) > l:
            report.add(
                _E, "swap",
                f"swap brings {len(incoming)} qubits local but only "
                f"{l} local slots exist",
                stage=i,
                hint="split the swap across stages or raise local_qubits",
            )
        # Outgoing qubits were local before the swap by construction of
        # the set difference; an outgoing qubit that does not exist is
        # covered by _check_structure's range check.


def _check_clusters(schedule: Schedule, report: CheckReport) -> None:
    n = schedule.num_qubits
    kmax = schedule.kmax
    for i, stage in enumerate(schedule.stages):
        for j, op in enumerate(stage.ops):
            if isinstance(op, GateOp):
                continue
            if not isinstance(op, ClusterOp):
                report.add(
                    _E, "structure",
                    f"unknown op type {type(op).__name__} in stage op list",
                    stage=i, op_index=j,
                )
                continue
            qubits = op.qubits
            if len(set(qubits)) != len(qubits):
                report.add(
                    _E, "cluster-locality",
                    f"cluster has duplicate qubits {qubits}",
                    stage=i, op_index=j,
                )
            bad = sorted(q for q in qubits if not 0 <= q < n)
            if bad:
                report.add(
                    _E, "cluster-locality",
                    f"cluster qubits {bad} out of range",
                    stage=i, op_index=j,
                )
                continue
            if kmax is not None and op.num_qubits > kmax:
                report.add(
                    _E, "cluster-width",
                    f"cluster of width {op.num_qubits} exceeds kmax={kmax}",
                    stage=i, op_index=j,
                    hint="re-cluster the stage; wider kernels than tuned "
                    "for destroy the cache model and may not fit locally",
                )
            overlap = sorted(set(qubits) & stage.global_qubits)
            if overlap:
                report.add(
                    _E, "cluster-locality",
                    f"cluster touches stage-global qubits {overlap}",
                    stage=i, op_index=j,
                    hint="a fused kernel reads amplitude pairs that span "
                    "ranks when its qubit is global; insert a swap or "
                    "re-run stage finding",
                )


def _check_specialization(schedule: Schedule, report: CheckReport) -> None:
    for i, stage in enumerate(schedule.stages):
        for j, op in enumerate(stage.ops):
            if isinstance(op, GateOp):
                if not gate_specializable_under(op.gate, stage.global_qubits):
                    report.add(
                        _E, "specialization",
                        f"gate {op.gate.name!r} on qubits {op.gate.qubits} "
                        "is declared specialized but is not specializable "
                        "under this global set",
                        stage=i, op_index=j,
                        hint="only diagonal gates and monomial gates whose "
                        "global action is local-independent run without "
                        "communication (Sec. 3.5); schedule a swap or "
                        "cluster the gate locally",
                    )


def _check_coverage(schedule: Schedule, report: CheckReport) -> None:
    from collections import Counter

    original = Counter(_gate_key(g) for g in schedule.circuit)
    scheduled_gates = schedule.scheduled_gates()
    covered = Counter(_gate_key(g) for g in scheduled_gates)
    missing = original - covered
    extra = covered - original
    for key, count in missing.items():
        report.add(
            _E, "coverage",
            f"gate {key[0]!r} on qubits {key[1]} dropped: the schedule "
            f"covers it {count}x less often than the circuit",
            hint="every circuit gate must appear in exactly one cluster "
            "or specialized op",
        )
    for key, count in extra.items():
        report.add(
            _E, "coverage",
            f"gate {key[0]!r} on qubits {key[1]} appears {count}x more "
            "often than in the circuit",
            hint="a gate was duplicated across clusters; amplitudes "
            "would be multiplied twice",
        )
    if missing or extra:
        return  # order check would only echo the coverage problem
    _check_gate_order(schedule, scheduled_gates, report)


def _check_gate_order(schedule: Schedule, scheduled_gates, report) -> None:
    """Per-qubit order equality up to commuting-diagonal reorderings."""

    def canonical(gates, num_qubits):
        per_qubit: list[list] = [[] for _ in range(num_qubits)]
        for gate in gates:
            key = _gate_key(gate)
            for q in gate.qubits:
                per_qubit[q].append((gate.is_diagonal, key))
        canon = []
        for seq in per_qubit:
            blocks: list = []
            run: list = []
            for is_diag, key in seq:
                if is_diag:
                    run.append(key)
                else:
                    blocks.append(tuple(sorted(run)))
                    blocks.append(key)
                    run = []
            blocks.append(tuple(sorted(run)))
            canon.append(blocks)
        return canon

    n = schedule.num_qubits
    orig = canonical(list(schedule.circuit), n)
    resched = canonical(scheduled_gates, n)
    for q in range(n):
        if orig[q] != resched[q]:
            report.add(
                _E, "gate-order",
                f"per-qubit gate order violated on qubit {q}",
                hint="non-commuting gates on a qubit must execute in "
                "circuit order; only mutually-commuting diagonal gates "
                "may be reordered",
            )


def _check_unitarity(
    schedule: Schedule, report: CheckReport, tol: float
) -> None:
    for i, stage in enumerate(schedule.stages):
        for j, op in enumerate(stage.ops):
            if not isinstance(op, ClusterOp):
                continue
            matrix = np.asarray(op.fused.matrix)
            dim = 1 << op.num_qubits
            if matrix.shape != (dim, dim):
                report.add(
                    _E, "unitarity",
                    f"fused matrix shape {matrix.shape} does not match "
                    f"cluster width {op.num_qubits}",
                    stage=i, op_index=j,
                )
                continue
            defect = float(
                np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
            )
            if defect > tol:
                report.add(
                    _E, "unitarity",
                    f"fused cluster matrix deviates from unitarity by "
                    f"{defect:.3e} (tol {tol:.0e})",
                    stage=i, op_index=j,
                    hint="a non-unitary kernel silently destroys norm; "
                    "re-fuse the cluster from its source gates",
                )


# ----------------------------------------------------------------------
def verify_schedule(
    schedule: Schedule,
    *,
    unitary_tol: float = 1e-9,
    check_unitarity: bool = True,
) -> CheckReport:
    """Run every structural pass over *schedule*; never raises.

    Parameters
    ----------
    schedule:
        The program to verify.
    unitary_tol:
        Max-abs deviation of ``U^dagger U`` from identity tolerated for
        fused cluster matrices.
    check_unitarity:
        The unitarity pass builds every fused matrix (``O(4**k)`` each);
        disable it for very large schedules when only layout invariants
        matter.
    """
    report = CheckReport(
        checks_run=[
            "structure", "swaps", "clusters", "specialization", "coverage",
        ]
    )
    _check_structure(schedule, report)
    _check_swaps(schedule, report)
    _check_clusters(schedule, report)
    _check_specialization(schedule, report)
    _check_coverage(schedule, report)
    if check_unitarity:
        report.checks_run.append("unitarity")
        _check_unitarity(schedule, report, unitary_tol)
    return report
