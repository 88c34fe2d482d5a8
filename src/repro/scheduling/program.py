"""Schedule program representation.

A :class:`Schedule` is the executable output of the scheduler: a sequence
of stages, each holding ordered operations (fused k-qubit clusters and
specialized diagonal/monomial gates touching global qubits), separated by
global-to-local swap points.  :class:`repro.distributed.DistributedSimulator`
executes these programs directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from repro.circuit.circuit import Circuit
from repro.gates.fusion import fuse_gates
from repro.gates.gate import Gate
from repro.kernels.blocks import rank_split

__all__ = ["ClusterOp", "GateOp", "SwapOp", "Stage", "Schedule"]


@dataclass(frozen=True)
class ClusterOp:
    """A fused k-qubit gate applied by one kernel invocation.

    ``qubits`` is the cluster's qubit tuple (matrix bit ``j`` = qubit
    ``qubits[j]``); ``gates`` are the original circuit gates merged into
    it, in application order.
    """

    qubits: tuple[int, ...]
    gates: tuple[Gate, ...]

    @cached_property
    def fused(self) -> Gate:
        """The fused cluster unitary (built lazily: O(4**k))."""
        return fuse_gates(list(self.gates), self.qubits)

    @property
    def num_qubits(self) -> int:
        """Cluster size k."""
        return len(self.qubits)

    @property
    def num_gates(self) -> int:
        """Number of original gates merged into this cluster."""
        return len(self.gates)


@dataclass(frozen=True)
class GateOp:
    """A single gate executed via global-gate specialization (Sec. 3.5).

    Used for diagonal (CZ, T) or monomial gates that touch global qubits
    and therefore cannot join a local cluster, but need no communication.
    """

    gate: Gate

    def execute(self, state) -> None:
        """Apply the gate (the state dispatches to the specialized path)."""
        state.apply_gate(self.gate)


@dataclass(frozen=True)
class SwapOp:
    """A global-to-local swap establishing a new global qubit set."""

    new_global_qubits: frozenset[int]

    def execute(self, state) -> None:
        """Perform the swap (one communication step)."""
        state.swap_global_set(self.new_global_qubits)


def gate_specializable_under(gate: Gate, global_qubits) -> bool:
    """True when *gate* executes without communication under this layout:
    :func:`~repro.kernels.blocks.rank_split` (Sec. 3.5's rule, the one
    the distributed state runs the gate by) finds each rank its action."""
    global_bits = [j for j, q in enumerate(gate.qubits) if q in global_qubits]
    return rank_split(gate, global_bits) is not None


def _op_gates(op) -> list[Gate]:
    """The original circuit gates an op covers, in application order."""
    if isinstance(op, ClusterOp):
        return list(op.gates)
    return [op.gate]


@dataclass
class Stage:
    """One communication-free span of the program."""

    global_qubits: frozenset[int]
    ops: list = field(default_factory=list)

    @property
    def cluster_ops(self) -> list:
        """The fused-kernel operations of this stage."""
        return [op for op in self.ops if isinstance(op, ClusterOp)]

    @property
    def num_clusters(self) -> int:
        """Number of k-qubit kernel invocations in this stage."""
        return len(self.cluster_ops)

    @property
    def num_gates(self) -> int:
        """Original gates covered by this stage (clustered + specialized)."""
        return sum(len(_op_gates(op)) for op in self.ops)


@dataclass
class Schedule:
    """A fully scheduled program for a circuit.

    ``num_swaps`` is the headline metric of Sec. 3.6.1 (Fig. 5's top
    panels): the number of global-to-local swap communication steps; the
    initial stage's layout is adopted for free at state initialisation.
    """

    circuit: Circuit
    local_qubits: int
    stages: list[Stage]
    initial_state: str = "zero"
    kmax: int | None = None

    @property
    def num_qubits(self) -> int:
        """Total qubits of the underlying circuit."""
        return self.circuit.num_qubits

    @property
    def num_swaps(self) -> int:
        """Global-to-local swaps needed to run the program."""
        return max(0, len(self.stages) - 1)

    @property
    def num_clusters(self) -> int:
        """Total k-qubit kernel invocations (the Table 1 quantity)."""
        return sum(stage.num_clusters for stage in self.stages)

    @property
    def num_specialized_gates(self) -> int:
        """Gates executed via global specialization rather than clusters
        (the plan compiler may still absorb them into a neighbouring
        sweep)."""
        return sum(
            isinstance(op, GateOp) for stage in self.stages for op in stage.ops
        )

    @property
    def initial_global_qubits(self) -> frozenset[int]:
        """Global set the state should be created with (free placement)."""
        if not self.stages:
            return frozenset()
        return self.stages[0].global_qubits

    def cluster_sizes(self) -> list[int]:
        """k of every cluster, in execution order."""
        return [
            op.num_qubits
            for stage in self.stages
            for op in stage.ops
            if isinstance(op, ClusterOp)
        ]

    def gates_per_cluster(self) -> float:
        """Average original gates merged per cluster."""
        clusters = [
            op for stage in self.stages for op in stage.ops
            if isinstance(op, ClusterOp)
        ]
        if not clusters:
            return 0.0
        return sum(c.num_gates for c in clusters) / len(clusters)

    def operations(self) -> Iterator:
        """The executable op stream: stage ops with SwapOps in between."""
        for i, stage in enumerate(self.stages):
            if i > 0:
                yield SwapOp(stage.global_qubits)
            yield from stage.ops

    def scheduled_gates(self) -> list[Gate]:
        """All original gates in scheduled execution order."""
        out: list[Gate] = []
        for stage in self.stages:
            for op in stage.ops:
                out.extend(_op_gates(op))
        return out

    def validate(self) -> None:
        """Raise :class:`AssertionError` on the first error
        :func:`~repro.staticcheck.verify_schedule` finds (coverage, gate
        order, ``kmax``, locality, specialization, stage shape; fused
        matrices are not built)."""
        from repro.staticcheck.schedule_checker import verify_schedule

        errors = verify_schedule(self, check_unitarity=False).errors
        if errors:
            raise AssertionError(errors[0].message)

    def summary(self) -> dict:
        """Human-readable summary counters."""
        return {
            "num_qubits": self.num_qubits,
            "local_qubits": self.local_qubits,
            "num_gates": len(self.circuit),
            "num_stages": len(self.stages),
            "num_swaps": self.num_swaps,
            "num_clusters": self.num_clusters,
            "num_specialized_gates": self.num_specialized_gates,
            "gates_per_cluster": round(self.gates_per_cluster(), 2),
            "kmax": self.kmax,
        }

