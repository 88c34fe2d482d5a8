"""Cost accounting for kernel invocations.

Tracks FLOPs, bytes and call counts so simulators can report achieved
GFLOPS and operational intensity the same way the paper's Sec. 4 does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.flops import GateCost

__all__ = ["kernel_cost", "KernelCostModel"]


def kernel_cost(num_qubits: int, gate_qubits: int, *, diagonal: bool = False) -> GateCost:
    """Cost of one kernel call on a ``2**num_qubits`` state vector."""
    return GateCost.for_gate(num_qubits, gate_qubits, diagonal=diagonal)


@dataclass
class KernelCostModel:
    """Accumulates the cost of a sequence of kernel calls.

    Attach one to a simulator to obtain, after a run, total FLOPs, total
    memory traffic, per-kernel-size call counts, and the achieved GFLOPS
    for a measured wall time.
    """

    total_flops: int = 0
    total_bytes: int = 0
    calls_by_k: dict[int, int] = field(default_factory=dict)
    diagonal_calls: int = 0

    def record(self, num_qubits: int, gate_qubits: int, *, diagonal: bool = False) -> None:
        """Record one kernel call."""
        cost = kernel_cost(num_qubits, gate_qubits, diagonal=diagonal)
        self.total_flops += cost.flops
        self.total_bytes += cost.bytes
        self.calls_by_k[gate_qubits] = self.calls_by_k.get(gate_qubits, 0) + 1
        if diagonal:
            self.diagonal_calls += 1

    @property
    def total_calls(self) -> int:
        """Number of kernel invocations recorded."""
        return sum(self.calls_by_k.values())

    @property
    def intensity(self) -> float:
        """Aggregate operational intensity (FLOP/byte) of the run."""
        return self.total_flops / self.total_bytes if self.total_bytes else 0.0

    def gflops(self, seconds: float) -> float:
        """Achieved GFLOPS for a measured wall-clock duration."""
        if seconds <= 0:
            raise ValueError("seconds must be positive")
        return self.total_flops / seconds / 1e9
