"""Checkpoint / restart for distributed schedule execution.

The paper's record run held 0.5 PB across 8,192 nodes for ~10 minutes;
production runs at that scale checkpoint.  A checkpoint here captures
everything needed to resume a schedule mid-program:

* the shard data (written shard-by-shard, never materialising the full
  state),
* the layout (a :class:`~repro.distributed.layout.QubitLayout`),
* the index of the next operation in the schedule's op stream,
* the accumulated communication and kernel statistics.

Periodic checkpointing during execution is a
:class:`~repro.runtime.CheckpointLayer` on the
:class:`~repro.runtime.ExecutionEngine`; the same layer with
``resume=True`` continues after a (simulated or real) failure.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.distributed.comm import CommStats
from repro.distributed.layout import QubitLayout
from repro.distributed.state import DistributedState
from repro.kernels.cost import KernelCostModel

__all__ = ["CheckpointManager"]


class CheckpointManager:
    """Writes and restores distributed-state checkpoints in a directory."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    @property
    def _meta_path(self) -> Path:
        return self.directory / "checkpoint.json"

    def has_checkpoint(self) -> bool:
        """True when a complete checkpoint exists here."""
        return self._meta_path.exists()

    def clear(self) -> None:
        """Delete any checkpoint in this directory (meta file first)."""
        self._meta_path.unlink(missing_ok=True)
        for path in self.directory.glob("ckpt_shard_*.npy"):
            path.unlink()

    def save(self, state: DistributedState, next_op_index: int) -> int:
        """Write a checkpoint (atomically: meta file last); returns bytes."""
        written = 0
        for r in range(state.num_ranks):
            shard = np.asarray(state.storage.read(r))
            path = self.directory / f"ckpt_shard_{r:06d}.npy"
            np.save(path, shard)
            written += path.stat().st_size
        meta = {
            "num_qubits": state.num_qubits,
            "local_qubits": state.local_qubits,
            "bit_of_qubit": list(state.layout.bit_of_qubit),
            "next_op_index": int(next_op_index),
            "stats": {
                "alltoall_steps": state.stats.alltoall_steps,
                "group_alltoall_calls": state.stats.group_alltoall_calls,
                "bytes_on_network": state.stats.bytes_on_network,
                "rank_renumberings": state.stats.rank_renumberings,
                "local_swap_kernels": state.stats.local_swap_kernels,
            },
            "kernel_cost": {
                "total_flops": state.kernel_cost.total_flops,
                "total_bytes": state.kernel_cost.total_bytes,
                "diagonal_calls": state.kernel_cost.diagonal_calls,
                "calls_by_k": {
                    str(k): v for k, v in state.kernel_cost.calls_by_k.items()
                },
            },
        }
        self._meta_path.write_text(json.dumps(meta))
        return written + self._meta_path.stat().st_size

    def load(self, *, state_factory=None) -> tuple[DistributedState, int]:
        """Restore ``(state, next_op_index)`` from the checkpoint.

        ``state_factory`` builds the vessel the shards are loaded into;
        this is how a run whose state lives on a custom
        :class:`~repro.distributed.ShardStorage` backend (e.g.
        ``DiskShards``) gets its backend back after a restart instead of
        silently reverting to in-memory shards.  The vessel's dimensions
        must match the checkpoint's.
        """
        if not self.has_checkpoint():
            raise FileNotFoundError(f"no checkpoint in {self.directory}")
        meta = json.loads(self._meta_path.read_text())
        if state_factory is not None:
            state = state_factory()
            if (
                state.num_qubits != meta["num_qubits"]
                or state.local_qubits != meta["local_qubits"]
            ):
                raise ValueError(
                    f"state_factory built a ({state.num_qubits}, "
                    f"{state.local_qubits})-qubit state but the checkpoint "
                    f"holds ({meta['num_qubits']}, {meta['local_qubits']})"
                )
        else:
            # No init: every shard is set below.
            state = DistributedState(
                meta["num_qubits"], meta["local_qubits"], init=None
            )
        for r in range(state.num_ranks):
            shard = np.load(self.directory / f"ckpt_shard_{r:06d}.npy")
            state.storage.set(r, shard)
        state.layout = QubitLayout(
            state.local_qubits, tuple(meta["bit_of_qubit"])
        )
        stats = CommStats()
        for key, value in meta["stats"].items():
            setattr(stats, key, value)
        state.stats = stats
        cost = KernelCostModel()
        cost.total_flops = meta["kernel_cost"]["total_flops"]
        cost.total_bytes = meta["kernel_cost"]["total_bytes"]
        cost.diagonal_calls = meta["kernel_cost"]["diagonal_calls"]
        cost.calls_by_k = {
            int(k): v for k, v in meta["kernel_cost"]["calls_by_k"].items()
        }
        state.kernel_cost = cost
        return state, int(meta["next_op_index"])
