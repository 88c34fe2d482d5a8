"""Out-of-core (disk-resident) state vectors.

The paper's outlook (Sec. 5): because scheduling reduces a full supremacy
circuit to ~2 all-to-alls, the state vector can live on solid-state drives
rather than DRAM.  :class:`OutOfCoreStateVector` realises that mode: it is
a thin facade over :class:`repro.distributed.DistributedState` backed by
:class:`repro.distributed.DiskShards`, so gate dispatch, specialization
and swaps behave identically to the in-memory distributed state while
block exchanges stream through bounded memory.
"""

from __future__ import annotations

from pathlib import Path

from repro.distributed.state import DistributedState
from repro.distributed.storage import DiskShards
from repro.statevector.state import StateVector

__all__ = ["OutOfCoreStateVector"]


class OutOfCoreStateVector(DistributedState):
    """A state vector sharded across files on disk.

    Parameters
    ----------
    num_qubits:
        Total qubits; the files jointly hold ``2**num_qubits`` amplitudes.
    local_qubits:
        Amplitudes per file (``2**local_qubits``); also the largest gate
        footprint applicable without an all-to-all pass over the files.
    directory:
        Where the shard files live.  Reusing a directory with matching
        sizes reuses its contents only if ``init=None``.
    init:
        ``"zero"``, ``"plus"``, or ``None`` to keep existing file contents
        (resume after a previous session).
    initial_global_qubits:
        Optional starting global qubit set (a schedule's
        ``initial_global_qubits``), forwarded to
        :class:`~repro.distributed.DistributedState` so a schedule whose
        first stage adopts a non-identity layout runs on disk unchanged.
    """

    def __init__(
        self,
        num_qubits: int,
        local_qubits: int,
        directory: str | Path,
        *,
        init: str | None = "zero",
        initial_global_qubits=None,
    ) -> None:
        storage = DiskShards(
            1 << (num_qubits - local_qubits), 1 << local_qubits, directory
        )
        if init is None and initial_global_qubits is not None:
            raise ValueError(
                "initial_global_qubits requires init='zero'/'plus' — "
                "with init=None the on-disk layout is whatever the "
                "previous session left"
            )
        super().__init__(
            num_qubits,
            local_qubits,
            storage=storage,
            init=init,
            initial_global_qubits=initial_global_qubits,
        )
        self.directory = Path(directory)

    def close(self) -> None:
        """Run whatever is still pending, make it durable and release the
        shard files (idempotent).  Gates applied since the last read live
        in memory until then — hence the context manager."""
        self.storage.close()

    def __enter__(self) -> "OutOfCoreStateVector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @classmethod
    def from_statevector_on_disk(
        cls, state: StateVector, local_qubits: int, directory: str | Path
    ) -> "OutOfCoreStateVector":
        """Spill an in-memory state vector to disk shards."""
        out = cls(state.num_qubits, local_qubits, directory)
        out._scatter(state)
        return out
