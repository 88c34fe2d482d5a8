"""Multi-node simulation layer (Secs. 3.4-3.5 of the paper).

The paper runs on MPI across up to 8,192 Cori II nodes.  This environment
has no MPI, so the layer is built over a *simulated* communicator:

* :mod:`repro.distributed.layout` — :class:`QubitLayout`: the one frozen
  value object saying which physical bit holds which logical qubit, with
  the Sec. 3.4 swap recipe as a pure transition.
* :mod:`repro.distributed.storage` — shard storage backends.  A "node" (MPI
  rank) owns one shard of ``2**l`` amplitudes; shards live in memory
  (:class:`InMemoryShards`), in one shared block worked on by several
  processes (:class:`SharedMemoryShards`), or as disk files
  (:class:`DiskShards`, the SSD-backed execution mode the paper's outlook
  motivates).
* :mod:`repro.distributed.comm` — :class:`CommStats`: exact accounting of
  communication steps and bytes, the quantities Table 2 and Fig. 5 report.
* :mod:`repro.distributed.state` — :class:`DistributedState`: the
  global/local qubit split, local kernels, the global-to-local swap as
  (group-local) all-to-alls (Fig. 3), and global-gate specialization for
  diagonal and monomial gates (Sec. 3.5).
* :mod:`repro.distributed.simulator` — :class:`DistributedSimulator`: runs
  circuits (auto-swapping) or scheduler output programs.

Everything operates on real amplitudes, so distributed results are
verified bit-for-bit against the single-node simulator.
"""

from repro.distributed.comm import CommStats
from repro.distributed.layout import QubitLayout
from repro.distributed.simulator import DistributedSimulator
from repro.distributed.state import DistributedState, NeedsSwapError
from repro.distributed.storage import (
    DiskShards,
    InMemoryShards,
    ShardIOError,
    ShardStorage,
    SharedMemoryShards,
)

__all__ = [
    "CommStats",
    "DiskShards",
    "DistributedSimulator",
    "DistributedState",
    "InMemoryShards",
    "NeedsSwapError",
    "QubitLayout",
    "ShardIOError",
    "ShardStorage",
    "SharedMemoryShards",
]
