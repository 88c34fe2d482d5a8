"""k-qubit gate application kernels (Secs. 3.1-3.2 of the paper).

Production runs two kernels, behind one dispatch (:func:`apply_gate` on
a single vector, ``DistributedState._kernel`` on shards):

* :class:`DenseSweep` / :func:`apply_gate_indexed` — the paper's kernel:
  split every state index into the ``c`` substring and the ``x``
  substring and multiply the ``2**k`` amplitudes of each ``c`` by the
  gate, in place, at any width.  The addresses come from the target bit
  positions (strided views, one periodic in-window index), never from
  stored tables; blocking over ``c`` (register/MCDRAM blocking
  stand-in), :func:`chunk_for` substrings per block unless
  ``chunk_size`` says otherwise.  One descriptor serves every shard of
  an op.  Its real-GEMM operand for small gates is the paper's
  ``(mR, mR)`` / ``(-mI, mI)`` FMA trick.  A gate exactly block-diagonal
  in some bits (:class:`~repro.kernels.blocks.BlockGate`) runs as one
  small gate per value of those bits.
* :func:`apply_diagonal_gate` — the phase multiply for diagonal gates
  (CZ, T, Z, S): one complex multiply per amplitude, no gather.

:func:`~repro.kernels.apply.split_sweep` /
:func:`~repro.kernels.apply.run_split` are the sweep pool (the paper's
OpenMP layer, Sec. 3.3): disjoint pieces of one large sweep on every
CPU, bit-identical to the serial sweep, BLAS pinned to one thread.

:func:`apply_gate_reference` — a ``tensordot`` over the n-axis state
tensor, the two-vector baseline of Sec. 3.1 — runs in no production
path: it is the oracle the tests run in extended precision.

All in-place kernels mutate ``state`` and also return it, so call sites can
chain or ignore the return value.
"""

from repro.kernels.apply import (
    DEFAULT_CHUNK,
    DenseSweep,
    apply_diagonal_factor,
    apply_diagonal_gate,
    apply_gate,
    apply_gate_indexed,
    apply_gate_reference,
    chunk_for,
)
from repro.kernels.cost import KernelCostModel, kernel_cost
from repro.kernels.tables import GATHER_CACHE, GatherTableCache

__all__ = [
    "DEFAULT_CHUNK",
    "DenseSweep",
    "GATHER_CACHE",
    "GatherTableCache",
    "KernelCostModel",
    "apply_diagonal_factor",
    "apply_diagonal_gate",
    "apply_gate",
    "apply_gate_indexed",
    "apply_gate_reference",
    "chunk_for",
    "kernel_cost",
]
