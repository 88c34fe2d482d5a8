"""Shannon entropy of output distributions."""

from __future__ import annotations

import numpy as np

from repro.distributed.state import DistributedState

__all__ = ["shannon_entropy", "distributed_entropy"]


def shannon_entropy(probs: np.ndarray, *, base: float | None = None) -> float:
    """Shannon entropy of a probability vector.

    Natural log by default (the Porter-Thomas comparisons use nats);
    pass ``base=2`` for bits.  Zero entries contribute zero.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(probs < -1e-12):
        raise ValueError("probabilities must be non-negative")
    total = probs.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"probabilities must sum to 1, got {total}")
    positive = probs[probs > 0]
    h = float(-(positive * np.log(positive)).sum())
    if base is not None:
        h /= np.log(base)
    return h


def distributed_entropy(
    state: DistributedState, *, base: float | None = None
) -> float:
    """Entropy of a distributed state's output distribution.

    Each virtual node reduces its own shard; a final cross-rank sum
    completes the reduction — the same final all-reduce the Edison run
    spends its last 8.1 seconds on (Sec. 4.2.2).  Never materialises the
    full probability vector.
    """
    partial = 0.0
    norm = 0.0
    for r in range(state.num_ranks):
        shard = state.storage.read(r)
        p = np.abs(np.asarray(shard)) ** 2
        norm += float(p.sum())
        positive = p[p > 0]
        partial += float(-(positive * np.log(positive)).sum())
    if not np.isclose(norm, 1.0, atol=1e-6):
        raise ValueError(f"state is not normalised (sum p = {norm})")
    if base is not None:
        partial /= np.log(base)
    return partial
