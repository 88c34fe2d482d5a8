"""Communication accounting for the simulated MPI layer.

The paper's multi-node analysis counts two quantities:

* **communication steps** — the number of (group-local) all-to-alls; the
  top panels of Fig. 5 plot exactly this ("#Swaps"), and Sec. 3.6.1's
  headline result is reducing it to 2 for the 45-qubit circuit;
* **bytes on the network** — each q-qubit global-to-local swap moves
  ``(2**q - 1)/2**q`` of every rank's ``2**l * 16`` bytes.

:class:`CommStats` tracks both, plus rank renumberings (which are free on
real MPI — Sec. 3.5 — but still interesting to count).  Its event log is
a list of typed :class:`CommEvent` records; a stats object bound to a
:class:`~repro.telemetry.metrics.MetricsRegistry` via
:meth:`CommStats.bind_metrics` additionally streams every count into the
run's ``comm.*`` counters as it happens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CommEvent", "CommStats"]


@dataclass(frozen=True)
class CommEvent:
    """One communication-layer event (typed successor of the raw dicts).

    ``num_groups``/``group_size`` are populated for all-to-all events
    only.
    """

    kind: str  # "alltoall" | "renumber"
    bytes: int = 0
    num_groups: int | None = None
    group_size: int | None = None

    def to_dict(self) -> dict:
        """Plain-dict form (the old event representation)."""
        out = {"kind": self.kind, "bytes": self.bytes}
        if self.num_groups is not None:
            out["num_groups"] = self.num_groups
        if self.group_size is not None:
            out["group_size"] = self.group_size
        return out


@dataclass
class CommStats:
    """Accumulated communication counters for one distributed run."""

    alltoall_steps: int = 0
    group_alltoall_calls: int = 0
    bytes_on_network: int = 0
    rank_renumberings: int = 0
    local_swap_kernels: int = 0
    events: list[CommEvent] = field(default_factory=list)

    def bind_metrics(self, registry) -> "CommStats":
        """Stream future counts into *registry*'s ``comm.*`` counters.

        Pass ``None`` to unbind.  Returns ``self`` for chaining; the
        binding survives :meth:`reset` (the counters are cumulative per
        registry, exactly like ``bytes_on_network`` is per stats object).
        """
        self._metrics = registry
        return self

    @property
    def metrics(self):
        """The bound registry, or ``None``."""
        return getattr(self, "_metrics", None)

    def record_alltoall(
        self, *, num_groups: int, group_size: int, shard_bytes: int
    ) -> None:
        """Record one q-qubit global-to-local swap.

        A swap over ``group_size = 2**q`` ranks per group is *one*
        communication step (all group-local all-to-alls proceed in
        parallel on a real machine), with every rank shipping all but its
        diagonal block: ``shard_bytes * (group_size - 1) / group_size``.
        """
        if group_size < 1 or num_groups < 1:
            raise ValueError("group_size and num_groups must be >= 1")
        moved_per_rank = shard_bytes * (group_size - 1) // group_size
        total = moved_per_rank * group_size * num_groups
        self.alltoall_steps += 1
        self.group_alltoall_calls += num_groups
        self.bytes_on_network += total
        self.events.append(
            CommEvent(
                kind="alltoall",
                bytes=total,
                num_groups=num_groups,
                group_size=group_size,
            )
        )
        registry = self.metrics
        if registry is not None:
            registry.counter("comm.alltoall_steps").inc()
            registry.counter("comm.group_alltoall_calls").inc(num_groups)
            registry.counter("comm.bytes_on_network").inc(total)

    def record_rank_renumbering(self) -> None:
        """Record a free rank-relabeling (global monomial gate, Sec. 3.5)."""
        self.rank_renumberings += 1
        self.events.append(CommEvent(kind="renumber", bytes=0))
        registry = self.metrics
        if registry is not None:
            registry.counter("comm.rank_renumberings").inc()

    def record_local_swap(self) -> None:
        """Record a local swap kernel used to stage a global-to-local swap."""
        self.local_swap_kernels += 1
        registry = self.metrics
        if registry is not None:
            registry.counter("comm.local_swap_kernels").inc()
