"""The telemetry bundle threaded through execution components.

:class:`Telemetry` pairs one :class:`~repro.telemetry.spans.Tracer` with
one :class:`~repro.telemetry.metrics.MetricsRegistry`.  Components accept
``telemetry=None`` and fall back to :data:`NULL_TELEMETRY` (both halves
disabled), so instrumentation is free unless a caller opts in with
``Telemetry.enabled()``.

This module deliberately imports nothing beyond the sibling span/metric
modules, so low-level layers (``repro.distributed.state``,
``repro.scheduling.scheduler``) can import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.telemetry.metrics import NULL_METRICS, MetricsRegistry
from repro.telemetry.spans import NULL_TRACER, Tracer

__all__ = ["Telemetry", "NULL_TELEMETRY"]


@dataclass
class Telemetry:
    """One run's tracer + metrics registry."""

    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    metrics: MetricsRegistry = field(default_factory=lambda: NULL_METRICS)

    @classmethod
    def enabled(cls) -> "Telemetry":
        """A fresh, fully armed bundle (spans + metrics)."""
        return cls(
            tracer=Tracer(enabled=True),
            metrics=MetricsRegistry(enabled=True),
        )

    @classmethod
    def spans_only(cls) -> "Telemetry":
        """Tracing without metrics (the middle overhead tier)."""
        return cls(tracer=Tracer(enabled=True))

    @classmethod
    def disabled(cls) -> "Telemetry":
        """The shared all-off bundle."""
        return NULL_TELEMETRY

    @property
    def active(self) -> bool:
        """True when either half is collecting."""
        return self.tracer.enabled or self.metrics.enabled


#: Shared all-disabled bundle; the default for every component.
NULL_TELEMETRY = Telemetry(tracer=NULL_TRACER, metrics=NULL_METRICS)
