"""Frozen compile options: the single memoization key for plans.

The one compile option of the pass pipeline lives in :class:`PlanConfig`,
and the *config itself* is the cache key — for
:func:`repro.plan.plan_for`, for the service
:class:`~repro.service.cache.PlanCache` and for the ``--plan-stats``
payload.  Two callers asking for different fusion widths can therefore
never silently share one compiled plan.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PlanConfig", "DEFAULT_FUSION_KMAX"]

#: Default refusion width.  On the 18-qubit depth-16 supremacy schedule
#: (l = 14, kmax 4) widths 0/4/6/8 ran within 4 % of each other (29.7 -
#: 30.9 ms per run on the reference host); 8 is kept because it compiles
#: the fewest plan ops.
DEFAULT_FUSION_KMAX = 8


@dataclass(frozen=True)
class PlanConfig:
    """The compile option of the pass pipeline, normalized and frozen.

    * ``fusion_kmax`` — widest qubit union general cluster refusion may
      build a dense fused unitary for (``None`` →
      :data:`DEFAULT_FUSION_KMAX`; 0 disables refusion).  Distinct from
      the scheduler's ``kmax``: the scheduler bounds what one *cluster*
      may contain, refusion bounds what adjacent *plan ops* may merge
      into.

    Instances are hashable and ``None`` resolves at construction, so
    equal configurations always compare — and key caches — equal.
    """

    fusion_kmax: int | None = None

    def __post_init__(self) -> None:
        kmax = self.fusion_kmax
        object.__setattr__(
            self,
            "fusion_kmax",
            DEFAULT_FUSION_KMAX if kmax is None else int(kmax),
        )
        if self.fusion_kmax < 0:
            raise ValueError(
                f"fusion_kmax must be >= 0, got {self.fusion_kmax}"
            )
