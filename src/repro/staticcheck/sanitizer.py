"""Runtime shard sanitizers (``simulate --sanitize``).

Static checks prove the *plan* is sound; the sanitizer watches the
*execution*: an ASan-style checker that
:class:`repro.runtime.SanitizerLayer` drives around schedule execution
and that, at every op boundary,

* scans every shard for NaN/Inf amplitudes (a kernel bug or corrupted
  matrix poisons the state long before the final norm reveals it),
* tracks 2-norm conservation (every schedule op is unitary, so the norm
  must stay at its initial value to tolerance),
* records per-shard CRC32 checksums and re-verifies them before the next
  op (amplitudes only legally change through kernels and exchanges, so a
  mismatch between ops means corruption at rest — the same detection the
  resilience supervisor performs, here pinned to the exact op index).

Every violation becomes a :class:`~repro.staticcheck.diagnostics.Finding`
with ``op_index`` set to the operation during (nan/norm) or immediately
before (checksum) which the damage was observed.  The sanitizer is
read-only: it never mutates the state and adds no communication.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.distributed.state import DistributedState
from repro.staticcheck.diagnostics import CheckReport, Finding, Severity

__all__ = [
    "SanitizerConfig",
    "SanitizerReport",
    "ShardSanitizer",
]

_E = Severity.ERROR


@dataclass(frozen=True)
class SanitizerConfig:
    """Which runtime checks to run and how tight.

    ``norm_tol`` is absolute drift of the 2-norm from its value at
    initialisation; float64 kernels keep it below 1e-10 for thousands of
    ops, so the default catches real damage without false alarms.
    """

    check_nan: bool = True
    check_norm: bool = True
    check_checksums: bool = True
    norm_tol: float = 1e-6


@dataclass
class SanitizerReport:
    """Findings plus per-op traces from one sanitized execution."""

    findings: list[Finding] = field(default_factory=list)
    ops_checked: int = 0
    norm_trace: list[float] = field(default_factory=list)
    overhead_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        """True when no check tripped."""
        return not self.findings

    def as_check_report(self) -> CheckReport:
        """View as a :class:`CheckReport` for uniform formatting."""
        return CheckReport(
            findings=list(self.findings), checks_run=["sanitizer"]
        )

    def format(self) -> str:
        """Human-readable summary."""
        lines = [
            f"sanitizer: {self.ops_checked} op(s) checked, "
            f"{len(self.findings)} finding(s), "
            f"+{self.overhead_seconds:.3f}s overhead"
        ]
        for finding in self.findings:
            lines.append(finding.format())
        return "\n".join(lines)


class ShardSanitizer:
    """Stateful runtime checker driven at op boundaries.

    Call :meth:`before_op` right before executing op *i* and
    :meth:`after_op` right after it; :class:`repro.runtime.SanitizerLayer`
    does this for you on the execution engine.  The sanitizer keeps the last
    known-good checksums and the initial norm, so it must observe the
    state once (:meth:`attach`) before the first op.
    """

    def __init__(
        self, config: SanitizerConfig | None = None, *, metrics=None
    ) -> None:
        self.config = config or SanitizerConfig()
        self.report = SanitizerReport()
        self.metrics = metrics
        self._checksums: list[int] | None = None
        self._initial_norm: float | None = None
        self._nonfinite_ranks: set[int] = set()
        self._norm_nonfinite = False

    def use_metrics(self, registry) -> None:
        """Stream future findings into *registry*'s ``sanitizer.findings``.

        Each finding increments the counter labelled with its category
        (``sanitizer.findings{category=nan}`` etc.); ``None`` detaches.
        """
        self.metrics = registry

    def _add_finding(self, finding: Finding) -> None:
        self.report.findings.append(finding)
        if self.metrics is not None:
            self.metrics.counter(
                "sanitizer.findings", category=finding.category
            ).inc()

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget state between (re)runs; keeps accumulated findings."""
        self._checksums = None
        self._initial_norm = None
        self._nonfinite_ranks = set()
        self._norm_nonfinite = False

    def attach(self, state: DistributedState) -> None:
        """Record the pristine state's norm and checksums."""
        start = time.perf_counter()
        if self.config.check_norm:
            self._initial_norm = state.norm()
        if self.config.check_checksums:
            self._checksums = state.shard_checksums()
        self.report.overhead_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    def before_op(self, state: DistributedState, op_index: int) -> None:
        """Verify nothing changed since the previous op finished.

        A checksum mismatch here means out-of-band corruption between op
        ``op_index - 1`` and op ``op_index``; the finding is pinned to
        ``op_index`` (the op that would have consumed the bad data).
        """
        if not self.config.check_checksums:
            return
        start = time.perf_counter()
        if self._checksums is None:
            self._checksums = state.shard_checksums()
        else:
            current = state.shard_checksums()
            bad = [
                r
                for r, crc in enumerate(current)
                if crc != self._checksums[r]
            ]
            for rank in bad:
                self._add_finding(
                    Finding(
                        severity=_E,
                        category="checksum",
                        message=(
                            f"shard checksum diverged at rest before op "
                            f"{op_index}"
                        ),
                        hint="amplitudes changed outside any kernel or "
                        "exchange: memory corruption, torn write, or an "
                        "unaccounted mutation",
                        op_index=op_index,
                        rank=rank,
                    )
                )
            if bad:
                # Accept the new reality so one corruption does not
                # re-report on every subsequent op.
                self._checksums = current
        self.report.overhead_seconds += time.perf_counter() - start

    def after_op(self, state: DistributedState, op_index: int) -> None:
        """Scan the post-op state; pin any damage to *op_index*."""
        start = time.perf_counter()
        cfg = self.config
        if cfg.check_nan:
            for rank in range(state.num_ranks):
                shard = state.storage.read(rank)
                if bool(np.isfinite(shard).all()):
                    self._nonfinite_ranks.discard(rank)
                    continue
                # Report each rank once when it first turns non-finite;
                # NaN persists, so re-scanning would cascade one injected
                # value into a finding per subsequent op.
                if rank in self._nonfinite_ranks:
                    continue
                self._nonfinite_ranks.add(rank)
                self._add_finding(
                    Finding(
                        severity=_E,
                        category="nan",
                        message=(
                            f"non-finite amplitudes after op {op_index}"
                        ),
                        hint="a kernel or gate matrix produced "
                        "NaN/Inf; check the op's fused matrix and "
                        "input state",
                        op_index=op_index,
                        rank=rank,
                    )
                )
        if cfg.check_norm and self._initial_norm is not None:
            norm = state.norm()
            self.report.norm_trace.append(norm)
            drift = abs(norm - self._initial_norm)
            if np.isfinite(norm):
                self._norm_nonfinite = False
            if (not np.isfinite(norm) or drift > cfg.norm_tol) and (
                not self._norm_nonfinite
            ):
                self._add_finding(
                    Finding(
                        severity=_E,
                        category="norm",
                        message=(
                            f"norm drifted to {norm:.12g} after op "
                            f"{op_index} (|drift| = {drift:.3e} > "
                            f"{cfg.norm_tol:.0e})"
                        ),
                        hint="schedule ops are unitary; norm loss means "
                        "a non-unitary matrix or lost amplitudes",
                        op_index=op_index,
                    )
                )
                # Rebase on the new reality so an already-reported drift
                # does not re-report after every subsequent op; a
                # non-finite norm cannot rebase, so latch instead.
                if np.isfinite(norm):
                    self._initial_norm = norm
                else:
                    self._norm_nonfinite = True
        if cfg.check_checksums:
            self._checksums = state.shard_checksums()
        self.report.ops_checked += 1
        self.report.overhead_seconds += time.perf_counter() - start

    # ------------------------------------------------------------------
    def check_state(self, state: DistributedState, op_index: int) -> list[Finding]:
        """One-shot check (supervisor hook): before+after in one call.

        Returns the findings this call produced (the report keeps them
        too).  Used by the resilience supervisor at its op boundaries.
        """
        already = len(self.report.findings)
        self.before_op(state, op_index)
        self.after_op(state, op_index)
        return self.report.findings[already:]
