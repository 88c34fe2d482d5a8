"""Diagnostics model of the static checker.

Every verifier in :mod:`repro.staticcheck` reports through the same
vocabulary: a :class:`Finding` pins one violated invariant to a location
(stage / op index / rank) with a severity, a stable category slug and a
fix hint; a :class:`CheckReport` collects findings, ranks them and
formats them for humans.  ``repro check`` prints reports; ``simulate
--strict`` refuses to run a schedule whose report has errors.

Categories are closed vocabulary (see :data:`CATEGORIES`) so tests can
assert that a given corruption is caught *as the right kind of bug*, not
merely caught.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "CATEGORIES",
    "CheckReport",
    "Finding",
    "Severity",
    "StaticCheckError",
]


class Severity:
    """Severity levels, most severe first (used as sort keys)."""

    ERROR = "error"  # the schedule/run will compute wrong answers
    WARNING = "warning"  # legal but wasteful or suspicious
    INFO = "info"  # observations (counters, predictions)

    ORDER = {ERROR: 0, WARNING: 1, INFO: 2}


#: The closed category vocabulary.  Mutation tests assert categories, so
#: renaming one is an API break.
CATEGORIES = (
    "structure",  # stage/global-set shape violations
    "cluster-width",  # cluster exceeds kmax
    "cluster-locality",  # cluster touches a stage-global qubit
    "swap",  # malformed / impossible / redundant swap point
    "specialization",  # specialized gate not diagonal/monomial-separable
    "coverage",  # circuit gates dropped or duplicated
    "gate-order",  # per-qubit gate order violated
    "unitarity",  # fused cluster matrix not unitary
    "byte-conservation",  # CommStats disagree with the schedule's prediction
    "nan",  # NaN/Inf amplitudes (sanitizer)
    "norm",  # norm drift beyond tolerance (sanitizer)
    "checksum",  # shard checksum divergence (sanitizer)
)


@dataclass(frozen=True)
class Finding:
    """One violated invariant, pinned to where it was observed."""

    severity: str
    category: str
    message: str
    hint: str | None = None
    stage: int | None = None
    op_index: int | None = None
    rank: int | None = None

    def __post_init__(self) -> None:
        if self.severity not in Severity.ORDER:
            raise ValueError(f"unknown severity {self.severity!r}")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")

    def location(self) -> str:
        """Compact location string, e.g. ``stage 2 / op 17 / rank 3``."""
        parts = []
        if self.stage is not None:
            parts.append(f"stage {self.stage}")
        if self.op_index is not None:
            parts.append(f"op {self.op_index}")
        if self.rank is not None:
            parts.append(f"rank {self.rank}")
        return " / ".join(parts) if parts else "program"

    def format(self) -> str:
        """One- or two-line human-readable rendering."""
        line = (
            f"[{self.severity.upper():>7}] {self.category}: "
            f"{self.message} ({self.location()})"
        )
        if self.hint:
            line += f"\n          hint: {self.hint}"
        return line


class StaticCheckError(RuntimeError):
    """Raised by strict mode when a report contains errors."""

    def __init__(self, report: "CheckReport") -> None:
        errors = report.errors
        super().__init__(
            f"{len(errors)} static-check error(s); first: "
            f"{errors[0].format() if errors else '<none>'}"
        )
        self.report = report


@dataclass
class CheckReport:
    """A collection of findings from one or more verifier passes."""

    findings: list[Finding] = field(default_factory=list)
    checks_run: list[str] = field(default_factory=list)

    def add(
        self,
        severity: str,
        category: str,
        message: str,
        *,
        hint: str | None = None,
        stage: int | None = None,
        op_index: int | None = None,
        rank: int | None = None,
    ) -> Finding:
        """Append one finding and return it."""
        finding = Finding(
            severity=severity,
            category=category,
            message=message,
            hint=hint,
            stage=stage,
            op_index=op_index,
            rank=rank,
        )
        self.findings.append(finding)
        return finding

    def extend(self, other: "CheckReport") -> "CheckReport":
        """Fold another report's findings and check names into this one."""
        self.findings.extend(other.findings)
        self.checks_run.extend(other.checks_run)
        return self

    # ------------------------------------------------------------------
    @property
    def errors(self) -> list[Finding]:
        """Findings with severity ``error``."""
        return [f for f in self.findings if f.severity == Severity.ERROR]

    @property
    def warnings(self) -> list[Finding]:
        """Findings with severity ``warning``."""
        return [f for f in self.findings if f.severity == Severity.WARNING]

    @property
    def passed(self) -> bool:
        """True when no finding is an error."""
        return not self.errors

    @property
    def clean(self) -> bool:
        """True when there are no findings at all (info included)."""
        return not self.findings

    def categories(self) -> set[str]:
        """The distinct categories present in the findings."""
        return {f.category for f in self.findings}

    def sorted_findings(self) -> list[Finding]:
        """Findings ranked most-severe first (stable within severity)."""
        return sorted(
            self.findings, key=lambda f: Severity.ORDER[f.severity]
        )

    def raise_if_failed(self) -> None:
        """Raise :class:`StaticCheckError` when the report has errors."""
        if not self.passed:
            raise StaticCheckError(self)

    def format(self) -> str:
        """Multi-line rendering: header, ranked findings, verdict."""
        lines = [
            f"static check: {len(self.checks_run)} pass(es) "
            f"({', '.join(self.checks_run) or 'none'})"
        ]
        for finding in self.sorted_findings():
            lines.append(finding.format())
        n_err, n_warn = len(self.errors), len(self.warnings)
        if self.clean:
            lines.append("verdict: CLEAN (no findings)")
        elif self.passed:
            lines.append(f"verdict: PASS with {n_warn} warning(s)")
        else:
            lines.append(
                f"verdict: FAIL — {n_err} error(s), {n_warn} warning(s)"
            )
        return "\n".join(lines)
