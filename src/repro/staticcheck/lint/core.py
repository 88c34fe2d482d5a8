"""The lint framework core: findings, rules, registry, engine.

Everything the ``repro lint`` CLI and the rule modules share lives here:

* :class:`LintFinding` — one finding, pinned to ``path:line`` with a
  rule name, a severity (:data:`SEVERITIES`: error / warning /
  advisory), a message and an optional fix hint.
* :class:`ModuleContext` — one parsed file handed to rules: source,
  split lines, AST, normalized path and a best-effort dotted module
  name (used by the lock-order rule to build stable lock identities).
* :class:`LintRule` — the rule protocol.  Per-module rules implement
  :meth:`~LintRule.check_module`; whole-program rules (``program_wide =
  True``) implement :meth:`~LintRule.check_program` over every parsed
  module at once (the lock-order rule needs the cross-module
  acquisition graph).
* :func:`register` / :func:`default_rules` — the registry.  Rule
  modules self-register at import; :func:`default_rules` imports
  :mod:`repro.staticcheck.lint.rules` lazily so the registry is always
  populated.
* :func:`run_lint` — the engine: parse, run rules, apply per-line
  (``# lint: allow-<rule>``) and per-file (``# lint: skip-file`` /
  ``# lint: skip-file=<rule>,...``) suppressions, fingerprint every
  finding and mark the ones grandfathered by a
  :class:`~repro.staticcheck.lint.baseline.Baseline`.

Fingerprints hash the rule name, the normalized path and the *stripped
source line text* (plus an occurrence index for duplicates), so a
baseline survives unrelated edits that shift line numbers.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "SEVERITIES",
    "LintFinding",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "default_rules",
    "lint_file",
    "lint_paths",
    "parse_module",
    "register",
    "registered_rules",
    "run_lint",
]

#: Severity vocabulary, most severe first.  ``error`` findings gate CI
#: (non-zero exit unless baselined); ``warning`` gates only under
#: ``--strict``; ``advisory`` never gates.
SEVERITIES = ("error", "warning", "advisory")


@dataclass(frozen=True)
class LintFinding:
    """One lint hit, pinned to where it was observed."""

    path: str
    line: int
    rule: str
    severity: str
    message: str
    hint: str | None = None
    #: Stable identity for baseline matching (set by the engine).
    fingerprint: str = ""
    #: True when a loaded baseline grandfathers this finding.
    baselined: bool = False

    def format(self) -> str:
        """One-line human-readable rendering."""
        line = f"{self.path}:{self.line}: [{self.rule}] {self.message}"
        if self.baselined:
            line += "  (baselined)"
        return line

    def to_dict(self) -> dict:
        """JSON-ready representation (the ``--format json`` payload)."""
        out = {
            "path": self.path,
            "line": self.line,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
            "fingerprint": self.fingerprint,
            "baselined": self.baselined,
        }
        if self.hint:
            out["hint"] = self.hint
        return out


@dataclass
class ModuleContext:
    """One parsed source file as the rules see it."""

    path: str
    norm_path: str
    module_name: str
    source: str
    lines: list[str]
    tree: ast.Module

    def source_line(self, line: int) -> str:
        """The 1-indexed source line text ('' when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


def _module_name_for(norm_path: str) -> str:
    """Best-effort dotted module name for *norm_path*.

    Paths under a ``src/`` directory resolve to their real import path
    (``src/repro/plan/program.py`` -> ``repro.plan.program``); anything
    else falls back to the file stem so synthetic test files still get
    stable, readable names.
    """
    stem = norm_path[:-3] if norm_path.endswith(".py") else norm_path
    parts = [p for p in stem.split("/") if p not in ("", ".")]
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or stem


class LintRule:
    """Base class of every lint rule.

    Subclasses set :attr:`name` (the stable slug used in suppressions,
    baselines and output), :attr:`severity` (default for the rule's
    findings) and :attr:`description`, then implement
    :meth:`check_module` — or set ``program_wide = True`` and implement
    :meth:`check_program`.  Rules *yield findings*; suppression,
    fingerprinting and baseline matching are the engine's job.
    """

    name: str = ""
    severity: str = "warning"
    description: str = ""
    program_wide: bool = False

    def check_module(self, module: ModuleContext):
        """Yield findings for one module (per-module rules)."""
        return ()

    def check_program(self, modules: list[ModuleContext]):
        """Yield findings over every module at once (program rules)."""
        return ()

    # ------------------------------------------------------------------
    def finding(
        self,
        module: ModuleContext | str,
        line: int,
        message: str,
        *,
        severity: str | None = None,
        hint: str | None = None,
    ) -> LintFinding:
        """Build a finding attributed to this rule."""
        path = module if isinstance(module, str) else module.path
        return LintFinding(
            path=path,
            line=line,
            rule=self.name,
            severity=severity or self.severity,
            message=message,
            hint=hint,
        )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: dict[str, type[LintRule]] = {}


def register(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator: add a rule to the global registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} has no rule name")
    if cls.severity not in SEVERITIES:
        raise ValueError(
            f"{cls.__name__} severity {cls.severity!r} not in {SEVERITIES}"
        )
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise ValueError(f"rule name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_rules_loaded() -> None:
    from repro.staticcheck.lint import rules  # noqa: F401  (self-registers)


def registered_rules() -> dict[str, type[LintRule]]:
    """Name -> rule class for every registered rule."""
    _ensure_rules_loaded()
    return dict(_REGISTRY)


def default_rules(names: list[str] | None = None) -> list[LintRule]:
    """Instances of every registered rule (or the named subset)."""
    registry = registered_rules()
    if names is None:
        return [registry[name]() for name in sorted(registry)]
    unknown = [n for n in names if n not in registry]
    if unknown:
        raise ValueError(
            f"unknown rule(s) {unknown}; available: {sorted(registry)}"
        )
    return [registry[name]() for name in sorted(set(names))]


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
def parse_module(
    path: Path | str, source: str | None = None
) -> ModuleContext | LintFinding:
    """Parse one file into a :class:`ModuleContext`.

    Returns a ``syntax`` error finding instead when the file does not
    parse — unparseable code is itself a finding, not a crash.
    """
    path_str = str(path)
    if source is None:
        source = Path(path).read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=path_str)
    except SyntaxError as exc:
        return LintFinding(
            path=path_str,
            line=exc.lineno or 0,
            rule="syntax",
            severity="error",
            message=f"cannot parse: {exc}",
        )
    norm = path_str.replace("\\", "/")
    return ModuleContext(
        path=path_str,
        norm_path=norm,
        module_name=_module_name_for(norm),
        source=source,
        lines=source.splitlines(),
        tree=tree,
    )


def _collect_files(paths) -> list[Path]:
    files: list[Path] = []
    for root in paths:
        root = Path(root)
        if root.is_file():
            files.append(root)
        else:
            files.extend(sorted(root.rglob("*.py")))
    return files


def _file_suppressions(module: ModuleContext) -> set[str] | None:
    """Rules suppressed for the whole file.

    ``# lint: skip-file`` suppresses every rule; ``# lint:
    skip-file=<rule>[,<rule>...]`` suppresses the named ones.  Returns
    ``None`` for "all rules".
    """
    suppressed: set[str] = set()
    for line in module.lines:
        if "lint: skip-file" not in line:
            continue
        marker = line.split("lint: skip-file", 1)[1]
        if marker.startswith("="):
            names = marker[1:].split("--", 1)[0]
            suppressed.update(
                n.strip() for n in names.split(",") if n.strip()
            )
        else:
            return None  # bare skip-file: everything
    return suppressed


def _line_suppressed(module: ModuleContext, finding: LintFinding) -> bool:
    return f"lint: allow-{finding.rule}" in module.source_line(finding.line)


def _apply_suppressions(
    module: ModuleContext, findings: list[LintFinding]
) -> list[LintFinding]:
    file_rules = _file_suppressions(module)
    if file_rules is None:
        return []
    return [
        f
        for f in findings
        if f.rule not in file_rules and not _line_suppressed(module, f)
    ]


def _fingerprint(finding: LintFinding, source_line: str, occurrence: int) -> str:
    norm = finding.path.replace("\\", "/")
    blob = f"{finding.rule}|{norm}|{source_line.strip()}|{occurrence}"
    return hashlib.sha1(blob.encode("utf-8")).hexdigest()


@dataclass
class LintReport:
    """The outcome of one lint run."""

    findings: list[LintFinding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)

    @property
    def active(self) -> list[LintFinding]:
        """Findings not grandfathered by the baseline."""
        return [f for f in self.findings if not f.baselined]

    @property
    def baselined(self) -> list[LintFinding]:
        """Findings matched (and silenced) by the baseline."""
        return [f for f in self.findings if f.baselined]

    @property
    def errors(self) -> list[LintFinding]:
        """Active error-severity findings (the CI gate)."""
        return [f for f in self.active if f.severity == "error"]

    @property
    def warnings(self) -> list[LintFinding]:
        """Active warning-severity findings (gate under ``--strict``)."""
        return [f for f in self.active if f.severity == "warning"]

    def counts(self) -> dict:
        """Summary counters (shared by every output format)."""
        by_severity = {s: 0 for s in SEVERITIES}
        for f in self.active:
            by_severity[f.severity] += 1
        return {
            "files": self.files_checked,
            "rules": len(self.rules_run),
            "findings": len(self.active),
            "baselined": len(self.baselined),
            **by_severity,
        }

    def exit_code(self, *, strict: bool = False) -> int:
        """1 when active errors exist (or warnings, under *strict*)."""
        if self.errors:
            return 1
        if strict and self.warnings:
            return 1
        return 0


def run_lint(
    paths,
    *,
    rules: list[LintRule] | None = None,
    baseline=None,
) -> LintReport:
    """Lint every ``*.py`` under *paths* and return a :class:`LintReport`.

    *rules* defaults to every registered rule; *baseline* (a
    :class:`~repro.staticcheck.lint.baseline.Baseline`) marks matching
    findings ``baselined`` instead of dropping them, so every output
    format can still show what is being grandfathered.
    """
    rules = default_rules() if rules is None else rules
    module_rules = [r for r in rules if not r.program_wide]
    program_rules = [r for r in rules if r.program_wide]

    contexts: list[ModuleContext] = []
    findings: list[LintFinding] = []
    files = _collect_files(paths)
    for file in files:
        parsed = parse_module(file)
        if isinstance(parsed, LintFinding):
            findings.append(parsed)
            continue
        contexts.append(parsed)
        module_findings: list[LintFinding] = []
        for rule in module_rules:
            module_findings.extend(rule.check_module(parsed))
        findings.extend(_apply_suppressions(parsed, module_findings))

    by_path = {ctx.path: ctx for ctx in contexts}
    for rule in program_rules:
        for finding in rule.check_program(contexts):
            ctx = by_path.get(finding.path)
            if ctx is None or _apply_suppressions(ctx, [finding]):
                findings.append(finding)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    # Fingerprint (occurrence-indexed so duplicates stay distinct) and
    # match against the baseline.
    seen: dict[str, int] = {}
    final: list[LintFinding] = []
    for finding in findings:
        ctx = by_path.get(finding.path)
        line_text = ctx.source_line(finding.line) if ctx else ""
        key = f"{finding.rule}|{finding.path}|{line_text.strip()}"
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        fp = _fingerprint(finding, line_text, occurrence)
        final.append(
            replace(
                finding,
                fingerprint=fp,
                baselined=baseline is not None and baseline.contains(fp),
            )
        )
    return LintReport(
        findings=final,
        files_checked=len(files),
        rules_run=sorted(r.name for r in rules),
    )


def lint_file(path, *, rules: list[LintRule] | None = None) -> list[LintFinding]:
    """Lint one file; returns suppression-filtered findings (no baseline)."""
    return run_lint([Path(path)], rules=rules).findings


def lint_paths(paths, *, rules: list[LintRule] | None = None) -> list[LintFinding]:
    """Lint every ``*.py`` under the given files/directories."""
    return run_lint([Path(p) for p in paths], rules=rules).findings
