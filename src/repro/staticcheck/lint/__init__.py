"""Pluggable lint framework for the repro codebase.

Every check is a :class:`~repro.staticcheck.lint.core.LintRule` module
under :mod:`repro.staticcheck.lint.rules`, registered by name, with a
severity, per-line/per-file suppression and baseline grandfathering.
``repro lint`` is the CLI; :func:`lint_file` / :func:`lint_paths` are the
library entry points.

See ``docs/architecture.md`` ("Lint framework") for the rule catalogue
and the baseline workflow.
"""

from repro.staticcheck.lint.baseline import Baseline, write_baseline
from repro.staticcheck.lint.core import (
    SEVERITIES,
    LintFinding,
    LintReport,
    LintRule,
    ModuleContext,
    default_rules,
    lint_file,
    lint_paths,
    register,
    registered_rules,
    run_lint,
)
from repro.staticcheck.lint.output import (
    render_json,
    render_sarif,
    render_text,
)

__all__ = [
    "Baseline",
    "LintFinding",
    "LintReport",
    "LintRule",
    "ModuleContext",
    "SEVERITIES",
    "default_rules",
    "lint_file",
    "lint_paths",
    "register",
    "registered_rules",
    "render_json",
    "render_sarif",
    "render_text",
    "run_lint",
    "write_baseline",
]
