"""The findings model: vocabulary, ranking, formatting, strict mode."""

import pytest

from repro.staticcheck import (
    CATEGORIES,
    CheckReport,
    Finding,
    Severity,
    StaticCheckError,
)


class TestFinding:
    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Finding(severity="fatal", category="swap", message="x")

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown category"):
            Finding(severity="error", category="misc", message="x")

    def test_every_category_constructs(self):
        for category in CATEGORIES:
            Finding(severity="error", category=category, message="x")

    def test_location_rendering(self):
        f = Finding(
            severity="error", category="swap", message="x",
            stage=2, op_index=17, rank=3,
        )
        assert f.location() == "stage 2 / op 17 / rank 3"
        assert Finding(
            severity="info", category="swap", message="x"
        ).location() == "program"

    def test_format_includes_hint(self):
        f = Finding(
            severity="warning", category="swap", message="m", hint="h"
        )
        assert "hint: h" in f.format()
        assert "WARNING" in f.format()


class TestCheckReport:
    def test_sorted_findings_rank_errors_first(self):
        report = CheckReport()
        report.add(Severity.INFO, "swap", "i")
        report.add(Severity.ERROR, "coverage", "e")
        report.add(Severity.WARNING, "swap", "w")
        severities = [f.severity for f in report.sorted_findings()]
        assert severities == ["error", "warning", "info"]

    def test_passed_vs_clean(self):
        report = CheckReport()
        assert report.passed and report.clean
        report.add(Severity.WARNING, "swap", "w")
        assert report.passed and not report.clean
        report.add(Severity.ERROR, "coverage", "e")
        assert not report.passed

    def test_extend_folds_findings_and_check_names(self):
        a = CheckReport(checks_run=["one"])
        a.add(Severity.ERROR, "swap", "x")
        b = CheckReport(checks_run=["two"])
        b.add(Severity.WARNING, "coverage", "y")
        a.extend(b)
        assert a.checks_run == ["one", "two"]
        assert len(a.findings) == 2

    def test_raise_if_failed(self):
        report = CheckReport()
        report.raise_if_failed()  # no error findings: no raise
        report.add(Severity.ERROR, "coverage", "gate dropped")
        with pytest.raises(StaticCheckError) as err:
            report.raise_if_failed()
        assert err.value.report is report
        assert "coverage" in str(err.value)

    def test_format_verdict_lines(self):
        clean = CheckReport(checks_run=["structure"])
        assert "CLEAN" in clean.format()
        warned = CheckReport()
        warned.add(Severity.WARNING, "swap", "w")
        assert "PASS with 1 warning" in warned.format()
        failed = CheckReport()
        failed.add(Severity.ERROR, "coverage", "e")
        assert "FAIL" in failed.format()
