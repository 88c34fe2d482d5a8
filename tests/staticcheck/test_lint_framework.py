"""The lint framework itself: registry, severities, outputs, CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.staticcheck.lint import (
    SEVERITIES,
    LintRule,
    default_rules,
    register,
    registered_rules,
    render_json,
    render_sarif,
    render_text,
    run_lint,
)

EXPECTED_RULES = {
    "blocking-in-async": "error",
    "daemon-thread-leak": "warning",
    "engine-direct": "error",
    "float-eq": "warning",
    "lock-order": "error",
    "metric-name": "warning",
    "mutable-default": "error",
    "op-loop": "error",
    "plan-pass-mutation": "error",
    "unguarded-global": "warning",
    "view-return": "error",
}


class TestRegistry:
    def test_all_catalogue_rules_registered(self):
        registry = registered_rules()
        assert {n: c.severity for n, c in registry.items()} == EXPECTED_RULES

    def test_every_rule_has_description_and_valid_severity(self):
        for cls in registered_rules().values():
            assert cls.description
            assert cls.severity in SEVERITIES

    def test_rule_subset_selection(self):
        rules = default_rules(["float-eq", "op-loop"])
        assert sorted(r.name for r in rules) == ["float-eq", "op-loop"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            default_rules(["no-such-rule"])

    def test_register_rejects_bad_severity(self):
        with pytest.raises(ValueError, match="severity"):

            @register
            class Bad(LintRule):
                name = "bad-severity-rule"
                severity = "catastrophic"

    def test_register_rejects_duplicate_name(self):
        with pytest.raises(ValueError, match="already registered"):

            @register
            class Clash(LintRule):
                name = "float-eq"
                severity = "warning"


class TestSeverityModel:
    @pytest.fixture
    def mixed_report(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(a=[]):\n    return a == 0.5\n", encoding="utf-8"
        )
        return run_lint([path])

    def test_errors_and_warnings_partitioned(self, mixed_report):
        assert {f.rule for f in mixed_report.errors} == {"mutable-default"}
        assert {f.rule for f in mixed_report.warnings} == {"float-eq"}

    def test_exit_code_gates_on_errors(self, mixed_report):
        assert mixed_report.exit_code() == 1

    def test_strict_gates_on_warnings(self, tmp_path):
        path = tmp_path / "warn.py"
        path.write_text("X = 1.0 == 1.0\n", encoding="utf-8")
        report = run_lint([path])
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) == 1

    def test_syntax_error_is_error_finding(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n", encoding="utf-8")
        report = run_lint([path])
        assert [f.rule for f in report.findings] == ["syntax"]
        assert report.exit_code() == 1


class TestOutputFormats:
    @pytest.fixture
    def report(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text(
            "def f(a=[]):\n    return a == 0.5\n", encoding="utf-8"
        )
        return run_lint([path])

    def test_text_lines_and_summary(self, report):
        text = render_text(report)
        assert "[mutable-default]" in text
        assert "[float-eq]" in text
        assert "2 finding(s) (1 error, 1 warning, 0 advisory)" in text

    def test_json_schema(self, report):
        payload = json.loads(render_json(report))
        assert payload["schema"] == "repro.lint/1"
        assert payload["summary"]["error"] == 1
        assert payload["summary"]["warning"] == 1
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"mutable-default", "float-eq"}
        assert all(f["fingerprint"] for f in payload["findings"])

    def test_sarif_structure(self, report):
        log = json.loads(render_sarif(report))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert set(EXPECTED_RULES) <= set(rule_ids)
        levels = {r["ruleId"]: r["level"] for r in run["results"]}
        assert levels == {"mutable-default": "error", "float-eq": "warning"}
        for result in run["results"]:
            loc = result["locations"][0]["physicalLocation"]
            assert loc["region"]["startLine"] >= 1
            assert result["partialFingerprints"]["reproLint/v1"]


class TestCli:
    def test_lint_clean_tree_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("X = 1\n", encoding="utf-8")
        rc = cli_main(["lint", str(path), "--no-baseline"])
        assert rc == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_lint_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f(a=[]):\n    return a\n", encoding="utf-8")
        rc = cli_main(["lint", str(path), "--no-baseline"])
        assert rc == 1
        assert "[mutable-default]" in capsys.readouterr().out

    def test_strict_fails_on_warning(self, tmp_path, capsys):
        path = tmp_path / "warn.py"
        path.write_text("X = 1.0 == 1.0\n", encoding="utf-8")
        assert cli_main(["lint", str(path), "--no-baseline"]) == 0
        assert (
            cli_main(["lint", str(path), "--no-baseline", "--strict"]) == 1
        )
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("X = 1\n", encoding="utf-8")
        rc = cli_main(["lint", str(path), "--no-baseline", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.lint/1"

    def test_sarif_format(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("X = 1\n", encoding="utf-8")
        rc = cli_main(
            ["lint", str(path), "--no-baseline", "--format", "sarif"]
        )
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["version"] == "2.1.0"

    def test_update_baseline_then_gate(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f(a=[]):\n    return a\n", encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        rc = cli_main(
            ["lint", str(path), "--baseline", str(baseline),
             "--update-baseline"]
        )
        assert rc == 0
        assert baseline.exists()
        rc = cli_main(["lint", str(path), "--baseline", str(baseline)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "1 baselined" in out

    def test_rule_selection(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f(a=[]):\n    return a == 0.5\n")
        rc = cli_main(
            ["lint", str(path), "--no-baseline", "--rule", "float-eq"]
        )
        assert rc == 0  # float-eq is warning severity; no errors selected
        assert "[float-eq]" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        rc = cli_main(
            ["lint", str(tmp_path), "--no-baseline", "--rule", "nope"]
        )
        assert rc == 2
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in EXPECTED_RULES:
            assert name in out
