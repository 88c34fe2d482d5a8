"""Validate and diff machine-readable bench records.

``benchmarks/conftest.py``'s ``bench_record`` fixture writes one
``BENCH_<name>.json`` per bench into ``benchmarks/results/`` following
the ``repro.bench/1`` schema::

    {
        "schema": "repro.bench/1",
        "name": "end_to_end",
        "params": {"qubits": 18, ...},
        "seconds": 1.23,
        "bytes": 45678,
        "metrics": {"swaps": 5, ...},
        "unix_time": 1700000000.0
    }

This tool checks every record against that schema and, when the
previous generation is present (``BENCH_<name>.json.prev``, kept by the
fixture), diffs the headline numbers.  For most benches regressions are
*warnings* — host timings in CI containers are noisy — but the guarded
benches in :data:`FAIL_ON_REGRESSION` (the end-to-end, runtime,
pipeline, fusion and plan-compile numbers) FAIL the check when they slow down by more than
:data:`REGRESSION_THRESHOLD`.

Usage::

    python tools/bench_check.py [results_dir]

Exit status is non-zero for schema violations (malformed records) and
for guarded-bench performance regressions.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

#: Schema tag this checker understands (mirrors benchmarks/conftest.py).
BENCH_SCHEMA = "repro.bench/1"

#: Relative slowdown beyond which a regression note is emitted.
REGRESSION_THRESHOLD = 0.25

#: Benches whose >threshold slowdowns are ERRORS (exit 1), not warnings.
FAIL_ON_REGRESSION = {
    "end_to_end",
    "runtime_overhead",
    "pipeline",
    "fusion",
    "plan_compile",
}

#: Bench names the repo's suites are known to emit.  A record with an
#: unregistered name is flagged as a warning — most likely a bench was
#: added without registering it here (or renamed without cleanup).
KNOWN_BENCHES = {
    "end_to_end",
    "exposition_overhead",
    "fusion",
    "pipeline",
    "plan_compile",
    "recovery_overhead",
    "runtime_overhead",
    "sanitizer_overhead",
    "service_throughput",
    "table2_cori",
    "telemetry_overhead",
}

_REQUIRED_FIELDS = {
    "schema": str,
    "name": str,
    "params": dict,
    "seconds": (int, float),
    "bytes": int,
    "metrics": dict,
    "unix_time": (int, float),
}


def validate_record(record: object) -> list[str]:
    """Return a list of schema violations (empty when the record is valid)."""
    errors: list[str] = []
    if not isinstance(record, dict):
        return [f"record is {type(record).__name__}, expected object"]
    for field, types in _REQUIRED_FIELDS.items():
        if field not in record:
            errors.append(f"missing field {field!r}")
        elif not isinstance(record[field], types):
            errors.append(
                f"field {field!r} is {type(record[field]).__name__}, "
                f"expected {types.__name__ if isinstance(types, type) else 'number'}"
            )
    unknown = set(record) - set(_REQUIRED_FIELDS)
    if unknown:
        errors.append(f"unknown fields: {sorted(unknown)}")
    if not errors:
        if record["schema"] != BENCH_SCHEMA:
            errors.append(
                f"schema is {record['schema']!r}, expected {BENCH_SCHEMA!r}"
            )
        if isinstance(record["seconds"], bool) or record["seconds"] < 0:
            errors.append(f"seconds must be a non-negative number, got "
                          f"{record['seconds']!r}")
        elif not math.isfinite(record["seconds"]):
            errors.append(f"seconds must be finite, got {record['seconds']!r}")
        if isinstance(record["bytes"], bool) or record["bytes"] < 0:
            errors.append(f"bytes must be a non-negative int, got "
                          f"{record['bytes']!r}")
    return errors


def diff_records(
    current: dict, previous: dict
) -> tuple[list[str], list[str]]:
    """Compare a record against its previous generation.

    Returns ``(errors, warnings)`` as human-readable notes.  A seconds
    regression beyond :data:`REGRESSION_THRESHOLD` is an error for the
    guarded :data:`FAIL_ON_REGRESSION` benches and a warning otherwise;
    byte/param changes always warn.  Only headline fields are compared —
    metrics are free-form and bench-specific.
    """
    errors: list[str] = []
    notes: list[str] = []
    prev_s, cur_s = previous.get("seconds"), current.get("seconds")
    if (
        isinstance(prev_s, (int, float))
        and isinstance(cur_s, (int, float))
        and prev_s > 0
    ):
        rel = (cur_s - prev_s) / prev_s
        if rel > REGRESSION_THRESHOLD:
            note = (
                f"seconds regressed {prev_s:.4g} -> {cur_s:.4g} "
                f"(+{100 * rel:.0f}%)"
            )
            if current.get("name") in FAIL_ON_REGRESSION:
                errors.append(note + " [guarded bench]")
            else:
                notes.append(note)
    if previous.get("bytes") != current.get("bytes"):
        notes.append(
            f"bytes changed {previous.get('bytes')} -> {current.get('bytes')}"
        )
    if previous.get("params") != current.get("params"):
        notes.append(
            f"params changed {previous.get('params')} -> "
            f"{current.get('params')} (diff may not be like-for-like)"
        )
    return errors, notes


def check_results_dir(results_dir: Path) -> tuple[int, int]:
    """Validate every ``BENCH_*.json`` under *results_dir*.

    Prints findings and returns ``(num_errors, num_warnings)``.
    """
    errors = warnings = 0
    records = sorted(results_dir.glob("BENCH_*.json"))
    if not records:
        print(f"bench_check: no BENCH_*.json records in {results_dir}")
        return 0, 0
    for path in records:
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"ERROR {path.name}: unreadable ({exc})")
            errors += 1
            continue
        violations = validate_record(record)
        for violation in violations:
            print(f"ERROR {path.name}: {violation}")
        errors += len(violations)
        if violations:
            continue
        if record["name"] not in KNOWN_BENCHES:
            print(f"WARN  {path.name}: bench name {record['name']!r} not "
                  f"registered in KNOWN_BENCHES")
            warnings += 1
        prev_path = path.with_suffix(".json.prev")
        if prev_path.exists():
            try:
                previous = json.loads(prev_path.read_text())
            except (OSError, json.JSONDecodeError):
                print(f"WARN  {path.name}: previous record unreadable, "
                      f"skipping diff")
                warnings += 1
                continue
            diff_errors, diff_notes = diff_records(record, previous)
            for note in diff_errors:
                print(f"ERROR {path.name}: {note}")
                errors += 1
            for note in diff_notes:
                print(f"WARN  {path.name}: {note}")
                warnings += 1
            if diff_errors:
                continue
        print(f"ok    {path.name}: {record['name']} "
              f"({record['seconds']:.4g} s)")
    return errors, warnings


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    default = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
    results_dir = Path(argv[0]) if argv else default
    if not results_dir.is_dir():
        print(f"bench_check: results dir {results_dir} does not exist")
        return 0
    errors, warnings = check_results_dir(results_dir)
    if errors:
        print(f"bench_check: {errors} error(s) (schema or guarded-bench "
              f"regression), {warnings} warning(s)")
        return 1
    print(f"bench_check: all records valid ({warnings} warning(s))")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
