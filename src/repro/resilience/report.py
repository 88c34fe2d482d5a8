"""Human-readable recovery and chaos-suite reports.

The `repro chaos` CLI prints these; the quantities mirror the
recovery-overhead model the paper's Sec. 5 scale implies but never
measures: faults injected, retries, restarts, redundant bytes re-moved,
and overhead seconds split into measured wall, deterministic backoff and
simulated stall.
"""

from __future__ import annotations

from repro.resilience.chaos import ChaosSuiteResult
from repro.resilience.supervisor import RecoveryReport

__all__ = ["format_chaos_suite", "format_recovery_report"]


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024 or unit == "TiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} TiB"  # pragma: no cover


def format_recovery_report(report: RecoveryReport, *, indent: str = "") -> str:
    """Multi-line text form of one :class:`RecoveryReport`."""
    lines = [
        f"faults injected      : {len(report.faults_injected)}",
        f"transient retries    : {report.transient_retries}",
        f"checkpoint restarts  : {report.restarts}",
        f"redundant bytes moved: {_human_bytes(report.redundant_bytes)}",
        f"integrity checks     : {report.integrity_checks} "
        f"({report.corruption_detections} corruption(s) detected)",
        f"checkpoints written  : {report.checkpoints_written} "
        f"({_human_bytes(report.checkpoint_bytes)})",
        f"backoff seconds      : {report.backoff_seconds:.3f}",
        f"stall seconds        : {report.stall_seconds:.3f}",
        f"wall overhead seconds: {report.wall_overhead_seconds:.3f}",
    ]
    for fault in report.faults_injected:
        lines.append(
            f"  - op {fault['op_index']}: {fault['kind']} ({fault['detail']})"
        )
    return "\n".join(indent + line for line in lines)


def format_chaos_suite(suite: ChaosSuiteResult) -> str:
    """Full chaos report: verdict table plus per-scenario recovery detail."""
    lines = ["chaos suite", "==========="]
    summary = suite.schedule_summary
    lines.append(
        f"schedule: {summary['num_qubits']} qubits, "
        f"{summary['local_qubits']} local "
        f"(ranks={1 << (summary['num_qubits'] - summary['local_qubits'])}), "
        f"{summary['num_swaps']} swaps, {summary['num_clusters']} clusters"
    )
    lines.append("")
    width = max(len(r.name) for r in suite.results) if suite.results else 8
    for r in suite.results:
        verdict = "PASS" if r.passed else "FAIL"
        if r.bit_exact is None:
            detail = r.error or ""
        else:
            detail = "bit-exact" if r.bit_exact else (r.error or "mismatch")
        lines.append(f"{r.name:<{width}}  {verdict}  {detail}")
    lines.append("")
    for r in suite.results:
        if r.report is None:
            continue
        lines.append(f"[{r.name}] {r.scenario.description}")
        lines.append(format_recovery_report(r.report, indent="  "))
        lines.append("")
    lines.append(
        f"{suite.num_passed}/{len(suite.results)} scenarios passed"
    )
    return "\n".join(lines)
