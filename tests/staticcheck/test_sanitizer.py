"""Runtime sanitizer: op_index-pinned NaN / norm / checksum detection."""

import numpy as np
import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedSimulator
from repro.runtime import ExecutionEngine, RuntimeLayer, SanitizerLayer
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.staticcheck import SanitizerConfig, ShardSanitizer


def make_schedule(n=9, l=6, *, depth=8, seed=2):
    circ = generate_supremacy_circuit(n, depth, seed=seed)
    return schedule_circuit(
        circ, SchedulerConfig(local_qubits=l, kmax=4, seed=seed)
    )


def unit_starts(schedule):
    """The op index each engine unit starts at: where findings are pinned."""
    return [unit.op_index for unit in ExecutionEngine(schedule).units]


class _Drill(RuntimeLayer):
    """A layer firing ``corruptions[op_index](state)`` after that op."""

    def __init__(self, corruptions):
        self.table = corruptions or {}

    def after_op(self, ctx, unit):
        hook = self.table.get(unit.op_index)
        if hook is not None:
            hook(ctx.state)


def sanitized_run(
    schedule, *, config=None, corrupt_during=None, corrupt_after=None
):
    """Execute *schedule* with the sanitizer armed; returns state+report.

    ``corrupt_during`` maps op_index -> callable(state) invoked right
    after that op executes but before its post-op scan — damage *inside*
    the op, detected at the same index.  ``corrupt_after`` fires once the
    scan has recorded its checksums — at-rest damage *between* ops,
    detected by the checksum pass before op ``op_index + 1``.  after_op
    runs in reverse stack order, which puts the drills on either side of
    the sanitizer's scan.
    """
    sanitizer = ShardSanitizer(config)
    layers = [
        _Drill(corrupt_after),
        SanitizerLayer(sanitizer),
        _Drill(corrupt_during),
    ]
    engine = ExecutionEngine(schedule, layers=layers)
    return engine.run().state, sanitizer.report


def poison_nan(rank=0, index=0):
    def corrupt(state):
        shard = state.storage.get(rank)
        shard[index] = np.nan
        state.storage.set(rank, shard)

    return corrupt


def flip_amplitude(rank=0, index=3, delta=0.5):
    def corrupt(state):
        shard = state.storage.get(rank)
        shard[index] += delta
        state.storage.set(rank, shard)

    return corrupt


class TestCleanRuns:
    def test_clean_run_has_no_findings(self):
        sched = make_schedule()
        state, report = sanitized_run(sched)
        assert report.passed, report.format()
        assert report.ops_checked == len(unit_starts(sched))
        assert report.norm_trace and all(
            abs(x - 1.0) < 1e-9 for x in report.norm_trace
        )

    def test_sanitized_state_matches_plain_run(self):
        sched = make_schedule()
        plain = DistributedSimulator(
            sched.num_qubits, sched.local_qubits
        ).run_schedule(sched).state
        sanitized, report = sanitized_run(sched)
        assert report.passed
        assert np.array_equal(
            plain.to_statevector().data, sanitized.to_statevector().data
        )


class TestNaNDetection:
    @pytest.mark.parametrize("unit", [0, 2, 5])
    def test_nan_pinned_to_exact_op_index(self, unit):
        sched = make_schedule(depth=16)  # seven units
        op_index = unit_starts(sched)[unit]
        _, report = sanitized_run(
            sched, corrupt_during={op_index: poison_nan()}
        )
        nan_findings = [
            f for f in report.findings if f.category == "nan"
        ]
        assert nan_findings, report.format()
        assert nan_findings[0].op_index == op_index
        assert nan_findings[0].rank == 0

    def test_persistent_nan_does_not_cascade(self):
        """NaN injected once stays in the state for every later op, but
        each rank must be reported only when it *first* turns non-finite
        — one corruption, one finding per poisoned rank, not one per op."""
        sched = make_schedule()
        k = unit_starts(sched)[2]
        _, report = sanitized_run(sched, corrupt_during={k: poison_nan()})
        nan_findings = [
            f for f in report.findings if f.category == "nan"
        ]
        per_rank = {}
        for f in nan_findings:
            per_rank.setdefault(f.rank, []).append(f)
        for rank, hits in per_rank.items():
            assert len(hits) == 1, report.format()
        assert per_rank[0][0].op_index == k
        # The non-finite norm latches too: one norm finding total.
        norm_findings = [
            f for f in report.findings if f.category == "norm"
        ]
        assert len(norm_findings) <= 1, report.format()

    def test_nan_detection_can_be_disabled(self):
        sched = make_schedule()
        _, report = sanitized_run(
            sched,
            config=SanitizerConfig(
                check_nan=False, check_norm=False, check_checksums=False
            ),
            corrupt_during={unit_starts(sched)[1]: poison_nan()},
        )
        assert report.passed


class TestChecksumDivergence:
    def test_divergence_pinned_to_next_op_index(self):
        """Corruption at rest after unit k is caught by the checksum pass
        guarding unit k+1 — the one that would consume the bad shard."""
        sched = make_schedule()
        starts = unit_starts(sched)
        k = 1
        _, report = sanitized_run(
            sched, corrupt_after={starts[k]: flip_amplitude(rank=1)}
        )
        checksum_findings = [
            f for f in report.findings if f.category == "checksum"
        ]
        assert checksum_findings, report.format()
        assert checksum_findings[0].op_index == starts[k + 1]
        assert checksum_findings[0].rank == 1

    def test_one_corruption_reports_once(self):
        sched = make_schedule()
        _, report = sanitized_run(
            sched, corrupt_after={unit_starts(sched)[1]: flip_amplitude(rank=0)}
        )
        checksum_findings = [
            f for f in report.findings if f.category == "checksum"
        ]
        assert len(checksum_findings) == 1


class TestNormTracking:
    def test_norm_drift_detected_and_pinned(self):
        sched = make_schedule(depth=16)
        k = unit_starts(sched)[3]
        _, report = sanitized_run(
            sched, corrupt_during={k: flip_amplitude(delta=0.25)}
        )
        norm_findings = [
            f for f in report.findings if f.category == "norm"
        ]
        assert norm_findings, report.format()
        assert norm_findings[0].op_index == k

    def test_norm_drift_reported_once_not_every_op(self):
        sched = make_schedule()
        _, report = sanitized_run(
            sched, corrupt_during={0: flip_amplitude(delta=0.25)}
        )
        norm_findings = [
            f for f in report.findings if f.category == "norm"
        ]
        assert len(norm_findings) == 1


class TestSupervisorHook:
    def test_resilient_run_drives_sanitizer(self, tmp_path):
        sched = make_schedule()
        sanitizer = ShardSanitizer()
        sim = DistributedSimulator(sched.num_qubits, sched.local_qubits)
        result = sim.run_resilient(
            sched, tmp_path / "ckpt", sanitizer=sanitizer
        )
        assert sanitizer.report.ops_checked == len(unit_starts(sched))
        assert sanitizer.report.passed, sanitizer.report.format()
        plain = sim.run_schedule(sched).state
        assert np.array_equal(
            plain.to_statevector().data, result.state.to_statevector().data
        )

    def test_check_state_one_shot(self):
        sched = make_schedule()
        sim = DistributedSimulator(sched.num_qubits, sched.local_qubits)
        state = sim.new_state(sorted(sched.initial_global_qubits))
        sanitizer = ShardSanitizer()
        sanitizer.attach(state)
        assert sanitizer.check_state(state, 0) == []
        shard = state.storage.get(0)
        shard[0] = np.inf
        state.storage.set(0, shard)
        produced = sanitizer.check_state(state, 1)
        cats = {f.category for f in produced}
        assert "nan" in cats and "checksum" in cats


class TestReportFormatting:
    def test_format_mentions_counts(self):
        sched = make_schedule()
        _, report = sanitized_run(sched)
        text = report.format()
        assert "op(s) checked" in text
        assert "0 finding(s)" in text

    def test_as_check_report_roundtrip(self):
        sched = make_schedule()
        _, report = sanitized_run(
            sched, corrupt_during={unit_starts(sched)[1]: poison_nan()}
        )
        check = report.as_check_report()
        assert not check.passed
        assert "nan" in check.categories()
