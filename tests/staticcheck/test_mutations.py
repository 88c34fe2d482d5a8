"""Mutation tests: every corruption is caught *as the right bug*.

The acceptance bar for the static checker: programmatically corrupt a
valid scheduler-produced schedule (or a run's comm counters) in distinct
ways and assert each mutation yields a finding with the matching
diagnostic category — never an exception, however malformed the
schedule — while the unmutated schedule passes with zero findings.
"""

import copy
import types

from repro.circuit import generate_supremacy_circuit
from repro.scheduling import (
    ClusterOp,
    GateOp,
    SchedulerConfig,
    schedule_circuit,
)
from repro.gates import Gate
from repro.staticcheck import check_comm_stats, verify_schedule


def make_schedule(n=10, depth=10, *, l=7, kmax=4, seed=1, **cfg):
    circ = generate_supremacy_circuit(n, depth, seed=seed)
    return schedule_circuit(
        circ, SchedulerConfig(local_qubits=l, kmax=kmax, seed=seed, **cfg)
    )


def mutate(schedule):
    """A deep copy safe to corrupt (ops are shared but stages are not)."""
    clone = copy.copy(schedule)
    clone.stages = [copy.copy(s) for s in schedule.stages]
    for stage in clone.stages:
        stage.ops = list(stage.ops)
    return clone


def first_cluster(schedule):
    """(stage_index, op_index, op) of the first plain ClusterOp."""
    for i, stage in enumerate(schedule.stages):
        for j, op in enumerate(stage.ops):
            if isinstance(op, ClusterOp):
                return i, j, op
    raise AssertionError("schedule has no ClusterOp")


class TestCleanBaseline:
    def test_scheduler_output_is_clean(self):
        report = verify_schedule(make_schedule())
        assert report.clean, report.format()


class TestScheduleMutations:
    # -- mutation 1: widen a cluster beyond kmax ------------------------
    def test_widened_cluster_caught_as_cluster_width(self):
        sched = make_schedule()
        bad = mutate(sched)
        i, j, op = first_cluster(bad)
        local = sorted(
            set(range(sched.num_qubits))
            - bad.stages[i].global_qubits
            - set(op.qubits)
        )
        extra = tuple(local[: sched.kmax + 1 - op.num_qubits])
        assert extra, "need spare local qubits to widen into"
        bad.stages[i].ops[j] = ClusterOp(op.qubits + extra, op.gates)
        report = verify_schedule(bad)
        assert "cluster-width" in report.categories(), report.format()
        assert not report.passed

    # -- mutation 2: cluster touching a stage-global qubit --------------
    def test_global_qubit_in_cluster_caught_as_locality(self):
        sched = make_schedule()
        bad = mutate(sched)
        i, j, op = first_cluster(bad)
        gq = min(bad.stages[i].global_qubits)
        bad.stages[i].ops[j] = ClusterOp(op.qubits + (gq,), op.gates)
        report = verify_schedule(bad)
        assert "cluster-locality" in report.categories(), report.format()
        assert not report.passed

    # -- mutation 3: corrupt a swap point (unequal exchange) ------------
    def test_unbalanced_swap_caught_as_swap(self):
        sched = make_schedule()
        assert len(sched.stages) >= 2, "need a swap to corrupt"
        bad = mutate(sched)
        shrunk = frozenset(sorted(bad.stages[1].global_qubits)[:-1])
        bad.stages[1].global_qubits = shrunk
        report = verify_schedule(bad)
        assert "swap" in report.categories(), report.format()
        assert not report.passed

    # -- mutation 4: no-op swap (dropped stage merge) -------------------
    def test_noop_swap_caught_as_swap_warning(self):
        sched = make_schedule()
        assert len(sched.stages) >= 2
        bad = mutate(sched)
        bad.stages[1].global_qubits = bad.stages[0].global_qubits
        report = verify_schedule(bad)
        swap_findings = [
            f for f in report.findings if f.category == "swap"
        ]
        assert swap_findings, report.format()
        assert any("no-op" in f.message for f in swap_findings)

    # -- mutation 5: misdeclared specialization -------------------------
    def test_dense_gate_as_specialized_caught(self):
        sched = make_schedule()
        bad = mutate(sched)
        i = next(
            idx for idx, s in enumerate(bad.stages) if s.global_qubits
        )
        gq = min(bad.stages[i].global_qubits)
        bad.stages[i].ops.append(GateOp(Gate("h", (gq,))))
        report = verify_schedule(bad)
        assert "specialization" in report.categories(), report.format()
        assert not report.passed

    # -- mutation 6: dropped gates (coverage) ---------------------------
    def test_dropped_cluster_caught_as_coverage(self):
        sched = make_schedule()
        bad = mutate(sched)
        i, j, _ = first_cluster(bad)
        del bad.stages[i].ops[j]
        report = verify_schedule(bad)
        assert "coverage" in report.categories(), report.format()
        assert any("dropped" in f.message for f in report.errors)

    # -- mutation 7: duplicated gates (coverage) ------------------------
    def test_duplicated_cluster_caught_as_coverage(self):
        sched = make_schedule()
        bad = mutate(sched)
        i, j, op = first_cluster(bad)
        bad.stages[i].ops.insert(j, op)
        report = verify_schedule(bad)
        assert "coverage" in report.categories(), report.format()
        assert any("more" in f.message for f in report.errors)

    # -- mutation 8: reordered non-commuting gates ----------------------
    def test_reversed_cluster_gates_caught_as_gate_order(self):
        sched = make_schedule()
        detected = False
        for i, stage in enumerate(sched.stages):
            for j, op in enumerate(stage.ops):
                if not isinstance(op, ClusterOp) or len(op.gates) < 2:
                    continue
                bad = mutate(sched)
                bad.stages[i].ops[j] = ClusterOp(
                    op.qubits, tuple(reversed(op.gates))
                )
                report = verify_schedule(bad, check_unitarity=False)
                if "gate-order" in report.categories():
                    detected = True
                    break
            if detected:
                break
        assert detected, "no cluster reversal was caught as gate-order"

    # -- mutation 9: non-unitary fused matrix ---------------------------
    def test_nonunitary_fused_matrix_caught(self):
        sched = make_schedule()
        bad = mutate(sched)
        i, j, op = first_cluster(bad)
        corrupt = ClusterOp(op.qubits, op.gates)
        # Gate.__init__ enforces unitarity, so plant a stub through the
        # cached_property slot — exactly what in-memory corruption of a
        # fused kernel looks like to the checker.
        corrupt.__dict__["fused"] = types.SimpleNamespace(
            matrix=op.fused.matrix * 1.01
        )
        bad.stages[i].ops[j] = corrupt
        report = verify_schedule(bad)
        assert "unitarity" in report.categories(), report.format()
        assert not report.passed

    # -- mutation 10: wrong-size stage global set (structure) -----------
    def test_oversized_global_set_caught_as_structure(self):
        sched = make_schedule()
        bad = mutate(sched)
        stage = bad.stages[0]
        extra = min(
            set(range(sched.num_qubits)) - stage.global_qubits
        )
        bad.stages[0].global_qubits = stage.global_qubits | {extra}
        report = verify_schedule(bad)
        assert "structure" in report.categories(), report.format()
        assert not report.passed

    # -- mutation 11: global qubit that does not exist (structure) ------
    def test_out_of_range_global_qubit_caught_as_structure(self):
        sched = make_schedule()
        assert len(sched.stages) >= 2, "need a swap into the bad set"
        bad = mutate(sched)
        globals_ = bad.stages[1].global_qubits
        bad.stages[1].global_qubits = (globals_ - {max(globals_)}) | {
            sched.num_qubits
        }
        report = verify_schedule(bad)
        assert "structure" in report.categories(), report.format()
        assert any("out-of-range" in f.message for f in report.errors)


class TestCommPlanMutations:
    # -- mutation 12: stats that double-count bytes ---------------------
    def test_inflated_comm_stats_caught_as_byte_conservation(self):
        sched = make_schedule()
        from repro.distributed import DistributedSimulator

        state = DistributedSimulator(
            sched.num_qubits, sched.local_qubits
        ).run_schedule(sched).state
        shard_bytes = state.storage.shard_bytes
        assert check_comm_stats(sched, state.stats, shard_bytes).clean
        state.stats.bytes_on_network += 4096  # a retry double-counted
        report = check_comm_stats(sched, state.stats, shard_bytes)
        assert "byte-conservation" in report.categories(), report.format()
        assert not report.passed


class TestMutationCoverageBar:
    def test_at_least_eight_distinct_mutations(self):
        """Meta-test pinning the acceptance bar: >= 8 distinct corruption
        tests exist across the two mutation suites."""
        mutation_tests = [
            name
            for cls in (TestScheduleMutations, TestCommPlanMutations)
            for name in vars(cls)
            if name.startswith("test_")
        ]
        assert len(mutation_tests) >= 8, mutation_tests
