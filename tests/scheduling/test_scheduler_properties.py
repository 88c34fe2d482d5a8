"""Property-based tests: the scheduler is correct on arbitrary circuits.

The paper notes its optimizations "are general and can be applied to any
quantum circuit".  These tests hold it to that: random brickwork
circuits, random gate soups and local-interaction ansätze must all
schedule into valid programs that execute to the exact reference state.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import (
    Circuit,
    hardware_efficient_ansatz,
    random_brickwork_circuit,
)
from repro.distributed import DistributedSimulator
from repro.plan import PlanConfig
from repro.scheduling import ClusterOp, SchedulerConfig, schedule_circuit
from repro.staticcheck import verify_schedule
from repro.statevector import Simulator

from tests.conftest import random_circuit


class TestSchedulerOnArbitraryCircuits:
    @settings(max_examples=10, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(6, 9),
        st.integers(10, 30),
        st.booleans(),
    )
    def test_random_soups(self, seed, n, num_gates, unfused):
        circ = random_circuit(n, num_gates, seed=seed)
        l = max(4, n - 3)  # config rejects kmax=4 > local_qubits
        ref = Simulator(n).run(circ).state
        sched = schedule_circuit(
            circ,
            SchedulerConfig(
                local_qubits=l,
                kmax=4,
                seed=seed,
                skip_initial_hadamards=False,
            ),
        )
        sched.validate()
        run = DistributedSimulator(n, l).run_schedule(
            sched, plan_config=PlanConfig(fusion_kmax=0) if unfused else None
        )
        assert run.state.to_statevector().allclose(ref, atol=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 8))
    def test_brickwork(self, seed, depth):
        n, l = 8, 6
        circ = random_brickwork_circuit(n, depth, seed=seed)
        ref = Simulator(n).run(circ).state
        sched = schedule_circuit(
            circ,
            SchedulerConfig(local_qubits=l, seed=seed, skip_initial_hadamards=False),
        )
        sched.validate()
        run = DistributedSimulator(n, l).run_schedule(sched)
        assert run.state.to_statevector().allclose(ref, atol=1e-9)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_ansatz(self, seed):
        n, l = 9, 6
        circ = hardware_efficient_ansatz(n, 4, seed=seed)
        ref = Simulator(n).run(circ).state
        sched = schedule_circuit(
            circ,
            SchedulerConfig(local_qubits=l, seed=seed, skip_initial_hadamards=False),
        )
        run = DistributedSimulator(n, l).run_schedule(sched)
        assert run.state.to_statevector().allclose(ref, atol=1e-9)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000), st.integers(3, 5))
    def test_swap_counts_never_exceed_baseline(self, seed, kmax):
        """The scheduler can never need more communication steps than
        per-gate execution (it can always fall back to it)."""
        from repro.scheduling import baseline_global_gates

        n, l = 10, 7
        circ = random_circuit(n, 25, seed=seed)
        sched = schedule_circuit(
            circ,
            SchedulerConfig(
                local_qubits=l, kmax=kmax, seed=seed, skip_initial_hadamards=False
            ),
        )
        base = baseline_global_gates(circ, l, worst_case=True)
        assert sched.num_swaps <= max(base.global_gates, 1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 10_000),
        st.integers(4, 11),
        st.integers(1, 60),
        st.integers(2, 5),
        st.data(),
    )
    def test_schedule_laws(self, seed, n, num_gates, kmax, data):
        """Every gate scheduled exactly once, per-qubit order kept,
        clusters within kmax, static checker clean — for any split."""
        kmax = min(kmax, n)
        l = data.draw(st.integers(max(kmax, (n + 1) // 2), n), label="l")
        circ = random_circuit(n, num_gates, seed=seed)
        sched = schedule_circuit(
            circ,
            SchedulerConfig(
                local_qubits=l, kmax=kmax, seed=seed,
                skip_initial_hadamards=False,
            ),
        )
        scheduled = sched.scheduled_gates()
        assert Counter(map(id, scheduled)) == Counter(map(id, circ.gates))
        assert circ.same_qubit_order_preserved(Circuit(n, scheduled))
        assert all(
            op.num_qubits <= kmax
            for stage in sched.stages for op in stage.ops
            if isinstance(op, ClusterOp)
        )
        report = verify_schedule(sched)
        assert report.clean, report.format()
