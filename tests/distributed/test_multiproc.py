"""Tests for the process-parallel schedule runner."""

import threading
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.circuit import Circuit, generate_supremacy_circuit
from repro.distributed import DistributedSimulator, DistributedState
from repro.distributed import multiproc
from repro.distributed.multiproc import MultiprocessRunner
from repro.gates import Gate
from repro.scheduling import GateOp, Schedule, SchedulerConfig, Stage, schedule_circuit
from repro.scheduling.program import ClusterOp
from repro.statevector import Simulator


class TestMultiprocessRunner:
    @pytest.mark.parametrize("n,l,absorb", [(10, 7, False), (11, 8, True)])
    def test_matches_reference(self, n, l, absorb):
        circ = generate_supremacy_circuit(n, 10, seed=3)
        ref = Simulator(n).run(circ).state
        sched = schedule_circuit(
            circ,
            SchedulerConfig(local_qubits=l, kmax=4, seed=1, absorb_diagonals=absorb),
        )
        got = MultiprocessRunner(n, l).run_schedule(sched)
        assert got.allclose(ref, atol=1e-9)

    def test_handcrafted_monomial_gateop(self):
        """Exercise the shard-movement path: an X on a global qubit."""
        n, l = 6, 4
        gates = [Gate("h", (0,)), Gate("x", (5,)), Gate("cz", (0, 5))]
        circ = Circuit(n, gates)
        sched = Schedule(
            circuit=circ,
            local_qubits=l,
            stages=[
                Stage(
                    global_qubits=frozenset({4, 5}),
                    ops=[
                        ClusterOp(qubits=(0,), gates=(gates[0],)),
                        GateOp(gates[1]),
                        GateOp(gates[2]),
                    ],
                )
            ],
        )
        sched.validate()
        ref = Simulator(n).run(circ).state
        got = MultiprocessRunner(n, l).run_schedule(sched)
        assert got.allclose(ref, atol=1e-12)

    def test_plus_init(self):
        n, l = 9, 6
        circ = generate_supremacy_circuit(n, 8, seed=7)
        sched = schedule_circuit(
            circ, SchedulerConfig(local_qubits=l, skip_initial_hadamards=True, seed=0)
        )
        assert sched.initial_state == "plus"
        ref = Simulator(n).run(circ).state
        got = MultiprocessRunner(n, l).run_schedule(sched)
        assert got.allclose(ref, atol=1e-9)

    def test_split_mismatch(self):
        circ = generate_supremacy_circuit(9, 6, seed=0)
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=6, seed=0))
        with pytest.raises(ValueError, match="split"):
            MultiprocessRunner(9, 7).run_schedule(sched)

    def test_invalid_split(self):
        with pytest.raises(ValueError):
            MultiprocessRunner(4, 0)


def _supremacy(n, l, depth, seed):
    circ = generate_supremacy_circuit(n, depth, seed=seed)
    return schedule_circuit(circ, SchedulerConfig(local_qubits=l, seed=seed))


def _renumbering_swaps():
    """Hand-built: two swaps, the second with a non-trivial renumbering
    (qubit 4 must move from global bit 1 down to global bit 0)."""
    n, l = 6, 4
    h = [Gate("h", (q,)) for q in range(n)]
    stages = [
        Stage(frozenset({4, 5}), [ClusterOp(qubits=(0, 1), gates=(h[0], h[1]))]),
        Stage(frozenset({0, 4}), [ClusterOp(qubits=(5, 2), gates=(h[5], h[2]))]),
        Stage(frozenset({0, 3}), [ClusterOp(qubits=(4, 1), gates=(h[4], h[1]))]),
    ]
    gates = [g for stage in stages for op in stage.ops for g in op.gates]
    sched = Schedule(circuit=Circuit(n, gates), local_qubits=l, stages=stages)
    sched.validate()
    return sched


_SCHEDULES = {
    "supremacy-10-7": lambda: schedule_circuit(
        generate_supremacy_circuit(10, 8, seed=5),
        SchedulerConfig(local_qubits=7, seed=2),
    ),
    "supremacy-absorbed-11-8": lambda: schedule_circuit(
        generate_supremacy_circuit(11, 10, seed=3),
        SchedulerConfig(local_qubits=8, kmax=4, seed=1, absorb_diagonals=True),
    ),
    "renumbering-swaps-6-4": _renumbering_swaps,
}


class TestSameEngine:
    """Workers run the in-process engine: equal bits, equal counters."""

    @pytest.mark.parametrize("workers", [1, 2, None], ids=["1", "2", "ranks"])
    @pytest.mark.parametrize("name", _SCHEDULES)
    def test_bit_identical_to_in_process(self, monkeypatch, name, workers):
        sched = _SCHEDULES[name]()
        n, l = sched.num_qubits, sched.local_qubits
        monkeypatch.setattr(
            multiproc, "_worker_count", lambda ranks: workers or ranks
        )
        want = DistributedSimulator(n, l).run_schedule(sched)
        runner = MultiprocessRunner(n, l)
        got = runner.run_schedule(sched)
        assert np.array_equal(got.data, want.state.to_statevector().data)
        for counter in (
            "alltoall_steps", "group_alltoall_calls", "bytes_on_network",
            "rank_renumberings", "local_swap_kernels",
        ):
            assert getattr(runner.stats, counter) == getattr(want.comm, counter)

    def test_renumbering_schedule_is_non_trivial(self):
        sched = _renumbering_swaps()
        comm = DistributedSimulator(6, 4).run_schedule(sched).comm
        assert comm.alltoall_steps == 2 and comm.rank_renumberings >= 1

    def test_256_ranks(self):
        n, l = 16, 8
        sched = _supremacy(n, l, 8, 1)
        want = DistributedSimulator(n, l).run_schedule(sched)
        got = MultiprocessRunner(n, l).run_schedule(sched)
        assert np.array_equal(got.data, want.state.to_statevector().data)

    def test_one_state_sized_block(self, monkeypatch):
        created = []
        real = shared_memory.SharedMemory

        def spy(*args, **kwargs):
            if kwargs.get("create"):
                created.append(kwargs["size"])
            return real(*args, **kwargs)

        monkeypatch.setattr(multiproc.shared_memory, "SharedMemory", spy)
        n, l = 10, 7
        MultiprocessRunner(n, l).run_schedule(_supremacy(n, l, 8, 5))
        assert created == [(1 << n) * 16]


class TestWorkerFailure:
    def test_failing_worker_fails_the_run(self, monkeypatch):
        """A worker that raises must abort its peers, not strand them in a
        barrier: the run reports the failing rank block within seconds."""
        real = DistributedState._apply_local

        def fail_off_rank_zero(self, *args, **kwargs):
            if 0 not in self.storage.local_ranks:
                raise ArithmeticError("injected kernel failure")
            return real(self, *args, **kwargs)

        # fork: the workers inherit the patched class.
        monkeypatch.setattr(DistributedState, "_apply_local", fail_off_rank_zero)
        monkeypatch.setattr(multiproc, "_worker_count", lambda ranks: 2)
        n, l = 10, 7
        sched = _supremacy(n, l, 8, 5)
        outcome = []

        def run():
            try:
                MultiprocessRunner(n, l).run_schedule(sched)
            except BaseException as exc:
                outcome.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive(), "run_schedule hung on a failed worker"
        assert len(outcome) == 1 and isinstance(outcome[0], RuntimeError)
        message = str(outcome[0])
        assert "worker 1 (ranks 4..7)" in message
        assert "injected kernel failure" in message
