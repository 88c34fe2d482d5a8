"""Tests for the full scheduling pipeline."""

import pytest

from repro.circuit import Circuit, generate_supremacy_circuit
from repro.gates import Gate
from repro.scheduling import SchedulerConfig, schedule_circuit


class TestPipeline:
    def test_basic_schedule_valid(self):
        circ = generate_supremacy_circuit(12, 10, seed=0)
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=8, seed=1))
        sched.validate()
        assert sched.num_swaps >= 1
        assert sched.kmax == 5

    def test_hadamard_stripping(self):
        circ = generate_supremacy_circuit(9, 6, seed=0)
        sched = schedule_circuit(
            circ, SchedulerConfig(local_qubits=6, skip_initial_hadamards=True)
        )
        assert sched.initial_state == "plus"
        assert len(sched.circuit) == len(circ) - 9

    def test_hadamard_stripping_disabled(self):
        circ = generate_supremacy_circuit(9, 6, seed=0)
        sched = schedule_circuit(
            circ, SchedulerConfig(local_qubits=6, skip_initial_hadamards=False)
        )
        assert sched.initial_state == "zero"
        assert len(sched.circuit) == len(circ)

    def test_no_hadamard_layer_left_untouched(self):
        circ = Circuit(3, [Gate("t", (0,)), Gate("cz", (0, 1))])
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=3, kmax=3))
        assert sched.initial_state == "zero"
        assert len(sched.circuit) == 2

    def test_partial_h_layer_not_stripped(self):
        circ = Circuit(3, [Gate("h", (0,)), Gate("h", (0,)), Gate("h", (2,))])
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=3, kmax=3))
        assert sched.initial_state == "zero"

    def test_single_node_schedule(self):
        circ = generate_supremacy_circuit(9, 8, seed=2)
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=9))
        assert sched.num_swaps == 0
        assert len(sched.stages) == 1

    def test_local_qubits_larger_than_circuit_rejected(self):
        circ = generate_supremacy_circuit(9, 8, seed=2)
        with pytest.raises(ValueError, match="local_qubits=30 exceeds"):
            schedule_circuit(circ, SchedulerConfig(local_qubits=30))

    def test_config_rejects_kmax_over_local_qubits(self):
        with pytest.raises(ValueError, match="kmax=5 exceeds"):
            SchedulerConfig(local_qubits=3)
        with pytest.raises(ValueError, match="kmax=6 exceeds"):
            SchedulerConfig(local_qubits=5, kmax=6)

    def test_config_rejects_nonpositive_knobs(self):
        with pytest.raises(ValueError, match="local_qubits must be >= 1"):
            SchedulerConfig(local_qubits=0)
        with pytest.raises(ValueError, match="kmax must be >= 1"):
            SchedulerConfig(local_qubits=4, kmax=0)

    @pytest.mark.parametrize(
        "field", ["seed", "stage_restarts", "neighbor_samples", "cluster_trials"]
    )
    def test_config_rejects_negative_search_effort(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
            SchedulerConfig(local_qubits=8, kmax=4, **{field: -1})

    def test_more_restarts_than_qubits(self):
        """Restarts beyond the qubit count cap the random BFS roots at
        the qubit count instead of over-drawing from them."""
        circ = generate_supremacy_circuit(12, 10, seed=0)
        sched = schedule_circuit(
            circ, SchedulerConfig(local_qubits=8, kmax=4, stage_restarts=40)
        )
        sched.validate()
        assert sched.num_swaps >= 1

    def test_config_with_validates_too(self):
        cfg = SchedulerConfig(local_qubits=8, kmax=4)
        with pytest.raises(ValueError, match="kmax=9 exceeds"):
            cfg.with_(kmax=9)

    def test_swap_adjustment_not_worse(self):
        circ = generate_supremacy_circuit(16, 12, seed=3)
        base_cfg = SchedulerConfig(local_qubits=11, kmax=4, seed=2, adjust_swaps=False)
        adj_cfg = base_cfg.with_(adjust_swaps=True)
        base = schedule_circuit(circ, base_cfg)
        adjusted = schedule_circuit(circ, adj_cfg)
        assert adjusted.num_swaps == base.num_swaps
        assert adjusted.num_clusters <= base.num_clusters
        adjusted.validate()

    def test_kmax_flows_through(self):
        circ = generate_supremacy_circuit(12, 8, seed=1)
        for kmax in (3, 5):
            sched = schedule_circuit(circ, SchedulerConfig(local_qubits=9, kmax=kmax))
            assert max(sched.cluster_sizes()) <= kmax

    def test_drop_final_diagonals(self):
        import numpy as np

        from repro.distributed import DistributedSimulator
        from repro.statevector import Simulator

        n, l = 10, 7
        circ = generate_supremacy_circuit(n, 10, seed=4)
        full = schedule_circuit(circ, SchedulerConfig(local_qubits=l, seed=1))
        cut = schedule_circuit(
            circ, SchedulerConfig(local_qubits=l, seed=1, drop_final_diagonals=True)
        )
        assert len(cut.circuit) < len(full.circuit)
        ref = Simulator(n).run(circ).state
        run = DistributedSimulator(n, l).run_schedule(cut)
        # Amplitudes differ (phases dropped) but probabilities are exact.
        probs = run.state.to_statevector().probabilities()
        assert np.allclose(probs, ref.probabilities(), atol=1e-10)

    def test_config_with(self):
        cfg = SchedulerConfig(local_qubits=10)
        cfg2 = cfg.with_(kmax=3)
        assert cfg2.kmax == 3 and cfg2.local_qubits == 10
        assert cfg.kmax == 5  # frozen original unchanged

    def test_deterministic(self):
        circ = generate_supremacy_circuit(12, 8, seed=5)
        cfg = SchedulerConfig(local_qubits=8, seed=9)
        a = schedule_circuit(circ, cfg)
        b = schedule_circuit(circ, cfg)
        assert a.summary() == b.summary()
        assert a.scheduled_gates() == b.scheduled_gates()


@pytest.mark.slow
class TestPaperNumbers:
    def test_table1_cluster_counts_30q(self):
        """Table 1, 30-qubit row: 82/46/36 clusters for kmax 3/4/5.
        Our search lands within ~15% (exact counts depend on the private
        instances); the monotone trend must hold exactly."""
        circ = generate_supremacy_circuit(30, 25, seed=0)
        paper = {3: 82, 4: 46, 5: 36}
        counts = {}
        for kmax, expected in paper.items():
            sched = schedule_circuit(
                circ, SchedulerConfig(local_qubits=30, kmax=kmax, seed=1)
            )
            counts[kmax] = sched.num_clusters
            assert abs(sched.num_clusters - expected) / expected < 0.25, (
                kmax,
                sched.num_clusters,
            )
        assert counts[3] > counts[4] > counts[5]

    def test_gates_per_cluster_exceeds_kmax(self):
        """Table 1's text claim: more than kmax gates merge per cluster."""
        circ = generate_supremacy_circuit(30, 25, seed=0)
        sched = schedule_circuit(circ, SchedulerConfig(local_qubits=30, kmax=5, seed=1))
        assert sched.gates_per_cluster() > 5
