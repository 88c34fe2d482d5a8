"""Fusion v2 tests: cluster refusion, PlanConfig keying, composition.

Covers the pass-pipeline refactor's new surface:

* the frozen :class:`~repro.plan.PlanConfig` as the *single* memoization
  key (regression for an old key that left the fusion width out and
  silently collided plans differing in it);
* fused-vs-unfused execution equivalence over 20 seeds, fingerprint
  determinism per config, and ``ExecutionTrace.signature()`` parity —
  fused kernels emit one (zero-length) trace event per original
  schedule op;
* monotonicity of the fusion-depth sweep;
* pipeline / checkpoint / sanitize layer composition over fused
  programs.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.circuit import generate_supremacy_circuit
from repro.distributed import DistributedState
from repro.plan import DEFAULT_FUSION_KMAX, PlanConfig, compile_program, plan_for
from repro.runtime import (
    CheckpointLayer,
    ExecutionEngine,
    PipelineLayer,
    SanitizerLayer,
)
from repro.scheduling import SchedulerConfig, schedule_circuit
from repro.service.cache import PlanCache
from repro.service.jobs import JobSpec
from repro.staticcheck import ShardSanitizer
from repro.telemetry import Telemetry

_N, _L = 8, 5

_FUSED = PlanConfig(fusion_kmax=6)
_UNFUSED = PlanConfig(fusion_kmax=0)


def _case(seed, *, depth=8):
    circuit = generate_supremacy_circuit(_N, depth, seed=seed)
    schedule = schedule_circuit(
        circuit, SchedulerConfig(local_qubits=_L, kmax=3, seed=seed + 1)
    )
    return circuit, schedule


def _state_for(schedule, *, telemetry=None):
    return DistributedState(
        _N,
        _L,
        init=getattr(schedule, "initial_state", "zero"),
        initial_global_qubits=schedule.initial_global_qubits or None,
        telemetry=telemetry,
    )


def _fusion_friendly_schedule():
    """Dense 2q runs on one local window, clustered small (kmax=2)."""
    from repro.circuit import Circuit
    from repro.gates.gate import Gate

    rng = np.random.default_rng(3)
    circuit = Circuit(_N)
    for step in range(2):
        for a, b in ((0, 1), (1, 2), (2, 3), (0, 2)):
            m = np.linalg.qr(
                rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            )[0]
            circuit.append(Gate(f"u2_{step}_{a}_{b}", (a, b), m))
    return schedule_circuit(
        circuit, SchedulerConfig(local_qubits=6, kmax=2, seed=1)
    )


def _fingerprint(state) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(state.to_statevector().data).tobytes()
    ).hexdigest()


class TestPlanConfigKey:
    def test_every_option_participates_in_the_key(self):
        """Regression: an old cache key left the fusion width out, so
        plans compiled under different widths collided."""
        _, schedule = _case(0)
        base = plan_for(schedule, PlanConfig())
        assert plan_for(schedule, PlanConfig()) is base
        plans = {id(base)}
        for kmax in (0, 4, 6):
            assert kmax != DEFAULT_FUSION_KMAX
            plans.add(id(plan_for(schedule, PlanConfig(fusion_kmax=kmax))))
        assert len(plans) == 4

    def test_equal_configs_share_one_plan(self):
        _, schedule = _case(1)
        assert plan_for(schedule, PlanConfig(fusion_kmax=2)) is plan_for(
            schedule, PlanConfig(fusion_kmax=2)
        )
        assert plan_for(schedule) is plan_for(
            schedule, PlanConfig(fusion_kmax=DEFAULT_FUSION_KMAX)
        )

    def test_plan_compiled_under_its_config(self):
        _, schedule = _case(2)
        plan = compile_program(schedule, PlanConfig(fusion_kmax=0))
        assert plan.config.fusion_kmax == 0
        assert plan.counts["fused_kernel_ops"] == 0
        assert plan.counts["refused_away_ops"] == 0

    def test_service_plan_cache_keys_on_config(self):
        circuit, _ = _case(3)
        spec = JobSpec(tenant="t", circuit=circuit, local_qubits=_L, kmax=3)
        cache = PlanCache(capacity=8)
        a = cache.get(spec, _FUSED)
        b = cache.get(spec, _UNFUSED)
        assert a is not b
        assert cache.get(spec, _FUSED) is a
        assert cache.get(spec) is cache.get(spec, PlanConfig())
        # Two distinct configs always miss separately; a None config is
        # keyed exactly like an explicit default PlanConfig().
        assert cache.misses >= 2
        assert cache.hits >= 2

    def test_invalid_config_type_rejected(self):
        _, schedule = _case(4)
        with pytest.raises(TypeError):
            compile_program(schedule, {"fusion_kmax": 4})


class TestFusedVsUnfused:
    @pytest.mark.parametrize("seed", range(20))
    def test_state_and_trace_parity(self, seed):
        _, schedule = _case(seed)
        fused_plan = plan_for(schedule, _FUSED)
        unfused_plan = plan_for(schedule, _UNFUSED)

        tel_f, tel_u = Telemetry.enabled(), Telemetry.enabled()
        sf, su = _state_for(schedule), _state_for(schedule)
        trace_f = fused_plan.execute(sf, telemetry=tel_f)
        trace_u = unfused_plan.execute(su, telemetry=tel_u)

        # Same physics (refusion reassociates matmuls: allclose).
        assert np.allclose(
            sf.to_statevector().data, su.to_statevector().data, atol=1e-10
        )
        # Same-config reruns are deterministic to the bit.
        sf2 = _state_for(schedule)
        fused_plan.execute(sf2)
        assert _fingerprint(sf) == _fingerprint(sf2)

        # One trace event per original schedule op, fused or not: the
        # members of a fused group surface as zero-length source events.
        assert trace_f.signature() == trace_u.signature()

    def test_fused_groups_emit_one_event_per_source(self):
        # A workload the cost model is guaranteed to refuse: runs of
        # dense 2-qubit gates on one overlapping window, clustered at
        # kmax=2 so only refusion can merge them.
        schedule = _fusion_friendly_schedule()
        plan = plan_for(schedule, _FUSED)
        assert plan.counts["fused_kernel_ops"] > 0
        assert plan.counts["refused_away_ops"] > 0
        telemetry = Telemetry.enabled()
        trace = plan.execute(
            DistributedState(
                schedule.num_qubits,
                schedule.local_qubits,
                init=getattr(schedule, "initial_state", "zero"),
                initial_global_qubits=schedule.initial_global_qubits or None,
                telemetry=telemetry,
            ),
            telemetry=telemetry,
        )
        assert len(trace.events) == plan.num_source_ops


class TestFusionDepthSweep:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_plan_ops_monotone_nonincreasing_in_kmax(self, seed):
        _, schedule = _case(seed)
        op_counts, refused = [], []
        for kmax in (0, 2, 3, 4, 5, 6, 7, 8):
            plan = plan_for(schedule, PlanConfig(fusion_kmax=kmax))
            op_counts.append(len(plan.ops))
            refused.append(plan.counts["refused_away_ops"])
        assert op_counts == sorted(op_counts, reverse=True)
        assert refused == sorted(refused)


class TestFusedComposition:
    @pytest.fixture()
    def schedule(self):
        return _case(11)[0:2][1]

    @pytest.fixture()
    def reference(self, schedule):
        state = _state_for(schedule)
        plan_for(schedule, _UNFUSED).execute(state)
        return state.to_statevector().data

    def _run(self, schedule, layers, telemetry=None):
        engine = ExecutionEngine(
            schedule, plan_config=_FUSED, layers=layers, telemetry=telemetry
        )
        return engine.run()

    def test_pipeline_layer_over_fused_program(self, schedule, reference):
        layer = PipelineLayer(depth=2)
        result = self._run(schedule, [layer])
        assert np.allclose(
            result.state.to_statevector().data, reference, atol=1e-10
        )

    def test_checkpoint_layer_over_fused_program(
        self, schedule, reference, tmp_path
    ):
        result = self._run(
            schedule, [CheckpointLayer(tmp_path / "ckpt", every=3)]
        )
        assert np.allclose(
            result.state.to_statevector().data, reference, atol=1e-10
        )

    def test_sanitize_and_trace_over_fused_program(
        self, schedule, reference
    ):
        result = self._run(
            schedule,
            [SanitizerLayer(ShardSanitizer())],
            telemetry=Telemetry.enabled(),
        )
        assert np.allclose(
            result.state.to_statevector().data, reference, atol=1e-10
        )
        assert result.trace is not None
        # Parity with an untraced unfused run's event stream length.
        assert len(result.trace.events) == plan_for(
            schedule, _FUSED
        ).num_source_ops
