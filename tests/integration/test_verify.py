"""Tests for the cross-validation harness."""

import numpy as np
import pytest

from repro.circuit import generate_supremacy_circuit
from repro.statevector import StateVector
from repro.util.rng import random_statevector
from repro.verify import compare_states, cross_validate, spot_check_amplitudes


class TestCompareStates:
    def test_identical_states(self):
        sv = StateVector(6, random_statevector(6, 0))
        report = compare_states(sv, sv.copy())
        assert report.max_abs_deviation == 0.0
        assert report.fidelity == pytest.approx(1.0)
        assert report.ok()

    def test_detects_single_amplitude_corruption(self):
        a = StateVector(6, random_statevector(6, 1))
        b = a.copy()
        b.data[37] += 1e-6
        report = compare_states(a, b)
        assert report.worst_index == 37
        assert report.max_abs_deviation == pytest.approx(1e-6)
        assert not report.ok(atol=1e-9)
        assert report.ok(atol=1e-5)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compare_states(StateVector(3), StateVector(4))

    def test_str(self):
        report = compare_states(StateVector(3), StateVector(3))
        assert "fidelity" in str(report)


class TestSpotCheck:
    def test_subset_comparison(self):
        a = StateVector(10, random_statevector(10, 2))
        report = spot_check_amplitudes(a, a.copy(), samples=128, seed=0)
        assert report.max_abs_deviation == 0.0
        assert report.compared_amplitudes <= 1 << 10
        assert report.fidelity == pytest.approx(1.0)

    def test_catches_heavy_amplitude_corruption(self):
        """Corrupting the largest amplitude must be caught even by a
        small spot check (top outcomes are always sampled)."""
        a = StateVector(10, random_statevector(10, 3))
        b = a.copy()
        heavy = int(np.argmax(np.abs(b.data)))
        b.data[heavy] *= -1
        report = spot_check_amplitudes(a, b, samples=64, seed=1)
        assert report.max_abs_deviation > 0.01

    def test_small_state_degenerates_gracefully(self):
        a = StateVector(3, random_statevector(3, 4))
        report = spot_check_amplitudes(a, a.copy(), samples=1000)
        assert report.compared_amplitudes <= 8


class TestCrossValidate:
    def test_all_backends_agree(self):
        circ = generate_supremacy_circuit(10, 8, seed=6)
        reports = cross_validate(circ, 7, seed=1)
        assert set(reports) == {
            "distributed-per-gate", "scheduled", "scheduled-unfused",
        }
        for report in reports.values():
            assert report.ok(atol=1e-9)
