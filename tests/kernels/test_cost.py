"""Tests for kernel cost accounting."""

import pytest

from repro.kernels import KernelCostModel, kernel_cost


class TestKernelCost:
    def test_single_call(self):
        cost = kernel_cost(10, 1)
        assert cost.flops == 14 * 1024
        assert cost.bytes == 32 * 1024

    def test_diagonal_cheaper(self):
        assert kernel_cost(10, 2, diagonal=True).flops < kernel_cost(10, 2).flops


class TestKernelCostModel:
    def test_record_accumulates(self):
        m = KernelCostModel()
        m.record(10, 1)
        m.record(10, 4)
        assert m.total_calls == 2
        assert m.calls_by_k == {1: 1, 4: 1}
        assert m.total_flops == kernel_cost(10, 1).flops + kernel_cost(10, 4).flops

    def test_diagonal_counter(self):
        m = KernelCostModel()
        m.record(8, 2, diagonal=True)
        assert m.diagonal_calls == 1

    def test_intensity(self):
        m = KernelCostModel()
        m.record(10, 1)
        assert m.intensity == pytest.approx(14 / 32)

    def test_intensity_empty(self):
        assert KernelCostModel().intensity == 0.0

    def test_gflops(self):
        m = KernelCostModel()
        m.record(10, 1)
        assert m.gflops(1.0) == pytest.approx(14 * 1024 / 1e9)
        with pytest.raises(ValueError):
            m.gflops(0.0)
