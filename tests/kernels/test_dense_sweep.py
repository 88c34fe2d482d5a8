"""Property tests for the table-free dense sweep (``DenseSweep``).

Both address schemes of the sweep — strided slabs (including slabs with
runs of one or two amplitudes) and the periodic window with its
bottom-contiguous shortcut — are checked against the
extended-precision oracle (small n) and the tensordot kernel (n <= 16), over
gate widths 1..8, every blocking regime, both complex dtypes, a memmap
shard and non-sorted qubit orders.  Block-diagonal gates run as blocks
over their controls; those are checked over every control placement.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gates import Gate, random_unitary
from repro.kernels import (
    DEFAULT_CHUNK,
    DenseSweep,
    apply_gate_indexed,
    apply_gate_reference,
    chunk_for,
)
from repro.kernels.apply import (
    _REAL_GEMM_MAX_QUBITS,
    _WINDOW_MAX_BITS,
    _real_gemm_operand,
    _window_index,
)
from repro.kernels.blocks import BlockGate, control_bits
from repro.util.rng import random_statevector
from tests.conftest import assert_oracle, oracle_state

N = 16

#: Representatives of every position class at n = 16: gates whose highest
#: target is below bit 12 go through the window, the others through slabs.
POSITION_CLASSES = {
    "bottom-contiguous": (0, 1, 2, 3),
    "bottom-contiguous-unsorted": (2, 0, 3, 1),
    "all-high": (9, 12, 13, 15),
    "all-high-unsorted": (13, 9, 15, 12),
    "low-scattered": (2, 4, 5, 8),
    "low-scattered-unsorted": (8, 2, 5, 4),
    "mixed-low-high": (1, 2, 13, 14),
    "mixed-low-high-unsorted": (14, 1, 13, 2),
    "mixed-bit0-high": (14, 15, 0),
    "window-absorbs-mid": (3, 8, 9, 6, 1),
    "top-bit": (15,),
    "bit-0": (0,),
    "mid-bit": (5,),
    "window-edge": (1, 3, 5, 6, 11),
    "just-above-window": (1, 3, 5, 6, 12),
    "adjacent-high": (7, 8),
}


def _chunks(n: int, k: int) -> list[int | None]:
    total = 1 << (n - k)
    return [1, 3, max(1, total // 2 - 1), total, 4 * total, None]


def _random_state(n: int, seed: int, dtype=np.complex128) -> np.ndarray:
    return random_statevector(n, seed).astype(dtype)


class TestAgainstReference:
    @pytest.mark.parametrize("name", POSITION_CLASSES)
    def test_position_classes_all_blockings(self, name):
        qubits = POSITION_CLASSES[name]
        u = random_unitary(len(qubits), 7)
        s0 = _random_state(N, 3)
        expected = s0.copy()
        apply_gate_reference(expected, u, qubits)
        for chunk in _chunks(N, len(qubits)):
            out = s0.copy()
            apply_gate_indexed(out, u, qubits, chunk_size=chunk)
            assert np.allclose(out, expected, atol=1e-12), (name, chunk)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_every_width(self, k):
        rng = np.random.default_rng(k)
        for trial in range(4):
            qubits = tuple(int(q) for q in rng.permutation(N)[:k])
            u = random_unitary(k, rng)
            s0 = _random_state(N, trial)
            expected = s0.copy()
            apply_gate_reference(expected, u, qubits)
            out = s0.copy()
            apply_gate_indexed(out, u, qubits, chunk_size=64)
            assert np.allclose(out, expected, atol=1e-12), qubits

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_gate_on_every_qubit(self, n):
        """k = n: the c index is empty; one matrix-vector product."""
        for qubits in (tuple(range(n)), tuple(reversed(range(n)))):
            u = random_unitary(n, n)
            s0 = _random_state(n, 1)
            expected = s0.copy()
            apply_gate_reference(expected, u, qubits)
            for chunk in (1, None):
                out = s0.copy()
                apply_gate_indexed(out, u, qubits, chunk_size=chunk)
                assert np.allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("name", POSITION_CLASSES)
    def test_complex64(self, name):
        qubits = POSITION_CLASSES[name]
        u = random_unitary(len(qubits), 2)
        s0 = _random_state(N, 5, np.complex64)
        expected = s0.astype(np.complex128)
        apply_gate_reference(expected, u, qubits)
        out = s0.copy()
        apply_gate_indexed(out, u, qubits, chunk_size=256)
        assert out.dtype == np.complex64
        assert np.allclose(out, expected, atol=1e-5)

    @pytest.mark.parametrize(
        "name", ["all-high", "low-scattered", "mixed-low-high", "bottom-contiguous"]
    )
    def test_memmap_shard(self, name, tmp_path):
        qubits = POSITION_CLASSES[name]
        u = random_unitary(len(qubits), 4)
        s0 = _random_state(N, 9)
        expected = s0.copy()
        apply_gate_reference(expected, u, qubits)
        path = tmp_path / "shard.bin"
        shard = np.memmap(path, dtype=np.complex128, mode="w+", shape=(1 << N,))
        shard[:] = s0
        apply_gate_indexed(shard, u, qubits, chunk_size=128)
        shard.flush()
        on_disk = np.fromfile(path, dtype=np.complex128)
        assert np.allclose(on_disk, expected, atol=1e-12)


@st.composite
def _small_cases(draw):
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, min(3, n)))
    qubits = tuple(draw(st.permutations(range(n)))[:k])
    chunk = draw(st.sampled_from([1, 3, 5, 1 << n, None]))
    seed = draw(st.integers(0, 10_000))
    return n, qubits, chunk, seed


class TestAgainstNaive:
    """Against the naive two-vector kernel of Sec. 3.1 in extended
    precision (the oracle)."""

    @settings(max_examples=40, deadline=None)
    @given(_small_cases())
    def test_matches_the_oracle(self, case):
        n, qubits, chunk, seed = case
        u = random_unitary(len(qubits), seed)
        s0 = _random_state(n, seed)
        oracle = oracle_state([Gate("u", qubits, u)], n, s0)
        out = s0.copy()
        apply_gate_indexed(out, u, qubits, chunk_size=chunk)
        assert_oracle(out, oracle, 1)


class TestDescriptor:
    def test_one_descriptor_serves_many_shards(self):
        qubits = (1, 2, 13, 14)
        u = random_unitary(4, 0)
        run = DenseSweep(N, u, qubits, np.complex128, 256).bind()
        for seed in range(3):
            s0 = _random_state(N, seed)
            once = s0.copy()
            apply_gate_indexed(once, u, qubits, chunk_size=256)
            assert np.array_equal(run(s0.copy()), once)

    def test_block_ranges_partition_the_sweep(self):
        qubits = (9, 12, 13, 15)
        u = random_unitary(4, 1)
        sweep = DenseSweep(N, u, qubits, np.complex128, 64)
        assert sweep.num_blocks == (1 << (N - 4)) // 64
        s0 = _random_state(N, 2)
        whole = sweep.apply(s0.copy())
        pieces = s0.copy()
        half = sweep.num_blocks // 2
        sweep.apply(pieces, half, None)
        sweep.apply(pieces, 0, half)
        assert np.array_equal(pieces, whole)

    def test_window_index_is_a_small_permutation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = int(rng.integers(1, _WINDOW_MAX_BITS + 1))
            k = int(rng.integers(1, min(8, w) + 1))
            pos = sorted(int(q) for q in rng.permutation(w)[:k])
            index = _window_index(pos, w)
            assert index.shape == (1 << w,)
            assert np.array_equal(np.sort(index), np.arange(1 << w))
            # Row c of the gathered window holds the 2**k amplitudes whose
            # non-target bits spell c, target bits counting up.
            rows = index.reshape(-1, 1 << k)
            mask = sum(1 << p for p in pos)
            assert np.all((rows & ~mask) == (rows[:, :1] & ~mask))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_real_gemm_operand_is_the_complex_product(self, k):
        """The paper's (mR, mR) / (-mI, mI) pre-computation: one real
        GEMM over the float view gives the complex panel product."""
        rng = np.random.default_rng(k)
        m = random_unitary(k, k)
        panel = rng.standard_normal((5, 2 << k)).view(np.complex128)
        real = panel.view(np.float64) @ _real_gemm_operand(m)
        assert np.allclose(real.view(np.complex128), panel @ m, atol=1e-12)

    def test_default_chunk_keeps_the_panel_size(self):
        assert chunk_for(4) == DEFAULT_CHUNK == 1024
        assert [chunk_for(k) for k in (1, 2, 8)] == [8192, 4096, 64]
        for qubits in ((14,), (1, 2, 13, 14), tuple(range(10, 16))):
            k = len(qubits)
            u = random_unitary(k, k)
            default = DenseSweep(N, u, qubits, np.complex128)
            pinned = DenseSweep(N, u, qubits, np.complex128, chunk_for(k))
            assert default.num_blocks == pinned.num_blocks
            assert default.num_blocks == (1 << (N - k)) // chunk_for(k)

    def test_matrix_shape_validated(self):
        with pytest.raises(ValueError, match="does not act on"):
            DenseSweep(6, np.eye(4), (1,), np.complex128)

    def test_qubits_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            DenseSweep(3, np.eye(2), (3,), np.complex128)


def _block_gate(k, controls, rng):
    """A random k-bit gate block-diagonal in the gate bits *controls*."""
    m = k - len(controls)
    blocks = np.stack([random_unitary(m, rng) for _ in range(1 << len(controls))])
    return BlockGate(k, tuple(sorted(controls)), blocks)


#: Control placements at n = 16: (qubits, gate bits that are controls).
#: The window reaches the highest gate bit below 12; the slab block's
#: contiguous run is its lowest non-target bits.
CONTROL_PLACEMENTS = {
    "below-window": ((0, 1, 5, 9), (0, 1)),
    "inside-window": ((2, 4, 7, 10), (1, 2)),
    "window-all-but-top": ((3, 5, 6, 11), (0, 1, 2)),
    "above-window": ((1, 3, 12, 15), (2, 3)),
    "window-and-above": ((2, 6, 9, 14), (0, 3)),
    "inside-slab-run": ((0, 2, 13, 14), (0, 1)),
    "above-slab-run": ((1, 12, 13, 15), (1, 3)),
    "slab-mixed": ((3, 8, 12, 15, 14, 0), (0, 1, 4)),
    "crowded-window": ((0, 1, 2, 3), (0, 1, 2)),
    "control-at-bit-0": ((0, 13), (0,)),
    "all-controls": ((4, 9, 14), (0, 1, 2)),
}


class TestBlockGates:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("name", CONTROL_PLACEMENTS)
    def test_placements_against_reference(self, name, dtype):
        qubits, controls = CONTROL_PLACEMENTS[name]
        gate = _block_gate(len(qubits), controls, np.random.default_rng(7))
        s0 = _random_state(N, 3, dtype)
        expected = s0.astype(np.complex128)
        apply_gate_reference(expected, gate.dense(), qubits)
        atol = 1e-12 if dtype == np.complex128 else 1e-5
        for chunk in _chunks(N, len(qubits) - len(controls)):
            for source in (gate, gate.dense()):
                out = s0.copy()
                DenseSweep(N, source, qubits, dtype, chunk).apply(out)
                assert np.allclose(out, expected, atol=atol), (name, chunk)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_every_width_and_control_count(self, k):
        rng = np.random.default_rng(k)
        for d in range(k + 1):
            qubits = tuple(int(q) for q in rng.permutation(N)[:k])
            controls = tuple(int(j) for j in rng.permutation(k)[:d])
            gate = _block_gate(k, controls, rng)
            s0 = _random_state(N, d)
            expected = s0.copy()
            apply_gate_reference(expected, gate.dense(), qubits)
            out = s0.copy()
            DenseSweep(N, gate, qubits, np.complex128, 64).apply(out)
            assert np.allclose(out, expected, atol=1e-12), (qubits, controls)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_apply_to_a_gate_sized_vector(self, k):
        """The sweep over a vector no larger than its gate (how a product
        write runs an op on a factor) is the dense matrix times the
        vector, for every control count."""
        rng = np.random.default_rng(k)
        for d in range(k + 1):
            controls = tuple(int(j) for j in rng.permutation(k)[:d])
            gate = _block_gate(k, controls, rng)
            vector = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
            swept = DenseSweep(k, gate, range(k), np.complex128).apply(
                vector.copy()
            )
            assert np.allclose(swept, gate.dense() @ vector, atol=1e-12)

    @pytest.mark.parametrize("name", ["inside-window", "slab-mixed", "above-slab-run"])
    def test_block_ranges_partition_the_sweep(self, name):
        qubits, controls = CONTROL_PLACEMENTS[name]
        gate = _block_gate(len(qubits), controls, np.random.default_rng(2))
        sweep = DenseSweep(N, gate, qubits, np.complex128, 16)
        s0 = _random_state(N, 4)
        whole = sweep.apply(s0.copy())
        pieces = s0.copy()
        third = sweep.num_blocks // 3
        for start, stop in ((third, 2 * third), (2 * third, None), (0, third)):
            sweep.apply(pieces, start, stop)
        assert np.array_equal(pieces, whole)

    def test_controls_are_found_exactly(self):
        rng = np.random.default_rng(0)
        for k in range(1, 7):
            for d in range(k + 1):
                controls = tuple(sorted(int(j) for j in rng.permutation(k)[:d]))
                gate = _block_gate(k, controls, rng)
                matrix = gate.dense()
                assert control_bits(matrix) == controls
                again = BlockGate.of(matrix)
                assert again.controls == controls
                assert np.array_equal(again.dense(), matrix)

    def test_dense_width_and_controls(self):
        """Every control is kept, in the window or above it; a gate that
        is all controls keeps one target."""
        rng = np.random.default_rng(1)
        for name, (m, d) in (("crowded-window", (1, 3)), ("slab-mixed", (3, 3)),
                             ("all-controls", (1, 2))):
            qubits, controls = CONTROL_PLACEMENTS[name]
            gate = _block_gate(len(qubits), controls, rng)
            sweep = DenseSweep(N, gate, qubits, np.complex128)
            assert (sweep.dense_bits, sweep.controls) == (m, d), name

    def test_window_index_groups_rows_by_control(self):
        pos, controls, w = [1, 4], [0, 6], 8
        index = _window_index(pos, w, controls)
        assert np.array_equal(np.sort(index), np.arange(1 << w))
        # Viewed as (rows, 2**d, 2**k), the middle index spells the
        # controls' values.
        for value in range(4):
            rows = index.reshape(-1, 4, 4)[:, value]
            assert np.all((rows & 1) == (value & 1))
            assert np.all((rows >> 6 & 1) == (value >> 1))


def _rows_times(rows, matrix, out):
    """``out = rows @ matrix.T`` the way the window path multiplies: one
    real GEMM over the float view for small gates (Sec. 3.2), a complex
    GEMM otherwise."""
    if matrix.shape[0] <= 1 << _REAL_GEMM_MAX_QUBITS:
        real = rows.real.dtype
        np.matmul(rows.view(real), _real_gemm_operand(matrix.T), out=out.view(real))
    else:
        np.matmul(rows, matrix.T, out=out)


def _window_loop(shard, gate, qubits, pieces):
    """The window path as one GEMM per control value: each of *pieces*
    equal blocks of *shard* is taken through the in-window index, every
    ``panel[:, c]`` is multiplied by block ``c`` on its own, and the
    inverse take writes back.  *qubits* ascend, so gate bit order is
    position order."""
    pos = [qubits[j] for j in gate.targets]
    ctl = [qubits[j] for j in gate.controls]
    m, d = len(pos), len(ctl)
    w = 1 + max(pos + ctl)
    index = _window_index(pos, w, ctl)
    inverse = np.argsort(index)
    blocks = gate.blocks.astype(shard.dtype)
    for piece in shard.reshape(pieces, -1, 1 << w):
        panel = piece.take(index, axis=-1).reshape(-1, 1 << d, 1 << m)
        product = np.empty_like(panel)
        for c in range(1 << d):
            _rows_times(panel[:, c], blocks[c], product[:, c])
        piece[...] = product.reshape(piece.shape).take(inverse, axis=-1)
    return shard


def _slab_loop(shard, gate, qubits, pieces):
    """The slab path over the whole shard (one block) as one GEMM per
    control value: the shard transposed to (controls, targets, the
    rest), ``M_c @ panel[c]`` for each value ``c``, and the transpose
    back."""
    assert pieces == 1
    n = shard.size.bit_length() - 1
    pos = [qubits[j] for j in gate.targets]
    ctl = [qubits[j] for j in gate.controls]
    rest = [q for q in range(n) if q not in pos and q not in ctl]
    order = [*reversed(ctl), *reversed(pos), *reversed(rest)]
    view = shard.reshape((2,) * n).transpose([n - 1 - q for q in order])
    panel = view.reshape(1 << len(ctl), 1 << len(pos), -1)
    product = np.empty_like(panel)
    blocks = gate.blocks.astype(shard.dtype)
    for c in range(len(blocks)):
        np.matmul(blocks[c], panel[c], out=product[c])
    view[...] = product.reshape(view.shape)
    return shard


class TestOneGemmPerBlock:
    """The sweep multiplies each block in one stacked matmul; each item
    of the stack is the GEMM a per-control-value loop issues, so the two
    agree bit for bit on every path."""

    n = 13

    def _check(self, gate, qubits, dtype, loop, chunk=None):
        s0 = _random_state(self.n, len(qubits), dtype)
        sweep = DenseSweep(self.n, gate, qubits, dtype, chunk)
        got = sweep.apply(s0.copy())
        want = loop(s0.copy(), gate, qubits, sweep.num_blocks)
        assert np.array_equal(got, want), (qubits, gate.controls)
        expected = s0.astype(np.complex128)
        apply_gate_reference(expected, gate.dense(), qubits)
        atol = 1e-12 if dtype == np.complex128 else 1e-5
        assert np.allclose(got, expected, atol=atol)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("d", range(1, 6))
    def test_in_window_controls(self, d, m, dtype):
        """m <= 3 runs the real GEMM, m >= 4 the complex one."""
        rng = np.random.default_rng(10 * d + m)
        qubits = tuple(sorted(int(q) for q in rng.permutation(_WINDOW_MAX_BITS)[:m + d]))
        controls = tuple(int(j) for j in rng.permutation(m + d)[:d])
        gate = _block_gate(m + d, controls, rng)
        self._check(gate, qubits, dtype, _window_loop)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_bottom_contiguous(self, m, dtype):
        gate = _block_gate(m, (), np.random.default_rng(m))
        self._check(gate, tuple(range(m)), dtype, _window_loop)

    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("d", range(4))
    def test_slab(self, d, dtype):
        """One block over the whole shard: every control is a batch axis
        (batch 0 without controls)."""
        rng = np.random.default_rng(d)
        qubits = (1, 4, 7, 12)[3 - d:] + tuple(range(8, 8 + d))
        qubits = tuple(sorted(qubits))
        controls = tuple(j for j, q in enumerate(qubits) if 8 <= q < 8 + d)
        gate = _block_gate(len(qubits), controls, rng)
        self._check(gate, qubits, dtype, _slab_loop, chunk=1 << self.n)

    @pytest.mark.parametrize(
        "qubits, controls",
        [((0, 1, 2), ()), ((2, 4, 7, 10), (1, 2)), ((1, 12), ()),
         ((1, 3, 12, 15), (2, 3)), ((2, 6, 9, 14), (0, 3))],
    )
    def test_one_matmul_per_block(self, qubits, controls, monkeypatch):
        """Bottom-contiguous, windowed and slab sweeps, with in-block and
        looped controls: ``np.matmul`` runs once per block."""
        gate = _block_gate(len(qubits), controls, np.random.default_rng(0))
        sweep = DenseSweep(N, gate, qubits, np.complex128, 64)
        calls = []
        matmul = np.matmul

        def counted(*args, **kwargs):
            calls.append(1)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        sweep.apply(_random_state(N, 0))
        assert len(calls) == sweep.num_blocks > 1
