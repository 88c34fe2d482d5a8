"""Tests for repro.util.bits."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import (
    bit_length_of_power_of_two,
    clear_bits,
    expand_index,
    extract_bits,
    insert_zero_bits,
    is_power_of_two,
    permuted_indices,
    scatter_bits,
    set_bits,
)


class TestIsPowerOfTwo:
    def test_powers(self):
        for e in range(20):
            assert is_power_of_two(1 << e)

    def test_non_powers(self):
        for v in (0, -1, -2, 3, 5, 6, 7, 9, 12, 1000):
            assert not is_power_of_two(v)

    def test_bit_length(self):
        assert bit_length_of_power_of_two(1) == 0
        assert bit_length_of_power_of_two(1024) == 10

    def test_bit_length_rejects_non_power(self):
        with pytest.raises(ValueError):
            bit_length_of_power_of_two(3)


class TestExtractScatter:
    def test_extract_scalar(self):
        # index 0b1101, positions [0, 2, 3] -> bits 1,1,1 = 0b111
        assert extract_bits(0b1101, [0, 2, 3]) == 0b111
        assert extract_bits(0b1101, [1]) == 0

    def test_extract_respects_position_order(self):
        # positions reversed changes which result bit gets which source bit
        assert extract_bits(0b01, [0, 1]) == 0b01
        assert extract_bits(0b01, [1, 0]) == 0b10

    def test_scatter_scalar(self):
        assert scatter_bits(0b11, [1, 3]) == 0b1010
        assert scatter_bits(0b01, [4]) == 0b10000

    def test_vectorised(self):
        idx = np.arange(16)
        compact = extract_bits(idx, [1, 3])
        expected = ((idx >> 1) & 1) | (((idx >> 3) & 1) << 1)
        assert np.array_equal(compact, expected)

    @given(st.integers(0, 2**16 - 1), st.permutations(range(6)))
    def test_scatter_extract_roundtrip(self, value, positions):
        compact = value & 0b111111
        assert extract_bits(scatter_bits(compact, positions), positions) == compact

    @given(st.integers(0, 12).flatmap(lambda w: st.permutations(range(w))))
    def test_permuted_indices_is_scatter_bits(self, positions):
        """The transposed ``arange`` spreads bits as ``scatter_bits`` does."""
        want = scatter_bits(np.arange(1 << len(positions), dtype=np.intp), positions)
        got = permuted_indices(positions)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestInsertExpand:
    def test_insert_zero_bits(self):
        # c = 0b11, insert zeros at positions 0 and 2 -> 0b1010
        assert insert_zero_bits(0b11, [0, 2]) == 0b1010

    def test_insert_at_high_position(self):
        assert insert_zero_bits(0b1, [4]) == 0b1  # bit 0 stays, zero at 4

    def test_expand_index_combines(self):
        # positions (2, 0): x bit0 -> position 2, x bit1 -> position 0
        full = expand_index(0b1, 0b01, (2, 0))
        # c=1 fills the non-target bits (positions {1} then upward)
        assert (full >> 2) & 1 == 1
        assert full & 1 == 0

    def test_expand_enumerates_disjoint_indices(self):
        n, positions = 6, (4, 1)
        seen = set()
        for c in range(1 << (n - 2)):
            for x in range(4):
                seen.add(int(expand_index(c, x, positions)))
        assert seen == set(range(1 << n))

    @given(
        st.integers(0, 255),
        st.integers(0, 3),
        st.permutations(range(5)).map(lambda p: tuple(p[:2])),
    )
    def test_expand_extract_consistent(self, c, x, positions):
        full = expand_index(c, x, positions)
        assert extract_bits(full, list(positions)) == x


class TestSetClear:
    def test_set_bits(self):
        assert set_bits(0, [0, 3]) == 0b1001

    def test_clear_bits(self):
        assert clear_bits(0b1111, [1, 2]) == 0b1001

    def test_vectorised_set_clear(self):
        idx = np.arange(8)
        assert np.array_equal(clear_bits(set_bits(idx, [5]), [5]), clear_bits(idx, [5]))
