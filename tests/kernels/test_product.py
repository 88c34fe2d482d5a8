"""``product_fill``: one pass writes a product of factors on disjoint bits."""

import numpy as np
import pytest

from repro.kernels.product import product_fill


def _explicit(width, factors):
    """The product amplitude by amplitude, one factor at a time."""
    index = np.arange(1 << width)
    out = np.ones(1 << width, dtype=complex)
    for bits, vector in factors:
        entry = np.zeros_like(index)
        for j, b in enumerate(bits):
            entry |= (index >> b & 1) << j
        out *= vector[entry]
    return out


def _random_factors(width, rng, *, widest=8):
    order = [int(b) for b in rng.permutation(width)]
    factors = []
    while order:
        cut = int(rng.integers(1, widest + 1))
        bits, order = order[:cut], order[cut:]
        k = len(bits)
        factors.append(
            (bits, rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k))
        )
    return factors


@pytest.mark.parametrize("seed", range(12))
def test_matches_explicit_product(seed):
    """Widths on both sides of the leaf path (``_LEAF_BITS``, 12 bits),
    so the cut and its recursion run; a bitless factor is a scalar."""
    rng = np.random.default_rng(seed)
    width = int(rng.integers(1, 21))
    factors = _random_factors(width, rng)
    factors.append(([], np.array([0.5 - 0.25j])))
    out = np.full(1 << width, np.nan, dtype=complex)
    product_fill(out, factors)
    np.testing.assert_allclose(out, _explicit(width, factors), rtol=1e-12)


def test_single_precision_output():
    rng = np.random.default_rng(3)
    factors = _random_factors(16, rng, widest=3)
    out = np.empty(1 << 16, dtype=np.complex64)
    product_fill(out, factors)
    np.testing.assert_allclose(out, _explicit(16, factors), rtol=1e-5)


def test_one_factor_over_every_bit():
    """No cut can shrink the work: the leaf path (``_LEAF_BITS``)
    writes it."""
    rng = np.random.default_rng(4)
    order = [int(b) for b in rng.permutation(13)]
    vector = rng.normal(size=1 << 13) + 0j
    out = np.empty(1 << 13, dtype=complex)
    product_fill(out, [(order, vector)])
    np.testing.assert_allclose(out, _explicit(13, [(order, vector)]))


@pytest.mark.parametrize("width", [9, 18])
def test_bits_no_factor_owns_are_ones(width):
    rng = np.random.default_rng(width)
    factors = _random_factors(width, rng, widest=3)[::2]
    out = np.full(1 << width, np.nan, dtype=complex)
    product_fill(out, factors)
    np.testing.assert_allclose(out, _explicit(width, factors), rtol=1e-12)
