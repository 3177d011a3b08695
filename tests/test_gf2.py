"""Dense GF(2) linear algebra."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsdc.gf2 import gf2_invert, gf2_row_reduce, random_invertible


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2), the reference for the packed products."""
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def gf2_rank(mat: np.ndarray) -> int:
    return gf2_row_reduce(mat)[2]


def test_matmul_matches_numpy_oracle(rng):
    for _ in range(20):
        a = rng.integers(0, 2, (17, 23), dtype=np.uint8)
        b = rng.integers(0, 2, (23, 9), dtype=np.uint8)
        expected = (a.astype(int) @ b.astype(int)) % 2
        assert (gf2_matmul(a, b) == expected).all()


def test_rank_identity_and_zero():
    assert gf2_rank(np.eye(8, dtype=np.uint8)) == 8
    assert gf2_rank(np.zeros((4, 6), dtype=np.uint8)) == 0


def test_row_reduce_idempotent(rng):
    m = rng.integers(0, 2, (12, 20), dtype=np.uint8)
    red, pivots, rank = gf2_row_reduce(m)
    red2, pivots2, rank2 = gf2_row_reduce(red)
    assert (red == red2).all() and rank == rank2
    assert np.array_equal(pivots, pivots2)
    # pivot columns are unit vectors
    for i, c in enumerate(pivots):
        col = red[:, c]
        assert col[i] == 1 and col.sum() == 1


def test_invert_roundtrip(rng):
    for n in (1, 2, 5, 16, 33):
        m, m_inv = random_invertible(n, rng)
        eye = np.eye(n, dtype=np.uint8)
        assert (gf2_matmul(m, m_inv) == eye).all()
        assert (gf2_matmul(m_inv, m) == eye).all()
        assert (gf2_invert(m) == m_inv).all()


def test_invert_singular_raises():
    singular = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(ValueError):
        gf2_invert(singular)
    with pytest.raises(ValueError):
        gf2_invert(np.zeros((3, 3), dtype=np.uint8))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**40))
def test_invert_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 24))
    m, m_inv = random_invertible(n, rng)
    assert (gf2_matmul(m, m_inv) == np.eye(n, dtype=np.uint8)).all()


def test_rank_of_product_bounded(rng):
    a = rng.integers(0, 2, (10, 14), dtype=np.uint8)
    b = rng.integers(0, 2, (14, 10), dtype=np.uint8)
    assert gf2_rank(gf2_matmul(a, b)) <= min(gf2_rank(a), gf2_rank(b))
