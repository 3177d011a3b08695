"""GF(2) linear algebra on packed rows, against dense reference routines."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsdc.gf2 import PackedRows, random_invertible, row_reduce
from reference_functions import invert


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product over GF(2), the reference for the packed products."""
    return (a.astype(np.int64) @ b.astype(np.int64) % 2).astype(np.uint8)


def gf2_row_reduce(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense Gauss-Jordan elimination, the reference for row_reduce.

    Returns (reduced matrix, pivot column indices, rank).  The reduced
    matrix has an identity on the pivot columns of its first `rank`
    rows.
    """
    a = np.array(mat, dtype=np.uint8, copy=True)
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0:
            continue
        p = r + int(hits[0])
        if p != r:
            a[[r, p]] = a[[p, r]]
        mask = a[:, c].astype(bool)
        mask[r] = False
        a[mask] ^= a[r]
        pivots.append(c)
        r += 1
    return a, np.array(pivots, dtype=np.int64), r


def gf2_invert(mat: np.ndarray) -> np.ndarray:
    """Dense inverse of a square GF(2) matrix; raises ValueError if singular."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError(f"matrix must be square, got {mat.shape}")
    aug = np.concatenate([mat.astype(np.uint8), np.eye(n, dtype=np.uint8)], axis=1)
    reduced, pivots, rank = gf2_row_reduce(aug)
    if rank < n or not np.array_equal(pivots[:n], np.arange(n)):
        raise ValueError("matrix is singular over GF(2)")
    return reduced[:, n:]


def gf2_rank(mat: np.ndarray) -> int:
    return gf2_row_reduce(mat)[2]


def _dense_random_invertible(n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The draws random_invertible makes, inverted densely."""
    while True:
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        try:
            return m, gf2_invert(m)
        except ValueError:
            continue


def test_matmul_matches_numpy_oracle(rng):
    for _ in range(20):
        a = rng.integers(0, 2, (17, 23), dtype=np.uint8)
        b = rng.integers(0, 2, (23, 9), dtype=np.uint8)
        expected = (a.astype(int) @ b.astype(int)) % 2
        assert (gf2_matmul(a, b) == expected).all()


def test_rank_identity_and_zero():
    assert gf2_rank(np.eye(8, dtype=np.uint8)) == 8
    assert gf2_rank(np.zeros((4, 6), dtype=np.uint8)) == 0
    assert row_reduce(PackedRows.pack(np.eye(8, dtype=np.uint8)))[1].size == 8
    assert row_reduce(PackedRows.pack(np.zeros((4, 6), dtype=np.uint8)))[1].size == 0


def test_row_reduce_idempotent(rng):
    m = rng.integers(0, 2, (12, 20), dtype=np.uint8)
    red, pivots = row_reduce(PackedRows.pack(m))
    red2, pivots2 = row_reduce(red)
    assert (red.rows == red2.rows).all()
    assert np.array_equal(pivots, pivots2)
    # pivot columns are unit vectors
    dense = red.unpack()
    for i, c in enumerate(pivots):
        col = dense[:, c]
        assert col[i] == 1 and col.sum() == 1


@st.composite
def _matrices(draw):
    """Random 0/1 matrices of any width, including rank-deficient and all-zero ones."""
    n_rows = draw(st.integers(1, 20))
    n_cols = draw(st.integers(1, 27))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    m = (rng.random((n_rows, n_cols)) < density).astype(np.uint8)
    if draw(st.booleans()) and n_rows > 1:
        m[-1] = m[0] ^ m[n_rows // 2]  # a dependent row
    return m


@settings(max_examples=200, deadline=None)
@given(_matrices())
# column 1 holds a bit only above its pivot row: no pivot there
@example(np.array([[1, 1], [0, 0]], dtype=np.uint8))
# column 0 has its pivot in row 0 and a bit in row 1 (p == r)
@example(np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8))
# column 1's pivot is row 2, below r = 1, with a bit above (p != r)
@example(np.array([[1, 1, 0], [1, 1, 0], [0, 1, 1]], dtype=np.uint8))
# a sole holder below r: a swap with nothing to eliminate
@example(np.array([[0, 1], [1, 0]], dtype=np.uint8))
def test_packed_row_reduce_matches_dense_oracle(m):
    want, want_pivots, want_rank = gf2_row_reduce(m)
    red, pivots = row_reduce(PackedRows.pack(m))
    assert red.unpack().shape == m.shape
    assert (red.unpack() == want).all()
    assert np.array_equal(pivots, want_pivots)
    assert pivots.size == want_rank


@pytest.mark.parametrize("n_rows", [1, 5, 9])
def test_packed_row_reduce_one_column_and_zero(n_rows):
    for m in (
        np.zeros((n_rows, 1), dtype=np.uint8),
        np.ones((n_rows, 1), dtype=np.uint8),
        np.zeros((n_rows, 13), dtype=np.uint8),
    ):
        want, want_pivots, _ = gf2_row_reduce(m)
        red, pivots = row_reduce(PackedRows.pack(m))
        assert (red.unpack() == want).all()
        assert np.array_equal(pivots, want_pivots)


def test_invert_roundtrip(rng):
    for n in (1, 2, 5, 16, 33):
        m, m_inv = random_invertible(n, rng)
        m, m_inv = m.unpack(), m_inv.unpack()
        eye = np.eye(n, dtype=np.uint8)
        assert (gf2_matmul(m, m_inv) == eye).all()
        assert (gf2_matmul(m_inv, m) == eye).all()
        assert (gf2_invert(m) == m_inv).all()


def test_invert_singular_raises():
    singular = np.array([[1, 1], [1, 1]], dtype=np.uint8)
    for mat in (singular, np.zeros((3, 3), dtype=np.uint8)):
        with pytest.raises(ValueError):
            gf2_invert(mat)
        with pytest.raises(ValueError):
            invert(PackedRows.pack(mat))
    with pytest.raises(ValueError):
        invert(PackedRows.pack(np.ones((2, 3), dtype=np.uint8)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**40))
def test_invert_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 24))
    m, m_inv = random_invertible(n, rng)
    assert (gf2_matmul(m.unpack(), m_inv.unpack()) == np.eye(n, dtype=np.uint8)).all()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**40))
def test_random_invertible_matches_dense_draw(n, seed):
    m, m_inv = random_invertible(n, np.random.default_rng(seed))
    want, want_inv = _dense_random_invertible(n, np.random.default_rng(seed))
    assert m.rows.shape[0] == m_inv.rows.shape[0] == m.n_cols == m_inv.n_cols == n
    assert (m.unpack() == want).all()
    assert (m_inv.unpack() == want_inv).all()


@settings(max_examples=50, deadline=None)
@given(_matrices())
def test_transpose_matches_dense(m):
    t = PackedRows.pack(m).transpose()
    assert t.unpack().shape == m.T.shape
    assert (t.rows == np.packbits(m.T, axis=1)).all()


def test_transpose_spans_several_blocks(rng):
    m = rng.integers(0, 2, (150, 70), dtype=np.uint8)
    assert (PackedRows.pack(m).transpose().unpack() == m.T).all()


def test_rank_of_product_bounded(rng):
    a = rng.integers(0, 2, (10, 14), dtype=np.uint8)
    b = rng.integers(0, 2, (14, 10), dtype=np.uint8)
    assert gf2_rank(gf2_matmul(a, b)) <= min(gf2_rank(a), gf2_rank(b))
