"""Dense GF(2) linear algebra on uint8 arrays: row reduction, inversion,
random invertible matrices and packed-row products.

Matrices hold 0/1 values in uint8; addition is XOR.  Sizes here stay
in the low thousands, so row-vectorised Gauss-Jordan is plenty fast.
A matrix applied once per block is packed eight bits to a byte
(PackedRows), so its product with a vector is the XOR of the rows the
vector selects; that is the only product the package needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class PackedRows:
    """A GF(2) matrix M stored as its rows packed eight bits to a byte."""

    rows: np.ndarray
    n_cols: int

    @classmethod
    def pack(cls, mat: np.ndarray) -> PackedRows:
        return cls(np.packbits(mat, axis=1), mat.shape[1])

    def left_mul(self, x: np.ndarray) -> np.ndarray:
        """x @ M over GF(2): the XOR of the rows of M that the 1-bits of x select.

        x may be a single vector or a batch of them along leading axes.
        """
        x = np.asarray(x)
        select = (x.reshape(-1, x.shape[-1]) & 1).astype(bool)
        out = np.empty((select.shape[0], self.rows.shape[1]), dtype=np.uint8)
        for i, sel in enumerate(select):
            out[i] = np.bitwise_xor.reduce(self.rows[sel], axis=0)
        bits = np.unpackbits(out, axis=1, count=self.n_cols)
        return bits.reshape(x.shape[:-1] + (self.n_cols,))


def gf2_row_reduce(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Gauss-Jordan elimination.

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
    """Inverse of a square GF(2) matrix; raises ValueError if singular."""
    n = mat.shape[0]
    if mat.shape != (n, n):
        raise ValueError(f"matrix must be square, got {mat.shape}")
    aug = np.concatenate([mat.astype(np.uint8), np.eye(n, dtype=np.uint8)], axis=1)
    reduced, pivots, rank = gf2_row_reduce(aug)
    if rank < n or not np.array_equal(pivots[:n], np.arange(n)):
        raise ValueError("matrix is singular over GF(2)")
    return reduced[:, n:]


def random_invertible(n: int, rng: np.random.Generator, max_attempts: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Draw a uniformly random invertible GF(2) matrix with its inverse.

    Rejection sampling; a uniform binary matrix is invertible with
    probability ~0.289, so the attempt bound is generous.
    """
    for _ in range(max_attempts):
        m = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        try:
            return m, gf2_invert(m)
        except ValueError:
            continue
    raise RuntimeError(f"no invertible matrix found in {max_attempts} draws")
