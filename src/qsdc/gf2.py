"""GF(2) linear algebra on bit-packed rows: Gauss-Jordan reduction,
inversion, random invertible matrices and the row-select product.

A matrix is PackedRows, its rows packed eight bits to a byte; addition
is XOR.  An elimination step finds its pivot in one byte column and
XORs whole packed rows.  The one product the package needs is x @ M,
the XOR of the rows of M that x selects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# random_invertible's draws before it gives up; all 64 fail with
# probability about 0.711^64, or 3e-10
MAX_INVERTIBLE_DRAWS = 64


@dataclass(frozen=True, eq=False)
class PackedRows:
    """A GF(2) matrix M stored as its rows packed eight bits to a byte."""

    rows: np.ndarray
    n_cols: int

    @classmethod
    def pack(cls, mat: np.ndarray) -> PackedRows:
        return cls(np.packbits(mat, axis=1), mat.shape[1])

    def unpack(self) -> np.ndarray:
        return np.unpackbits(self.rows, axis=1, count=self.n_cols)

    def transpose(self) -> PackedRows:
        """M.T, unpacking only 64 rows of M at a time."""
        n_rows = self.rows.shape[0]
        out = np.empty((self.n_cols, (n_rows + 7) // 8), dtype=np.uint8)
        for start in range(0, n_rows, 64):
            block = np.unpackbits(self.rows[start : start + 64], axis=1, count=self.n_cols)
            out[:, start // 8 : (start + len(block) + 7) // 8] = np.packbits(block.T, axis=1)
        return PackedRows(out, n_rows)

    def left_mul(self, x: np.ndarray) -> np.ndarray:
        """x @ M over GF(2) for one vector x: the XOR of the rows of M that
        the 1-bits of x select."""
        select = (np.asarray(x) & 1).astype(bool)
        return np.unpackbits(np.bitwise_xor.reduce(self.rows[select], axis=0), count=self.n_cols)


def _gauss_jordan(a: np.ndarray, n_cols: int) -> np.ndarray:
    """Reduce packed rows a in place over their first n_cols columns and
    return the pivots."""
    pivots = []
    for c in range(n_cols):
        if (r := len(pivots)) == a.shape[0]:
            break
        # every row holding bit c; the pivot is the first at or below row r
        holders = (a[:, c >> 3] & (0x80 >> (c & 7))).nonzero()[0]
        i = holders.searchsorted(r)
        if i == holders.size:
            continue
        p = int(holders[i])
        pivot = a[p].copy()
        a[holders] ^= pivot  # clears row p too; the swap refills it
        a[p] = a[r]
        a[r] = pivot
        pivots.append(c)
    return np.array(pivots, dtype=np.int64)


def row_reduce(mat: PackedRows) -> tuple[PackedRows, np.ndarray]:
    """Reduced row echelon form and pivot columns; the rank is len(pivots)."""
    a = mat.rows.copy()
    return PackedRows(a, mat.n_cols), _gauss_jordan(a, mat.n_cols)


def _invert(mat: PackedRows, eye: np.ndarray) -> PackedRows:
    """Inverse of a square mat, given the packed identity of its size, so
    that a caller inverting many matrices packs it once; raises ValueError
    if mat is singular."""
    n, width = mat.n_cols, mat.rows.shape[1]
    aug = np.concatenate([mat.rows, eye], axis=1)
    if _gauss_jordan(aug, n).size < n:
        raise ValueError("matrix is singular over GF(2)")
    return PackedRows(aug[:, width:].copy(), n)


def random_invertible(n: int, rng: np.random.Generator) -> tuple[PackedRows, PackedRows]:
    """A uniformly random invertible GF(2) matrix and its inverse, as packed rows.

    By rejection: a uniform binary matrix is invertible with probability ~0.289."""
    eye = PackedRows.pack(np.eye(n, dtype=np.uint8)).rows
    for _ in range(MAX_INVERTIBLE_DRAWS):
        m = PackedRows.pack(rng.integers(0, 2, size=(n, n), dtype=np.uint8))
        try:
            return m, _invert(m, eye)
        except ValueError:
            continue
    raise RuntimeError(f"no invertible matrix found in {MAX_INVERTIBLE_DRAWS} draws")
