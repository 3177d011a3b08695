"""Argument-checking forms of runtime kernels, kept as test references.

The runtime calls only the private kernels: `qsdc.security` checks its
rates once, in `ErrorRates`, and q_bob and g once in `half_bias_capacity`
and `secrecy_capacity`, and `qsdc.gf2` inverts only through
`random_invertible`.  The tests reach the same kernels through the
functions below, which first check each argument and name it in the
error; rates are checked through `ErrorRates`.

The rate functions take the bias p (and binary_entropy its argument)
as a scalar or an array, as the kernels do.
"""

from __future__ import annotations

import numpy as np

from qsdc.gf2 import PackedRows, _invert
from qsdc.security import (
    ErrorRates,
    _contrast,
    _entropy,
    _eve_information,
    _is_scalar,
    _main_information,
    _xi,
)


def _check_unit(name: str, v: float | np.ndarray) -> None:
    # the comparisons are written so that NaN fails them too
    inside = 0.0 <= v <= 1.0 if _is_scalar(v) else np.all((0.0 <= v) & (v <= 1.0))
    if not inside:
        raise ValueError(f"{name} must be in [0, 1], got {v}")


def binary_entropy(x: float | np.ndarray) -> float | np.ndarray:
    """Shannon entropy of a coin with bias x, in bits; x may be an array.

    A Python or numpy scalar or a 0-d array takes the math.log2 path and
    returns a float, so scalar results do not depend on which vectorised
    log2 numpy was built with; an array of one or more dimensions takes
    the numpy path and returns an array.
    """
    _check_unit("binary_entropy argument", x)
    return _entropy(x)


def xi(p: float | np.ndarray, e_x: float, e_z: float) -> float | np.ndarray:
    """Effective bias of Eve's optimal measurement on her ancilla.

    xi = (1 - sqrt((1-2p)^2 + (1-2e_x-2e_z)^2 (1 - (1-2p)^2))) / 2

    At p = 0.5 the radical collapses to |1 - 2(e_x+e_z)| and xi equals
    e_x + e_z; that case is evaluated directly so the cancellation is
    exact in floating point at the hardware operating point.  p may be
    an array.
    """
    _check_unit("p", p)
    ErrorRates(e_x=e_x, e_z=e_z, e=0.0)
    return _xi(p, _contrast(p), e_x + e_z)


def eve_information(q_eve: float, p: float | np.ndarray, rates: ErrorRates) -> float | np.ndarray:
    """Upper bound on Eve's information per pulse, q_eve * h(xi)."""
    if not 0.0 <= q_eve <= 1.0:
        raise ValueError(f"q_eve must be in [0, 1], got {q_eve}")
    _check_unit("p", p)
    return _eve_information(q_eve, p, _contrast(p), rates.e_x + rates.e_z)


def main_information(q_bob: float, p: float | np.ndarray, e: float) -> float | np.ndarray:
    """Alice-to-Bob mutual information per pulse.

    Bob sees Alice's bit through a BSC(e); with encoding bias p the
    output bias is p + e - 2pe, so I = q_bob * (h(p + e - 2pe) - h(e)).
    p may be an array.
    """
    _check_unit("q_bob", q_bob)
    _check_unit("p", p)
    ErrorRates(e_x=0.0, e_z=0.0, e=e)
    return _main_information(q_bob, p, e, _entropy(e))


def invert(mat: PackedRows) -> PackedRows:
    """Inverse of a square GF(2) matrix; raises ValueError if singular."""
    n = mat.n_cols
    if mat.rows.shape[0] != n:
        raise ValueError(f"matrix must be square, got {mat.rows.shape[0]} x {n}")
    return _invert(mat, PackedRows.pack(np.eye(n, dtype=np.uint8)).rows)
