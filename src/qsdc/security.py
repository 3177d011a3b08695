"""Wiretap security analysis for the two-way four-state protocol.

Everything here is per-pulse and in bits (base-2 logs throughout).
Eve is granted a collective attack on the forward path, purified so
that her accessible information is bounded by the entropy of the joint
state; the bound reduces to closed forms in the check error rates
(e_x, e_z) measured on the forward path, the message error rate e seen
by Bob, and the detection-rate asymmetry g between Eve and Bob.

The private kernels take the encoding bias p (and the entropy kernel
its argument) as a scalar or an array.  Python and numpy scalars and
0-d arrays are evaluated with math and plain comparisons and give
floats; arrays of one or more dimensions, such as the bias grid of
secrecy_capacity, are evaluated elementwise with numpy.

Each formula (binary entropy, xi, I(A:B) and Eve's bound) has one
private kernel, which checks nothing.  ErrorRates owns the rate
domain, and ErrorRates.capped maps measured rates into it.
secrecy_capacity and half_bias_capacity check q_bob and g once and
then evaluate kernels only, and the search's coarse grid and its
(1 - 2p)^2 term are computed once, at import.  The argument-checking
forms of the four rate functions are test references, kept with the
tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# points of each stage of secrecy_capacity's bias search
GRID_POINTS = 501


@dataclass(frozen=True)
class ErrorRates:
    """Check-phase error rates per basis and the message-phase rate.

    e_x, e_z come from Alice's disclosed check measurements on the
    forward path; e is the rate Bob sees on decoded message chips.
    This is the one check of the domain the closed forms accept: each
    rate in [0, 0.5] and e_x + e_z <= 0.5.
    """

    e_x: float
    e_z: float
    e: float

    def __post_init__(self) -> None:
        # written so that a NaN rate fails the first check
        for name in ("e_x", "e_z", "e"):
            v = getattr(self, name)
            if not 0.0 <= v <= 0.5:
                raise ValueError(f"{name} must be in [0, 0.5], got {v}")
        if self.e_x + self.e_z > 0.5:
            raise ValueError(f"e_x + e_z must be <= 0.5, got {self.e_x}, {self.e_z}")

    @classmethod
    def capped(cls, e_x: float, e_z: float, e: float) -> ErrorRates:
        """Rates, measured ones too, with e_x + e_z and e each capped at 0.5.

        The closed forms read only e and the sum, which goes into e_x, and
        Eve's bound is maximal from a sum of 0.5 on.  A NaN is passed on
        to be rejected; a conditional caps in less time than min().
        """
        s = e_x + e_z
        return cls(e_x=0.5 if s > 0.5 else s, e_z=0.0, e=0.5 if e > 0.5 else e)


@dataclass(frozen=True)
class SecurityEstimate:
    """Per-pulse information rates at the encoding bias p."""

    p: float
    i_ab: float
    i_ae: float
    c_s: float


def _is_scalar(v: float | np.ndarray) -> bool:
    # Python and numpy scalars and 0-d arrays take the math path
    return not isinstance(v, np.ndarray) or v.ndim == 0


def _eve_detection_rate(q_bob: float, g: float) -> float:
    # checks q_bob and g; Eve's detection rate saturates at one pulse
    # per pulse in the low-loss regime.  The checks are written so that
    # NaN fails them too
    if not 0.0 <= q_bob <= 1.0:
        raise ValueError(f"q_bob must be in [0, 1], got {q_bob}")
    if not 0.0 <= g < math.inf:
        raise ValueError(f"g must be in [0, inf), got {g}")
    return min(g * q_bob, 1.0)


def _contrast(p: float | np.ndarray) -> float | np.ndarray:
    """(1 - 2p)^2, the one term of xi that depends on p alone."""
    return (1.0 - 2.0 * p) ** 2


# the first stage of secrecy_capacity's search: [0, 1/2], both ends on it
_COARSE_P = np.linspace(0.0, 0.5, GRID_POINTS)
_COARSE_A = _contrast(_COARSE_P)
_COARSE_P.setflags(write=False)
_COARSE_A.setflags(write=False)


# The kernels below check nothing: their callers have checked the inputs.
# a is always _contrast(p).


def _entropy(x: float | np.ndarray) -> float | np.ndarray:
    if _is_scalar(x):
        x = float(x)
        if x == 0.0 or x == 1.0:
            return 0.0
        return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
    x = np.asarray(x, dtype=float)
    inner = (x > 0.0) & (x < 1.0)
    y = np.where(inner, x, 0.5)
    return np.where(inner, -y * np.log2(y) - (1.0 - y) * np.log2(1.0 - y), 0.0)


def _xi(p: float | np.ndarray, a: float | np.ndarray, s: float) -> float | np.ndarray:
    d = 1.0 - 2.0 * s
    radicand = a + d * d * (1.0 - a)
    if _is_scalar(p):
        return float(s) if p == 0.5 else (1.0 - math.sqrt(radicand)) / 2.0
    return np.where(p == 0.5, s, (1.0 - np.sqrt(radicand)) / 2.0)


def _main_information(q_bob: float, p: float | np.ndarray, e: float, h_e: float) -> float | np.ndarray:
    # h_e is h(e)
    return q_bob * (_entropy(p + e - 2.0 * p * e) - h_e)


def _eve_information(q_eve: float, p: float | np.ndarray, a: float | np.ndarray,
                     s: float) -> float | np.ndarray:
    return q_eve * _entropy(_xi(p, a, s))


def _objective(p: np.ndarray, a: np.ndarray, q_bob: float, q_eve: float, e: float, h_e: float,
               s: float) -> np.ndarray:
    """I(A:B) - I(A:E) at the biases p."""
    return _main_information(q_bob, p, e, h_e) - _eve_information(q_eve, p, a, s)


def half_bias_capacity(rates: ErrorRates, q_bob: float, g: float) -> SecurityEstimate:
    """The rates at the operating bias p = 0.5, where they have closed forms.

    i_ab = q_bob (1 - h(e)) and i_ae = min(g q_bob, 1) h(e_x + e_z).
    The secrecy capacity is the closed form
    c_s = q_bob (1 - h(e) - g h(e_x + e_z)), which does not cap Eve's
    detection rate, so it reads below i_ab - i_ae when g q_bob > 1.  A
    negative c_s is returned as is so callers can log the margin to
    abort.
    """
    q_eve = _eve_detection_rate(q_bob, g)
    s = rates.e_x + rates.e_z
    h_e = _entropy(rates.e)
    h_s = _entropy(s)
    i_ab = _main_information(q_bob, 0.5, rates.e, h_e)
    # Eve's bound at p = 1/2, where xi is e_x + e_z exactly
    i_ae = q_eve * h_s
    c_s = q_bob * (1.0 - h_e - g * h_s)
    return SecurityEstimate(p=0.5, i_ab=i_ab, i_ae=i_ae, c_s=c_s)


def secrecy_capacity(rates: ErrorRates, q_bob: float, g: float) -> SecurityEstimate:
    """Maximise I(A:B) - I(A:E) over the encoding bias p.

    The objective is symmetric under p <-> 1 - p, so only [0, 1/2] is
    searched: first on a uniform grid of GRID_POINTS points (both ends
    on it), then on a second grid of the same size between the best
    point's neighbours; a refined point replaces the first only if it
    is strictly better.  At p = 0 the objective is exactly 0, so an
    insecure point reports c_s = 0 at p = 0.  Returns the rates at the
    maximiser, with c_s = i_ab - i_ae.
    """
    q_eve = _eve_detection_rate(q_bob, g)
    e = rates.e
    s = rates.e_x + rates.e_z
    h_e = _entropy(e)

    grid = _COARSE_P
    best = int(np.argmax(_objective(grid, _COARSE_A, q_bob, q_eve, e, h_e, s)))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, GRID_POINTS - 1)]
    # the coarse best goes first so that it wins ties
    fine = np.concatenate([[grid[best]], np.linspace(lo, hi, GRID_POINTS)])
    p_star = float(fine[np.argmax(_objective(fine, _contrast(fine), q_bob, q_eve, e, h_e, s))])
    i_ab = _main_information(q_bob, p_star, e, h_e)
    i_ae = _eve_information(q_eve, p_star, _contrast(p_star), s)
    return SecurityEstimate(p=p_star, i_ab=i_ab, i_ae=i_ae, c_s=i_ab - i_ae)
