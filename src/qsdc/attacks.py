"""Eavesdropping models applied to the forward pulse stream.

Intercept-resend is simulated pulse by pulse.  The optimal collective
attack is not simulated at the quantum level; it is realised as the
classical disturbance channel matching its (e_x, e_z) fingerprint;
the send report gives Eve's analytic bound, i_ae at those rates.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from qsdc.security import ErrorRates
from qsdc.states import measure_codes


class AttackKind(enum.Enum):
    NONE = "none"
    INTERCEPT_RESEND = "intercept-resend"
    OPTIMAL_COLLECTIVE = "collective"


@dataclass(frozen=True)
class AttackModel:
    """Configured attack on the Bob-to-Alice path."""

    kind: AttackKind = AttackKind.NONE
    fraction: float = 0.0
    e_x_target: float = 0.0
    e_z_target: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")
        # the targets are check rates, so ErrorRates checks them
        ErrorRates(e_x=self.e_x_target, e_z=self.e_z_target, e=0.0)

    @classmethod
    def none(cls) -> "AttackModel":
        return cls()

    @classmethod
    def intercept_resend(cls, fraction: float) -> "AttackModel":
        return cls(kind=AttackKind.INTERCEPT_RESEND, fraction=fraction)

    @classmethod
    def optimal_collective(cls, e_x_target: float, e_z_target: float) -> "AttackModel":
        return cls(
            kind=AttackKind.OPTIMAL_COLLECTIVE,
            e_x_target=e_x_target,
            e_z_target=e_z_target,
        )

    def apply(self, codes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Transform the pulse stream; returns the wire codes."""
        if self.kind == AttackKind.NONE:
            return codes
        if self.kind == AttackKind.INTERCEPT_RESEND:
            return eve_intercept_resend(codes, self.fraction, rng)[0]
        return eve_optimal_collective(codes, self.e_x_target, self.e_z_target, rng)


def eve_intercept_resend(
    codes: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure a fraction of pulses in random bases and resend eigenstates.

    Returns (wire codes, Eve's guessed bits for the touched pulses,
    touched mask).  An intercepted pulse measured in the preparation
    basis is resent unchanged; in the conjugate basis the outcome is
    uniform and the resent eigenstate disturbs later checks with
    probability 1/4.
    """
    n = codes.shape[0]
    touched = rng.random(n) < fraction
    wire = codes.copy()
    idx = np.nonzero(touched)[0]
    bases = rng.integers(0, 2, size=idx.size, dtype=np.uint8)
    outcomes = measure_codes(codes[idx], bases, rng)
    wire[idx] = (bases << 1) | outcomes
    return wire, outcomes, touched


def eve_optimal_collective(
    codes: np.ndarray, e_x_target: float, e_z_target: float, rng: np.random.Generator
) -> np.ndarray:
    """Classical stand-in for the collective attack: basis-dependent flips.

    Z-prepared pulses are flipped with probability e_z_target and
    X-prepared pulses with e_x_target, reproducing the attack's check
    statistics exactly (up to sampling noise).  Returns the wire codes.
    """
    basis = codes >> 1
    p_flip = np.where(basis == 0, e_z_target, e_x_target)
    flips = (rng.random(codes.shape[0]) < p_flip).astype(np.uint8)
    return codes ^ flips
