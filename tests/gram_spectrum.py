"""The Gram-spectrum derivation behind security.xi, kept as a test oracle.

Eve's collective attack on the forward path is purified, so her
accessible information is bounded by the entropy of the joint state of
one encoded pulse.  That state's Gram matrix has a closed-form
spectrum; maximised over the overlaps consistent with the observed
(e_x, e_z), its entropy is 1 + h(xi).  The runtime uses only that
closed form; the tests check it against this derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qsdc.security import ErrorRates
from reference_functions import binary_entropy, xi


@dataclass(frozen=True)
class AttackOverlaps:
    """Reduced description of a collective attack on the forward path.

    alpha and beta are the imaginary parts of the ancilla overlaps that
    correlate Eve with the undisturbed states; delta_mag is the modulus
    of the cross-overlap difference.  Only the two combinations
    delta1 = |alpha - beta| and delta2 = sqrt((alpha+beta)^2 + delta^2)
    enter the joint-state spectrum.
    """

    alpha: float
    beta: float
    delta_mag: float

    def __post_init__(self) -> None:
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError(
                f"overlap magnitudes must be >= 0, got alpha={self.alpha}, beta={self.beta}"
            )
        if self.delta_mag < 0.0:
            raise ValueError(f"delta_mag must be >= 0, got {self.delta_mag}")
        if self.delta1 + self.delta2 > 1.0 + 1e-12:
            raise ValueError(
                "delta1 + delta2 must not exceed 1 "
                f"(got {self.delta1 + self.delta2}); the Gram spectrum would "
                "leave [0, 1]"
            )

    @property
    def delta1(self) -> float:
        return abs(self.alpha - self.beta)

    @property
    def delta2(self) -> float:
        return math.sqrt((self.alpha + self.beta) ** 2 + self.delta_mag**2)


def gram_matrix(p: float, ov: AttackOverlaps) -> np.ndarray:
    """Gram matrix of the purified joint state of one encoded pulse.

    The 4x4 Hermitian matrix has trace 1; its spectrum determines the
    entropy available to Eve.  delta_mag enters as a real overlap since
    its phase does not affect the spectrum.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    c = math.sqrt(p * (1.0 - p))
    a = ov.alpha
    b = ov.beta
    d = ov.delta_mag
    gm = np.array(
        [
            [p, 0.0, 2.0j * a * c, c * d],
            [0.0, p, -c * d, -2.0j * b * c],
            [-2.0j * a * c, -c * d, 1.0 - p, 0.0],
            [c * d, 2.0j * b * c, 0.0, 1.0 - p],
        ],
        dtype=complex,
    )
    return gm / 2.0


def gram_eigenvalues(p: float, ov: AttackOverlaps) -> np.ndarray:
    """Closed-form spectrum of gram_matrix, descending.

    lambda = 1/4 +- (1/2) sqrt(p(1-p)(delta1 +- delta2)^2 + (p - 1/2)^2)
    over the four sign choices.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    offset = (p - 0.5) ** 2
    pq = p * (1.0 - p)
    eigs = []
    for s_outer in (1.0, -1.0):
        for s_inner in (1.0, -1.0):
            root = math.sqrt(pq * (ov.delta1 + s_inner * ov.delta2) ** 2 + offset)
            eigs.append(0.25 + s_outer * 0.5 * root)
    return np.sort(np.array(eigs))[::-1]


def entropy_rho_abe(p: float, rates: ErrorRates) -> float:
    """Entropy of the joint state under the optimal attack, 1 + h(xi).

    This is the maximum of -sum(lambda log2 lambda) over all overlaps
    consistent with the observed (e_x, e_z), attained at delta1 = 0 and
    delta2 = 1 - 2e_x - 2e_z.
    """
    return 1.0 + binary_entropy(xi(p, rates.e_x, rates.e_z))


def optimal_attack_overlaps(rates: ErrorRates) -> AttackOverlaps:
    """Overlaps of the entropy-maximising attack for given check rates.

    Zero ancilla asymmetry (alpha = beta = 0) and a cross overlap whose
    modulus is |1 - 2e_x - 2e_z| saturate the entropy bound.
    """
    s = rates.e_x + rates.e_z
    if s > 0.5:
        raise ValueError(f"e_x + e_z must be <= 0.5, got {s}")
    return AttackOverlaps(alpha=0.0, beta=0.0, delta_mag=abs(1.0 - 2.0 * s))
