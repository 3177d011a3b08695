"""Four-state qubit model and the lossy fiber channel.

States are restricted to the four preparation states of the protocol
(|0>, |1>, |+>, |->), so a qubit is a uint8 state code 2*basis + bit
(basis 0 = Z, 1 = X) rather than an amplitude vector.  The encoding
unitaries I and Y keep the basis and Y flips the bit; their global
phases are physically irrelevant and are dropped.  The channel is a
binary symmetric channel (basis-preserving bit flip) composed with an
erasure channel parameterised in dB of loss.

The *_codes helpers operate on uint8 arrays of state codes, which is
how the protocol engine handles million-pulse blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Loss in dB plus a basis-preserving flip probability."""

    loss_db: float
    flip_prob: float

    def __post_init__(self) -> None:
        loss_to_survival(self.loss_db)  # refuses a negative or NaN loss
        if not 0.0 <= self.flip_prob <= 0.5:
            raise ValueError(f"flip_prob must be in [0, 0.5], got {self.flip_prob}")

    @property
    def survival(self) -> float:
        return loss_to_survival(self.loss_db)


def loss_to_survival(loss_db: float) -> float:
    """Fraction of pulses that survive loss_db of channel loss; raises
    ValueError unless loss_db >= 0."""
    if not loss_db >= 0.0:  # NaN fails this too
        raise ValueError(f"loss_db must be >= 0, got {loss_db}")
    return 10.0 ** (-loss_db / 10.0)


def random_state_codes(n: int, rng: np.random.Generator) -> np.ndarray:
    return rng.integers(0, 4, size=n, dtype=np.uint8)


def flip_codes(codes: np.ndarray, flip_prob: float, rng: np.random.Generator) -> np.ndarray:
    """Bit-flip each state within its basis independently with flip_prob."""
    if flip_prob <= 0.0:
        return codes.copy()
    flips = (rng.random(codes.shape[0]) < flip_prob).astype(np.uint8)
    return codes ^ flips


def measure_codes(
    codes: np.ndarray, bases: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Measure each state in the given basis; mismatched bases give uniform bits."""
    matched = (codes >> 1) == bases
    guess = rng.integers(0, 2, size=codes.shape[0], dtype=np.uint8)
    # select codes & 1 where matched by XOR and AND, not np.where: the random
    # basis-match mask would mispredict a per-element branch half the time
    return guess ^ ((guess ^ (codes & 1)) & matched)
