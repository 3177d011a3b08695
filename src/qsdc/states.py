"""Four-state qubit model and the lossy fiber channel.

States are restricted to the four preparation states of the protocol
(|0>, |1>, |+>, |->), so a qubit is an enum value rather than an
amplitude vector.  Global phases picked up by the encoding unitaries
are physically irrelevant here and are dropped.  The channel is a
binary symmetric channel (basis-preserving bit flip) composed with an
erasure channel parameterised in dB of loss.

The scalar operations below define the semantics; the *_codes helpers
operate on uint8 arrays of state codes and are what the protocol
engine uses for million-pulse blocks.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Basis(enum.IntEnum):
    Z = 0
    X = 1


class QubitState(enum.IntEnum):
    """Protocol preparation states; the code packs (basis, bit) as 2*basis + bit."""

    Z0 = 0  # |0>
    Z1 = 1  # |1>
    XP = 2  # |+>
    XM = 3  # |->

    @property
    def basis(self) -> Basis:
        return Basis(self.value >> 1)

    @property
    def bit(self) -> int:
        return self.value & 1


class EncodeOp(enum.IntEnum):
    """Alice's message unitaries: identity encodes 0, Y = |1><0| - |0><1| encodes 1."""

    I = 0
    Y = 1


@dataclass(frozen=True)
class ChannelParams:
    """Loss in dB plus a basis-preserving flip probability."""

    loss_db: float
    flip_prob: float

    def __post_init__(self) -> None:
        if self.loss_db < 0:
            raise ValueError(f"loss_db must be >= 0, got {self.loss_db}")
        if not 0.0 <= self.flip_prob <= 0.5:
            raise ValueError(f"flip_prob must be in [0, 0.5], got {self.flip_prob}")

    @property
    def survival(self) -> float:
        return 10.0 ** (-self.loss_db / 10.0)


def apply_encoding(state: QubitState, op: EncodeOp) -> QubitState:
    """Apply I or Y.  Y flips the bit within the preparation basis:

    Y|0> = |1>,  Y|1> = -|0>,  Y|+> = -|->,  Y|-> = |+>

    and the global signs are dropped.
    """
    if op == EncodeOp.I:
        return state
    return QubitState(state.value ^ 1)


def measure(state: QubitState, basis: Basis, rng: np.random.Generator) -> int:
    """Projective measurement, returning the observed bit.

    Measuring an eigenstate of the basis is deterministic; measuring in
    the conjugate basis returns a uniform bit (Born rule for the four
    states, all cross-basis overlaps have squared modulus 1/2).
    """
    if state.basis == basis:
        return state.bit
    return int(rng.integers(0, 2))


# Array helpers on packed state codes (uint8 values 0..3).


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
    """Vectorised measure(); mismatched-basis slots give uniform bits."""
    matched = (codes >> 1) == bases
    out = np.where(matched, codes & 1, rng.integers(0, 2, size=codes.shape[0], dtype=np.uint8))
    return out.astype(np.uint8)
