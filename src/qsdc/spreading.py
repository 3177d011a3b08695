"""Spread-spectrum chip layer keyed by a degree-32 m-sequence.

Each coded bit v(i) is expanded into n_spread chips
chip(i*n + j) = c(i*n + j) XOR v(i), where c is a slice of the single
cyclic m-sequence generated by the primitive polynomial
x^32 + x^22 + x^2 + x + 1.  The slice phase is derived from
(seed, block_index), so both parties regenerate identical chips from
the public code description, and distinct blocks land on well
separated phases of the same 2^32 - 1 cycle.

The de-spreader turns detected chips into one LLR per coded bit:
agreement with the keystream votes for bit 0, disagreement for bit 1,
each vote worth ln((1-e)/e); bits with no detected chips get LLR
exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from qsdc.wiretap_code import WiretapCode

# recurrence lags for x^32 + x^22 + x^2 + x + 1 (primitive over GF(2)):
# s[k] = s[k-10] ^ s[k-30] ^ s[k-31] ^ s[k-32]
_LAGS = (10, 30, 31, 32)
_DEGREE = 32
# over GF(2) the polynomial raised to the 64th power is P(x^64), so from
# word 64 * 32 on the same sequence also obeys the recurrence with every
# lag times 64, which fills 640 words per step instead of 10
_SQUARED_LAGS = tuple(64 * lag for lag in _LAGS)

# column j of the cached word array holds the m-sequence started from
# unit state e_j; the stream for an arbitrary 32-bit state is the XOR
# of the selected columns, i.e. the parity of (word & state)
_basis_words = np.empty(0, dtype=np.uint32)


@dataclass(frozen=True)
class ChipFrame:
    """Received chip values plus detection flags for one block."""

    chips: np.ndarray
    detected: np.ndarray

    def __post_init__(self) -> None:
        if self.chips.shape != self.detected.shape:
            raise ValueError("chips and detected must have identical shape")


def _ensure_basis(length: int) -> np.ndarray:
    global _basis_words
    if _basis_words.size >= length:
        return _basis_words
    size = max(length, 2 * _basis_words.size, 1 << 12)
    w = np.empty(size, dtype=np.uint32)
    w[:_DEGREE] = np.uint32(1) << np.arange(_DEGREE, dtype=np.uint32)
    switch = min(_SQUARED_LAGS[-1], size)
    _run_recurrence(w, _DEGREE, switch, _LAGS)
    _run_recurrence(w, switch, size, _SQUARED_LAGS)
    _basis_words = w
    return _basis_words


def _run_recurrence(w: np.ndarray, start: int, stop: int, lags: tuple[int, ...]) -> None:
    """Fill w[start:stop] from earlier words; lags ascend, and each step
    fills as many words as the shortest lag."""
    step = lags[0]
    for begin in range(start, stop, step):
        end = min(begin + step, stop)
        chunk = w[begin - lags[0] : end - lags[0]].copy()
        for lag in lags[1:]:
            chunk ^= w[begin - lag : end - lag]
        w[begin:end] = chunk


def lfsr_state(seed: int, block_index: int) -> int:
    """Nonzero 32-bit register state derived from (seed, block_index)."""
    ss = np.random.SeedSequence([int(seed), int(block_index)])
    words = ss.generate_state(4, dtype=np.uint32)
    for word in words:
        if word != 0:
            return int(word)
    return 1


def keystream(seed: int, block_index: int, length: int) -> np.ndarray:
    """The (seed, block_index)-keyed m-sequence slice as a uint8 array."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    state = np.uint32(lfsr_state(seed, block_index))
    w = _ensure_basis(length)[:length] & state
    # parity fold of each 32-bit word
    w = w ^ (w >> np.uint32(16))
    w = w ^ (w >> np.uint32(8))
    w = w ^ (w >> np.uint32(4))
    w = w ^ (w >> np.uint32(2))
    w = w ^ (w >> np.uint32(1))
    return (w & np.uint32(1)).astype(np.uint8)


def spread(v: np.ndarray, code: "WiretapCode", block_index: int) -> np.ndarray:
    """Expand a codeword into its chip sequence for one block."""
    v = np.asarray(v, dtype=np.uint8)
    if v.shape != (code.l,):
        raise ValueError(f"codeword length {v.shape} != ({code.l},)")
    ks = keystream(code.seed, block_index, code.n_spread * code.l)
    return ks ^ np.repeat(v, code.n_spread)


def compute_llrs(
    frame: ChipFrame, code: "WiretapCode", e: float, block_index: int
) -> np.ndarray:
    """Per-coded-bit LLRs from the detected chips of one block.

    e is the running message-phase error estimate; it must lie in
    (0, 0.5) since the endpoints give infinite or zero-information
    votes.
    """
    if not 0.0 < e < 0.5:
        raise ValueError(f"e must be in (0, 0.5), got {e}")
    n_chips = code.n_spread * code.l
    if frame.chips.shape != (n_chips,):
        raise ValueError(f"frame length {frame.chips.shape} != ({n_chips},)")
    ks = keystream(code.seed, block_index, n_chips)
    votes = np.where(
        frame.detected,
        1.0 - 2.0 * (frame.chips.astype(np.int8) ^ ks),
        0.0,
    )
    weight = math.log((1.0 - e) / e)
    return weight * votes.reshape(code.l, code.n_spread).sum(axis=1)
