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

Both directions take explicit chip indices: only the chips that a
detector fired on are ever computed, so the cost of a block follows
its detections, not its 10^6-chip footprint.
"""

from __future__ import annotations

import math
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


def _parity(words: np.ndarray) -> np.ndarray:
    """Parity of each uint32 word as a uint8 array, by shift-XOR fold."""
    w = words ^ (words >> np.uint32(16))
    w = w ^ (w >> np.uint32(8))
    w = w ^ (w >> np.uint32(4))
    w = w ^ (w >> np.uint32(2))
    w = w ^ (w >> np.uint32(1))
    return (w & np.uint32(1)).astype(np.uint8)


def keystream(seed: int, block_index: int, length: int) -> np.ndarray:
    """The (seed, block_index)-keyed m-sequence slice as a uint8 array."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    state = np.uint32(lfsr_state(seed, block_index))
    return _parity(_ensure_basis(length)[:length] & state)


def _keystream_at(code: "WiretapCode", block_index: int, chip_idx: np.ndarray) -> np.ndarray:
    """keystream(code.seed, block_index, code.block_chips)[chip_idx],
    computed at the given chip indices only."""
    if chip_idx.size and not (0 <= chip_idx.min() and chip_idx.max() < code.block_chips):
        raise ValueError(f"chip indices must lie in [0, {code.block_chips})")
    state = np.uint32(lfsr_state(code.seed, block_index))
    return _parity(_ensure_basis(code.block_chips)[chip_idx] & state)


def spread(
    v: np.ndarray, code: "WiretapCode", block_index: int, chip_idx: np.ndarray
) -> np.ndarray:
    """The chips at chip_idx of a codeword's chip sequence for one block.

    Chip i of the full sequence is keystream bit i XOR v[i // n_spread];
    only the requested chips are computed.
    """
    v = np.asarray(v, dtype=np.uint8)
    if v.shape != (code.l,):
        raise ValueError(f"codeword length {v.shape} != ({code.l},)")
    chip_idx = np.asarray(chip_idx, dtype=np.int64)
    return _keystream_at(code, block_index, chip_idx) ^ v[chip_idx // code.n_spread]


def compute_llrs(
    chip_idx: np.ndarray,
    chips: np.ndarray,
    code: "WiretapCode",
    e: float,
    block_index: int,
) -> np.ndarray:
    """Per-coded-bit LLRs from the detected chips of one block.

    chip_idx lists the detected chip indices and chips their received
    values; every other chip is an erasure.  e is the running
    message-phase error estimate; it must lie in (0, 0.5) since the
    endpoints give infinite or zero-information votes.  Vote sums are
    small integers, exact in float64, so the result does not depend on
    the order of the detections.
    """
    if not 0.0 < e < 0.5:
        raise ValueError(f"e must be in (0, 0.5), got {e}")
    chip_idx = np.asarray(chip_idx, dtype=np.int64)
    chips = np.asarray(chips, dtype=np.uint8)
    if chips.shape != chip_idx.shape or chip_idx.ndim != 1:
        raise ValueError(f"chips {chips.shape} and chip indices {chip_idx.shape} must match")
    ks = _keystream_at(code, block_index, chip_idx)
    votes = 1.0 - 2.0 * (chips ^ ks)
    weight = math.log((1.0 - e) / e)
    return weight * np.bincount(chip_idx // code.n_spread, weights=votes, minlength=code.l)
