"""Spread-spectrum chip layer keyed by a stateless keyed hash.

Each coded bit v(i) is expanded into n_spread chips
chip(i*n + j) = c(i*n + j) XOR v(i), where keystream bit c(k) is one
output bit of a 32-bit integer mixer applied to k XOR key.  The key is
derived from (seed, block_index), so both parties regenerate identical
chips from the public code description, and each bit is computed from
its index alone, at the indices asked for.  The keystream is public and
cancels in de-spreading; the secrecy comes from the wiretap code.

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


def keystream(seed: int, block_index: int, length: int) -> np.ndarray:
    """Keystream bits 0 .. length - 1 of one block as a uint8 array."""
    if not 0 <= length <= 2**32:
        raise ValueError(f"length must lie in [0, 2**32], got {length}")
    return _keyed_bits(seed, block_index, np.arange(length, dtype=np.uint32))


def _keystream_at(code: "WiretapCode", block_index: int, chip_idx: np.ndarray) -> np.ndarray:
    """keystream(code.seed, block_index, code.block_chips)[chip_idx],
    computed at the given chip indices only."""
    if chip_idx.size and not (0 <= chip_idx.min() and chip_idx.max() < code.block_chips):
        raise ValueError(f"chip indices must lie in [0, {code.block_chips})")
    return _keyed_bits(code.seed, block_index, chip_idx.astype(np.uint32))


def _keyed_bits(seed: int, block_index: int, x: np.ndarray) -> np.ndarray:
    """The top bit of lowbias32(x ^ key) for each uint32 chip index in x,
    which is overwritten; the key is 32 bits of SeedSequence([seed, block_index])."""
    key = np.random.SeedSequence([int(seed), int(block_index)]).generate_state(1, np.uint32)[0]
    x ^= key
    # Wellons' lowbias32: a bijection on uint32 whose output bits each
    # flip with probability close to 1/2 when one input bit does
    x ^= x >> np.uint32(16)
    x *= np.uint32(0x7FEB352D)
    x ^= x >> np.uint32(15)
    x *= np.uint32(0x846CA68B)
    x ^= x >> np.uint32(16)
    x >>= np.uint32(31)
    return x.astype(np.uint8)


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
