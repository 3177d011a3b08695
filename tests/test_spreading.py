"""Keystream generation, chip spreading, de-spreading into LLRs."""

import hashlib
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from qsdc.spreading import compute_llrs, keystream, spread


# Dense reference path: the whole chip sequence of a block, a frame of
# received chips with detection flags, and LLRs summed over that frame.
# The sparse spread/compute_llrs must agree with it exactly.


def dense_spread(v: np.ndarray, code, block_index: int) -> np.ndarray:
    ks = keystream(code.seed, block_index, code.n_spread * code.l)
    return ks ^ np.repeat(np.asarray(v, dtype=np.uint8), code.n_spread)


@dataclass(frozen=True)
class ChipFrame:
    """Received chip values plus detection flags for one block."""

    chips: np.ndarray
    detected: np.ndarray

    def __post_init__(self) -> None:
        if self.chips.shape != self.detected.shape:
            raise ValueError("chips and detected must have identical shape")


def dense_llrs(frame: ChipFrame, code, e: float, block_index: int) -> np.ndarray:
    ks = keystream(code.seed, block_index, code.n_spread * code.l)
    votes = np.where(frame.detected, 1.0 - 2.0 * (frame.chips.astype(np.int8) ^ ks), 0.0)
    weight = math.log((1.0 - e) / e)
    return weight * votes.reshape(code.l, code.n_spread).sum(axis=1)


def _all_chips(code) -> np.ndarray:
    return np.arange(code.block_chips)


# sha256 of keystream(12345, 0, 830 * 1312): no recorded quantity of a
# session depends on the keystream, since it cancels in de-spreading, so
# only this digest fails when the keystream changes
_NOMINAL_KEYSTREAM_SHA256 = "671daa966e845abf30f333fd3013463b74c9e2ba645510e0f4d807bb8afe97d3"


def test_keystream_matches_pinned_digest():
    ks = keystream(12345, 0, 830 * 1312)
    assert hashlib.sha256(ks.tobytes()).hexdigest() == _NOMINAL_KEYSTREAM_SHA256


def test_keystream_memory_below_twelve_bytes_per_chip():
    # computed at the indices asked for: no table outlives the call,
    # and the call holds about two uint32 words per chip at its peak
    length = 830 * 1312
    tracemalloc.start()
    try:
        keystream(12345, 1, length)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * length


def test_keystream_prefix_consistency():
    long = keystream(3, 5, 5000)
    short = keystream(3, 5, 1200)
    assert (long[:1200] == short).all()


def test_keystream_blocks_differ():
    a = keystream(12345, 0, 4096)
    b = keystream(12345, 1, 4096)
    c = keystream(54321, 0, 4096)
    assert (a != b).any() and (a != c).any()
    # distinct keys give uncorrelated streams
    assert 0.35 < (a ^ b).mean() < 0.65


def test_keystream_deterministic():
    assert (keystream(11, 4, 999) == keystream(11, 4, 999)).all()


def test_keystream_balance_at_operating_size():
    # chip windows aligned with codeword bits must stay balanced, else
    # a hit-or-miss detector would see biased chips
    ks = keystream(12345, 0, 830 * 1312)
    slices = ks.reshape(1312, 830).mean(axis=1)
    assert abs(ks.mean() - 0.5) < 0.005
    assert ((slices >= 0.45) & (slices <= 0.55)).mean() >= 0.99
    assert (np.abs(slices - 0.5) < 0.10).all()


def test_spread_xors_repeated_codeword(small_code, rng):
    v = rng.integers(0, 2, small_code.l, dtype=np.uint8)
    chips = spread(v, small_code, 3, _all_chips(small_code))
    ks = keystream(small_code.seed, 3, small_code.block_chips)
    assert (chips == (ks ^ np.repeat(v, small_code.n_spread))).all()


def test_spread_rejects_bad_shape(small_code, rng):
    with pytest.raises(ValueError):
        spread(np.zeros(small_code.l + 1, dtype=np.uint8), small_code, 0, _all_chips(small_code))


def test_spread_rejects_out_of_range_chips(small_code):
    v = np.zeros(small_code.l, dtype=np.uint8)
    for bad in ([-1], [small_code.block_chips]):
        with pytest.raises(ValueError):
            spread(v, small_code, 0, np.array(bad))


def test_compute_llrs_rejects_mismatched_shapes(small_code):
    with pytest.raises(ValueError):
        compute_llrs(np.arange(8), np.zeros(7, dtype=np.uint8), small_code, 0.01, 0)


def test_sparse_path_equals_dense_reference(small_code, default_code, rng):
    # exact equality: vote sums are integers, exact in float64
    for code, block in ((small_code, 4), (default_code, 1)):
        n = code.block_chips
        v = rng.integers(0, 2, code.l, dtype=np.uint8)
        dense = dense_spread(v, code, block)
        for p in (0.0, 0.003, 0.3, 1.0):
            detected = rng.random(n) < p
            idx = np.flatnonzero(detected)
            chips = spread(v, code, block, idx)
            assert np.array_equal(chips, dense[idx])
            received = dense ^ (rng.random(n) < 0.05).astype(np.uint8)
            frame = ChipFrame(chips=np.where(detected, received, 0).astype(np.uint8), detected=detected)
            for e in (0.006, 0.2):
                sparse = compute_llrs(idx, received[idx], code, e, block)
                assert np.array_equal(sparse, dense_llrs(frame, code, e, block))
        # detection order does not matter
        idx = rng.permutation(n)[: n // 3]
        assert np.array_equal(
            compute_llrs(idx, dense[idx], code, 0.01, block),
            compute_llrs(np.sort(idx), dense[np.sort(idx)], code, 0.01, block),
        )


def test_compute_llrs_clean_full_detection(small_code, rng):
    v = rng.integers(0, 2, small_code.l, dtype=np.uint8)
    idx = _all_chips(small_code)
    chips = spread(v, small_code, 5, idx)
    e = 0.01
    llrs = compute_llrs(idx, chips, small_code, e, 5)
    unit = math.log((1 - e) / e)
    expected = small_code.n_spread * unit * (1.0 - 2.0 * v.astype(float))
    assert np.allclose(llrs, expected, atol=1e-12)


def test_compute_llrs_no_detection_is_exactly_zero(small_code):
    empty = np.empty(0, dtype=np.int64)
    llrs = compute_llrs(empty, np.empty(0, dtype=np.uint8), small_code, 0.01, 0)
    assert llrs.shape == (small_code.l,)
    assert (llrs == 0.0).all()


def test_compute_llrs_vote_counting(small_code, rng):
    # flipping one detected chip moves that bit's LLR by two vote units
    v = np.zeros(small_code.l, dtype=np.uint8)
    idx = _all_chips(small_code)
    chips = spread(v, small_code, 2, idx)
    e = 0.05
    base = compute_llrs(idx, chips, small_code, e, 2)
    chips2 = chips.copy()
    chips2[0] ^= 1
    moved = compute_llrs(idx, chips2, small_code, e, 2)
    unit = math.log((1 - e) / e)
    assert moved[0] == pytest.approx(base[0] - 2 * unit)
    assert np.allclose(moved[1:], base[1:])


def test_compute_llrs_rejects_degenerate_error_rate(small_code):
    idx = _all_chips(small_code)
    chips = np.zeros(small_code.block_chips, dtype=np.uint8)
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            compute_llrs(idx, chips, small_code, bad, 0)
