"""State preparation, encoding, measurement, channel."""

import copy
import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qsdc.states import ChannelParams, flip_codes, measure_codes, random_state_codes


# Scalar reference semantics kept as oracles for the tests below; the
# protocol itself works on packed state-code arrays.


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


@dataclass(frozen=True)
class PreparedQubit:
    """A qubit together with the classical record its preparer keeps."""

    state: QubitState

    @property
    def basis(self) -> Basis:
        return self.state.basis

    @property
    def bit(self) -> int:
        return self.state.bit


def prepare_random(rng: np.random.Generator) -> PreparedQubit:
    """Draw one of the four states uniformly."""
    return PreparedQubit(QubitState(int(rng.integers(0, 4))))


def transmit(
    state: QubitState, channel: ChannelParams, rng: np.random.Generator
) -> Optional[QubitState]:
    """Send one qubit: None on erasure, else a possible bit flip in its basis."""
    if rng.random() >= channel.survival:
        return None
    if channel.flip_prob > 0.0 and rng.random() < channel.flip_prob:
        return QubitState(state.value ^ 1)
    return state


def codes_basis(codes: np.ndarray) -> np.ndarray:
    return codes >> 1


def codes_bit(codes: np.ndarray) -> np.ndarray:
    return codes & 1


def encode_codes(codes: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Vectorised apply_encoding; ops is a 0/1 array (0 = I, 1 = Y)."""
    return codes ^ ops.astype(np.uint8)


def survival_mask(n: int, channel: ChannelParams, rng: np.random.Generator) -> np.ndarray:
    """Boolean mask of pulses that survive the channel loss."""
    return rng.random(n) < channel.survival


# 2x2 vector oracle: check the algebraic encoding table against actual
# single-qubit linear algebra (global phase ignored)
_VECS = {
    QubitState.Z0: np.array([1.0, 0.0]),
    QubitState.Z1: np.array([0.0, 1.0]),
    QubitState.XP: np.array([1.0, 1.0]) / np.sqrt(2),
    QubitState.XM: np.array([1.0, -1.0]) / np.sqrt(2),
}
_Y = np.array([[0.0, -1.0], [1.0, 0.0]])  # sigma_y up to a global i


def _same_ray(u, v):
    return abs(abs(np.dot(u, v)) - 1.0) < 1e-12


@pytest.mark.parametrize("state", list(QubitState))
def test_identity_encoding_is_identity(state):
    assert apply_encoding(state, EncodeOp.I) is state


@pytest.mark.parametrize("state", list(QubitState))
def test_y_encoding_matches_matrix_oracle(state):
    out = apply_encoding(state, EncodeOp.Y)
    assert _same_ray(_VECS[out], _Y @ _VECS[state])


@pytest.mark.parametrize("state", list(QubitState))
def test_y_encoding_preserves_basis_and_flips_bit(state):
    out = apply_encoding(state, EncodeOp.Y)
    assert out.basis == state.basis
    assert out.bit == state.bit ^ 1


def test_state_code_layout():
    assert QubitState.Z0.basis == Basis.Z and QubitState.Z0.bit == 0
    assert QubitState.Z1.basis == Basis.Z and QubitState.Z1.bit == 1
    assert QubitState.XP.basis == Basis.X and QubitState.XP.bit == 0
    assert QubitState.XM.basis == Basis.X and QubitState.XM.bit == 1


def test_prepared_qubit_properties():
    q = PreparedQubit(QubitState.XM)
    assert q.basis == Basis.X and q.bit == 1


def test_prepare_random_uniform(rng):
    n = 40000
    counts = np.bincount([prepare_random(rng).state for _ in range(n)], minlength=4)
    # chi-square against uniform, 3 dof: 16.27 is the 0.1% point
    chi2 = ((counts - n / 4) ** 2 / (n / 4)).sum()
    assert chi2 < 16.27


def test_measure_eigenstate_deterministic(rng):
    for state in QubitState:
        for _ in range(8):
            assert measure(state, Basis(state.basis), rng) == state.bit


def test_measure_conjugate_basis_uniform(rng):
    outcomes = np.array([measure(QubitState.XP, Basis.Z, rng) for _ in range(20000)])
    assert abs(outcomes.mean() - 0.5) < 0.011  # 3 sigma


def test_measure_codes_matches_scalar_semantics(rng):
    codes = random_state_codes(5000, rng)
    bases = rng.integers(0, 2, 5000, dtype=np.uint8)
    twin = copy.deepcopy(rng)
    out = measure_codes(codes, bases, rng)
    matched = (codes >> 1) == bases
    # one uniform draw per pulse, kept where the bases differ
    want = np.where(matched, codes & 1, twin.integers(0, 2, 5000, dtype=np.uint8))
    assert out.dtype == np.uint8
    assert np.array_equal(out, want)
    assert rng.bit_generator.state == twin.bit_generator.state
    # conjugate-basis outcomes unbiased
    assert abs(out[~matched].mean() - 0.5) < 3 * 0.5 / np.sqrt((~matched).sum())


def test_channel_params_survival():
    assert ChannelParams(10.0, 0.0).survival == pytest.approx(0.1)
    assert ChannelParams(0.0, 0.0).survival == 1.0
    assert ChannelParams(25.1, 0.0).survival == pytest.approx(10 ** -2.51)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(-1.0, 0.0)
    with pytest.raises(ValueError):
        ChannelParams(1.0, 0.7)


def test_transmit_lossless_noiseless(rng):
    ch = ChannelParams(0.0, 0.0)
    for state in QubitState:
        assert transmit(state, ch, rng) is state


def test_transmit_full_loss(rng):
    ch = ChannelParams(300.0, 0.0)
    assert all(transmit(QubitState.Z0, ch, rng) is None for _ in range(50))


def test_flip_codes_preserves_basis_and_rate(rng):
    codes = random_state_codes(200000, rng)
    flipped = flip_codes(codes, 0.1, rng)
    assert ((flipped >> 1) == (codes >> 1)).all()
    rate = (flipped != codes).mean()
    assert abs(rate - 0.1) < 3 * np.sqrt(0.1 * 0.9 / codes.size)


def test_flip_codes_zero_rate_identity(rng):
    codes = random_state_codes(1000, rng)
    assert (flip_codes(codes, 0.0, rng) == codes).all()


def test_survival_mask_rate(rng):
    mask = survival_mask(200000, ChannelParams(10.0, 0.0), rng)
    assert abs(mask.mean() - 0.1) < 3 * np.sqrt(0.1 * 0.9 / mask.size)


@given(st.lists(st.integers(0, 3), min_size=1, max_size=64), st.lists(st.integers(0, 1), min_size=64, max_size=64))
def test_encode_codes_matches_scalar(codes, ops):
    codes = np.array(codes, dtype=np.uint8)
    ops = np.array(ops[: codes.size], dtype=np.uint8)
    out = encode_codes(codes, ops)
    for c, o, r in zip(codes, ops, out):
        assert QubitState(r) is apply_encoding(QubitState(c), EncodeOp(o))


@given(st.lists(st.integers(0, 3), min_size=1, max_size=64))
def test_encode_codes_y_involution(codes):
    codes = np.array(codes, dtype=np.uint8)
    ops = np.ones(codes.size, dtype=np.uint8)
    assert (encode_codes(encode_codes(codes, ops), ops) == codes).all()


def test_codes_helpers(rng):
    codes = random_state_codes(100, rng)
    assert (codes_basis(codes) == codes >> 1).all()
    assert (codes_bit(codes) == (codes & 1)).all()
