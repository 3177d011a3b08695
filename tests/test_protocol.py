"""Block protocol engine: ops, gate, session orchestration."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsdc.attacks import AttackModel
from qsdc.protocol import (
    CheckDisclosure,
    CodeParams,
    InsufficientPulsesError,
    ProtocolConfig,
    alice_encode_block,
    alice_sample_check,
    bob_decode_block,
    bob_estimate_errors,
    bob_prepare_block,
    gate_on_capacity,
    hoeffding_upper,
    modulation_at,
    nominal_config,
    realize_code,
    run_session,
    _available_slots,
    _frame_message,
    _unframe_message,
)
from qsdc.spreading import spread
from qsdc.states import ChannelParams, flip_codes
from qsdc.wiretap_code import build_code


def test_code_params_key_roundtrip():
    params = CodeParams(l=64, k_u=32, k_r=8, n_spread=4, seed=3)
    code = realize_code(params)
    assert code.l == 64 and code.k_m == 24
    assert realize_code(params) is code  # cached


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(block_pulses=10)  # below the chip footprint
    with pytest.raises(ValueError):
        ProtocolConfig(check_fraction=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(forward_check_fraction=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(e_margin=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(confidence_delta=1.5)


def test_nominal_config_values():
    cfg = nominal_config()
    assert cfg.block_pulses == 1_088_960
    assert cfg.code.l == 1312 and cfg.code.k_u == 656 and cfg.code.n_spread == 830
    assert cfg.g == pytest.approx(2.5703957827688635)
    assert cfg.check_channel.loss_db == 25.1
    assert cfg.slots_per_block >= cfg.block_pulses + cfg.n_forward_checks


def test_slots_accounting():
    cfg = nominal_config()
    chips = cfg.code.n_spread * cfg.code.l
    assert cfg.block_pulses == chips
    assert cfg.n_forward_checks == math.ceil(chips * 0.05 / 0.95)


def test_bob_prepare_block(rng):
    codes = bob_prepare_block(10000, rng)
    assert codes.dtype == np.uint8
    assert set(np.unique(codes)) <= {0, 1, 2, 3}
    with pytest.raises(ValueError):
        bob_prepare_block(0, rng)


def test_alice_sample_check_structure(rng):
    positions = np.sort(rng.choice(100000, 5000, replace=False)).astype(np.int64)
    codes = rng.integers(0, 4, positions.size, dtype=np.uint8)
    disc = alice_sample_check(positions, codes, 0.2, rng)
    assert (np.diff(disc.positions) > 0).all()
    assert set(disc.positions) <= set(positions)
    n = len(disc)
    assert abs(n - 1000) < 3 * np.sqrt(5000 * 0.2 * 0.8) + 1
    assert set(np.unique(disc.bases)) <= {0, 1}


def test_alice_sample_check_empty_raises(rng):
    with pytest.raises(ValueError):
        alice_sample_check(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), 0.1, rng)


def test_check_disclosure_validation():
    with pytest.raises(ValueError):
        CheckDisclosure(
            positions=np.array([5, 3]),
            bases=np.array([0, 1], dtype=np.uint8),
            outcomes=np.array([0, 1], dtype=np.uint8),
        )


def test_bob_estimate_errors_hand_case():
    # bob prepared: Z0 Z1 XP XM Z0; alice measured bases Z Z X Z X
    bob_codes = np.array([0b00, 0b01, 0b10, 0b11, 0b00], dtype=np.uint8)
    disc = CheckDisclosure(
        positions=np.arange(5),
        bases=np.array([0, 0, 1, 0, 1], dtype=np.uint8),
        outcomes=np.array([0, 0, 1, 1, 0], dtype=np.uint8),
    )
    stats = bob_estimate_errors(disc, bob_codes)
    # matched: pos 0 (ok), 1 (err: outcome 0 vs bit 1), 2 (err: 1 vs 0); pos 3/4 unmatched
    assert stats.n_z == 2 and stats.err_z == 1
    assert stats.n_x == 1 and stats.err_x == 1
    assert stats.e_z == 0.5 and stats.e_x == 1.0
    assert stats.well_defined


def test_bob_estimate_errors_undefined_bucket():
    bob_codes = np.array([0b00], dtype=np.uint8)
    disc = CheckDisclosure(
        positions=np.array([0]),
        bases=np.array([0], dtype=np.uint8),
        outcomes=np.array([0], dtype=np.uint8),
    )
    stats = bob_estimate_errors(disc, bob_codes)
    assert stats.e_x is None and not stats.well_defined


def test_gate_passes_at_nominal_rates():
    decision = gate_on_capacity(0.008, 0.008, 0.006, 0.00309, 2.5703957827688635)
    assert decision.proceed
    assert decision.estimate.c_s > 0
    assert decision.estimate.i_ae > 0


def test_gate_aborts_under_attack_rates():
    decision = gate_on_capacity(0.25, 0.25, 0.006, 0.00309, 2.57)
    assert not decision.proceed
    assert "capacity" in decision.reason


def test_gate_survives_saturated_rates():
    # measured rates can exceed the formula domain; the gate must not crash
    decision = gate_on_capacity(0.4, 0.4, 0.5, 0.00309, 2.57)
    assert not decision.proceed


def test_gate_survives_rescale_rounding():
    # one rescaling of this pair sums to an ulp above 0.5, outside the
    # entropy-formula domain; the gate must still decide
    decision = gate_on_capacity(0.27535131086748066, 0.2538143313219278, 0.006, 0.00309, 2.57)
    assert not decision.proceed


def test_gate_code_budget_enforcement(fast_config):
    code = realize_code(fast_config.code)
    rates = (0.008, 0.008, 0.006)
    relaxed = gate_on_capacity(*rates, 0.3, 1.1, code=code, enforce_code_budget=False)
    strict = gate_on_capacity(*rates, 0.3, 1.1, code=code, enforce_code_budget=True)
    assert relaxed.budgets["k_r_per_pulse"] == pytest.approx(32 / (8 * 256))
    # i_ae at q_eve = 0.33 exceeds the small code's budget
    assert not relaxed.budget_ok
    assert relaxed.proceed and not strict.proceed


def test_hoeffding_upper():
    assert hoeffding_upper(0.0, 0, 0.01) == 0.5
    assert hoeffding_upper(0.01, 1000, 0.01) > 0.01
    assert hoeffding_upper(0.01, 10**9, 0.01) == pytest.approx(0.01, abs=1e-3)
    assert hoeffding_upper(0.49, 10, 0.5) == 0.5  # clamped


def _all_ops(record, code):
    return modulation_at(record, code, np.arange(record.consumed_positions.size))


def _dense_ops(record, code):
    # reference: the whole chip sequence poured into the non-check slots
    chips = spread(record.codeword, code, record.block_index, np.arange(code.block_chips))
    ops = np.empty(record.consumed_positions.size, dtype=np.uint8)
    chip_mask = np.ones(ops.size, dtype=bool)
    chip_mask[record.fwd_local] = False
    ops[record.fwd_local] = record.fwd_values
    ops[chip_mask] = chips
    return ops


def test_encode_block_layout(fast_config, rng):
    code = realize_code(fast_config.code)
    available = np.arange(5000, dtype=np.int64)
    msg = rng.integers(0, 2, code.k_m, dtype=np.uint8)
    n_fwd = fast_config.n_forward_checks
    record = alice_encode_block(msg, code, available, n_fwd, rng, block_index=0)
    ops = _all_ops(record, code)
    needed = code.block_chips + math.ceil(code.block_chips * 0.05 / 0.95)
    assert needed == code.block_chips + n_fwd
    assert ops.size == needed
    assert (record.consumed_positions == available[:needed]).all()
    assert record.n_chips == code.block_chips
    # forward check slots sit inside the consumed range, values match ops
    fwd_local = np.searchsorted(record.consumed_positions, record.fwd_positions)
    assert (ops[fwd_local] == record.fwd_values).all()
    assert set(record.fwd_positions) <= set(record.consumed_positions)


def test_modulation_at_equals_dense_ops(fast_config, rng):
    code = realize_code(fast_config.code)
    available = np.sort(rng.choice(6000, 5000, replace=False))
    for n_fwd in (fast_config.n_forward_checks, 0):
        msg = rng.integers(0, 2, code.k_m, dtype=np.uint8)
        record = alice_encode_block(msg, code, available, n_fwd, rng, block_index=3)
        assert record.fwd_local.size == n_fwd
        dense = _dense_ops(record, code)
        assert np.array_equal(_all_ops(record, code), dense)
        # any subset, in any order
        local = rng.permutation(dense.size)[:700]
        assert np.array_equal(modulation_at(record, code, local), dense[local])


def test_encode_block_insufficient_pulses(fast_config, rng):
    code = realize_code(fast_config.code)
    msg = np.zeros(code.k_m, dtype=np.uint8)
    with pytest.raises(InsufficientPulsesError):
        alice_encode_block(
            msg, code, np.arange(10, dtype=np.int64), fast_config.n_forward_checks, rng, 0
        )


def test_single_use_of_checked_pulses(fast_config, rng):
    # a disclosed check position must never be modulated afterwards
    code = realize_code(fast_config.code)
    n = fast_config.slots_per_block
    positions = np.nonzero(rng.random(n) < 0.5)[0]
    codes = rng.integers(0, 4, positions.size, dtype=np.uint8)
    disc = alice_sample_check(positions, codes, 0.1, rng)
    available = _available_slots(n, disc.positions)
    msg = np.zeros(code.k_m, dtype=np.uint8)
    record = alice_encode_block(msg, code, available, fast_config.n_forward_checks, rng, 0)
    assert np.intersect1d(record.consumed_positions, disc.positions).size == 0
    # chips and forward checks partition the consumed set
    assert record.fwd_positions.size + record.n_chips == record.consumed_positions.size
    # the available slots are exactly the complement of the disclosure,
    # including an empty disclosure and both end slots
    disclosures = [disc.positions, np.empty(0, dtype=np.int64), np.array([0, n - 1])]
    disclosures += [np.sort(rng.choice(n, k, replace=False)) for k in (1, 50, n // 2, n)]
    for disclosed in disclosures:
        expected = np.setdiff1d(np.arange(n, dtype=np.int64), disclosed)
        assert np.array_equal(_available_slots(n, disclosed), expected)


def test_decode_block_perfect_channel(fast_config, rng):
    code = realize_code(fast_config.code)
    available = np.arange(4000, dtype=np.int64)
    msg = rng.integers(0, 2, code.k_m, dtype=np.uint8)
    n_fwd = fast_config.n_forward_checks
    record = alice_encode_block(msg, code, available, n_fwd, rng, block_index=0)
    bob_codes = rng.integers(0, 4, 4000, dtype=np.uint8)
    wire = bob_codes[record.consumed_positions] ^ _all_ops(record, code)
    outcomes = wire & 1  # measuring in the preparation basis, no noise
    result = bob_decode_block(
        record.consumed_positions, outcomes, bob_codes, record, code, e_margin=0.03
    )
    assert result.status == "ok"
    assert (result.message_bits == msg).all()
    assert result.e_fwd == 0.0
    assert result.n_chip_detected == code.block_chips


def test_decode_block_error_margin_abort(fast_config, rng):
    code = realize_code(fast_config.code)
    available = np.arange(4000, dtype=np.int64)
    msg = rng.integers(0, 2, code.k_m, dtype=np.uint8)
    n_fwd = fast_config.n_forward_checks
    record = alice_encode_block(msg, code, available, n_fwd, rng, block_index=0)
    bob_codes = rng.integers(0, 4, 4000, dtype=np.uint8)
    wire = bob_codes[record.consumed_positions] ^ _all_ops(record, code)
    # 10% flips exceed the 3% margin
    outcomes = (wire & 1) ^ (rng.random(wire.size) < 0.10).astype(np.uint8)
    result = bob_decode_block(
        record.consumed_positions, outcomes, bob_codes, record, code, e_margin=0.03
    )
    assert result.status == "abort-error-margin"


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=50, deadline=None)
def test_frame_unframe_roundtrip(payload):
    chunks = _frame_message(payload, 96)
    assert all(c.size == 96 for c in chunks)
    assert _unframe_message(chunks) == payload


def test_session_roundtrip(fast_config):
    msg = bytes(range(64))
    tr = run_session(fast_config, msg, seed=11)
    assert tr.ok
    assert tr.delivered == msg
    assert tr.pulses_emitted == sum(b.n_sent for b in tr.blocks)
    assert all(b.status == "ok" for b in tr.blocks)


def test_session_deterministic(fast_config):
    msg = b"repeatable payload"
    a = run_session(fast_config, msg, seed=21)
    b = run_session(fast_config, msg, seed=21)
    assert a.to_jsonl() == b.to_jsonl()
    c = run_session(fast_config, msg, seed=22)
    assert a.to_jsonl() != c.to_jsonl()


def test_session_empty_message(fast_config):
    tr = run_session(fast_config, b"", seed=5)
    assert tr.ok and tr.delivered == b"" and len(tr.blocks) == 0


def test_session_gate_abort_on_intercept_resend(fast_config):
    tr = run_session(fast_config, b"abc", seed=9, attack=AttackModel.intercept_resend(1.0))
    assert tr.security_abort
    assert tr.abort_reason == "capacity-gate"
    assert tr.delivered == b""
    assert tr.blocks[-1].status == "gate-abort"
    assert tr.blocks[-1].gate_proceed is False


def test_session_decode_failure_after_retries():
    # data path noise far beyond the margin: every attempt aborts,
    # the session gives up after max_block_retries
    config = ProtocolConfig(
        code=CodeParams(l=256, k_u=128, k_r=32, n_spread=8, seed=99),
        block_pulses=8 * 256,
        check_channel=ChannelParams(5.0, 0.0),
        data_channel=ChannelParams(5.0, 0.2),
        max_block_retries=2,
    )
    tr = run_session(config, b"x", seed=13)
    assert not tr.ok
    assert tr.abort_reason == "decode-failure"
    assert len(tr.blocks) == 3  # initial attempt plus two retries
    assert not tr.security_abort


def test_session_transcript_jsonl(fast_config):
    tr = run_session(fast_config, b"json lines", seed=17)
    lines = tr.to_jsonl().strip().split("\n")
    parsed = [json.loads(line) for line in lines]
    assert parsed[-1]["record"] == "summary"
    assert parsed[-1]["delivered_bytes"] == 10
    assert all(p["record"] == "block" for p in parsed[:-1])
    assert parsed[0]["status"] == "ok"


def test_session_throughput_accounting(fast_config):
    msg = bytes(200)
    tr = run_session(fast_config, msg, seed=31)
    expected = len(msg) * 8 / tr.pulses_emitted * fast_config.repetition_rate_hz
    assert tr.throughput_bits_per_s == pytest.approx(expected)


def test_session_zero_noise_perfect():
    config = ProtocolConfig(
        code=CodeParams(l=256, k_u=128, k_r=32, n_spread=8, seed=99),
        block_pulses=8 * 256,
        check_channel=ChannelParams(3.0, 0.0),
        data_channel=ChannelParams(3.0, 0.0),
    )
    tr = run_session(config, b"noiseless", seed=2)
    assert tr.ok and tr.delivered == b"noiseless"
    for b in tr.blocks:
        assert b.e_x == 0.0 and b.e_z == 0.0 and b.e_fwd == 0.0


def test_hoeffding_gate_is_more_conservative(fast_config):
    import dataclasses

    msg = bytes(range(32))
    base = run_session(fast_config, msg, seed=41)
    guarded_cfg = dataclasses.replace(fast_config, confidence_delta=1e-6)
    guarded = run_session(guarded_cfg, msg, seed=41)
    # with upper confidence bounds the reported capacity can only shrink
    for lo, hi in zip(guarded.blocks, base.blocks):
        if lo.c_s is not None and hi.c_s is not None:
            assert lo.c_s <= hi.c_s + 1e-12


# sha256 of to_jsonl() + delivered bytes.  The slot layout, chips and
# LLRs are the dense engine's, so each draw and each byte must match.
# They see H through the per-block BP iteration counts, which the
# "honest" session's digest pins.  The digests assume numpy's PCG64 bit
# streams.
_PINNED_SESSIONS = [
    ("honest", None, 11, "e5abfdb128a7a49512cb78785c6145113cfbb80090a55248bb385f1809a8989d"),
    (
        "intercept-resend 0.3",
        AttackModel.intercept_resend(0.3),
        12,
        "7e56c6feffa6f3816359071c8391421836c9804a80205efb60b4ed19aadfa803",
    ),
    (
        "collective (0.02, 0.01)",
        AttackModel.optimal_collective(0.02, 0.01),
        17,
        "181e0bcf714cc11b4b0ec26f8df1cb8b30550f6a5a601443ce2b71355ce1e98c",
    ),
]


def _digest(tr) -> str:
    return hashlib.sha256(tr.to_jsonl().encode() + tr.delivered).hexdigest()


def test_transcripts_match_pinned_digests(fast_config):
    for name, attack, seed, digest in _PINNED_SESSIONS:
        tr = run_session(fast_config, bytes(range(200)), seed=seed, attack=attack)
        assert _digest(tr) == digest, name
    tr = run_session(nominal_config(), b"nominal payload", seed=3)
    assert tr.delivered == b"nominal payload"
    assert _digest(tr) == "cf7377196e8fbd8526717656ba2a8a4cd63a47c58a232bd499bb446a5fa8483d"
