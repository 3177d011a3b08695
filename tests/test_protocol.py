"""Block protocol engine: ops, gate, session orchestration.

The engine draws only the slots that are observed.  The slot-by-slot
engine it replaced lives here as the dense oracle (_dense_block_attempt
and its helpers); its statistics are compared with the engine's.  The
gate's former rule, which rescaled the pair (e_x, e_z) onto the entropy
domain, lives here as _rescaling_gate; the gate must decide as it did.
"""

import dataclasses
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsdc.protocol
from qsdc.attacks import AttackKind, AttackModel
from qsdc.ldpc import bp_decode, ldpc_encode
from qsdc.protocol import (
    MAX_BLOCK_RETRIES,
    BlockRecord,
    CodeParams,
    ProtocolConfig,
    alice_encode_block,
    alice_sample_check,
    bob_decode_block,
    bob_estimate_errors,
    bob_prepare_block,
    draw_data_detections,
    gate_on_capacity,
    nominal_config,
    payload_bytes_for_blocks,
    realize_code,
    run_session,
    _Session,
    _frame_message,
    _unframe_message,
)
from qsdc.security import ErrorRates, half_bias_capacity
from qsdc.spreading import spread
from qsdc.states import ChannelParams, flip_codes, measure_codes
from qsdc.wiretap_code import build_code, code_description, load_code, uhf_map
from test_gf2 import gf2_matmul


# --- the dense oracle: every slot of a block drawn ------------------------


class InsufficientPulsesError(RuntimeError):
    """A dense block did not have enough usable slots."""


def _available_slots(n_sent: int, disclosed_positions: np.ndarray) -> np.ndarray:
    """Slot indices below n_sent that the check disclosure did not consume."""
    disclosed = np.zeros(n_sent, dtype=bool)
    disclosed[disclosed_positions] = True
    return np.flatnonzero(~disclosed)


@dataclasses.dataclass(frozen=True)
class _DenseLayout:
    """The dense engine's slot layout of one block.  fwd_local holds the
    sorted forward-check indices into consumed_positions."""

    block_index: int
    codeword: np.ndarray
    consumed_positions: np.ndarray
    fwd_local: np.ndarray
    fwd_values: np.ndarray


def _dense_encode_block(message_bits, code, available_positions, n_fwd, rng, block_index):
    """Lay one block out on the first n_chips + n_fwd available slots,
    with the forward checks at uniformly random slots among them."""
    needed = code.block_chips + n_fwd
    if available_positions.size < needed:
        raise InsufficientPulsesError(
            f"block needs {needed} slots, only {available_positions.size} available"
        )
    random_bits = rng.integers(0, 2, size=code.k_r, dtype=np.uint8)
    v = ldpc_encode(uhf_map(message_bits, random_bits, code), code.g_rows)
    if n_fwd > 0:
        fwd_local = np.sort(rng.choice(needed, size=n_fwd, replace=False))
        fwd_values = rng.integers(0, 2, size=n_fwd, dtype=np.uint8)
    else:
        fwd_local = np.empty(0, dtype=np.int64)
        fwd_values = np.empty(0, dtype=np.uint8)
    return _DenseLayout(block_index, v, available_positions[:needed], fwd_local, fwd_values)


def _dense_ops(layout, code):
    """Alice's op on every consumed slot: the whole chip sequence poured
    into the slots that are not forward checks."""
    chips = spread(layout.codeword, code, layout.block_index, np.arange(code.block_chips))
    ops = np.empty(layout.consumed_positions.size, dtype=np.uint8)
    chip_mask = np.ones(ops.size, dtype=bool)
    chip_mask[layout.fwd_local] = False
    ops[layout.fwd_local] = layout.fwd_values
    ops[chip_mask] = chips
    return ops


def _observed_record(layout, det_local):
    """What the engine discloses of a dense layout at the detected
    consumed-slot indices det_local (ascending): the detected forward-check
    values and chip indices, and the order that lists the detections as
    the engine does, forward checks first."""
    rank = np.searchsorted(layout.fwd_local, det_local)
    is_fwd = np.isin(det_local, layout.fwd_local)
    fwd_values = layout.fwd_values[rank[is_fwd]]
    chip_idx = det_local[~is_fwd] - rank[~is_fwd]
    return fwd_values, chip_idx, np.concatenate([np.flatnonzero(is_fwd), np.flatnonzero(~is_fwd)])


def _dense_block_attempt(config, code, chunk_bits, seed, serial, attack):
    """One block attempt of a fresh session, every slot drawn: Bob's
    states and the attack on all n_sent slots, one detection draw per
    slot on each path, and the layout over the slots left unchecked."""
    ss = np.random.SeedSequence([seed, serial])
    bob_rng, channel_rng, alice_rng, attack_rng = (
        np.random.default_rng(child) for child in ss.spawn(4)
    )
    n_sent = config.slots_per_block
    bob_codes = bob_prepare_block(n_sent, bob_rng)
    wire = attack.apply(bob_codes, attack_rng)
    received = np.flatnonzero(channel_rng.random(n_sent) < config.check_channel.survival)
    fields = dict(block_index=0, attempt=0, n_sent=n_sent, n_received_check=received.size)
    arriving = flip_codes(wire[received], config.check_channel.flip_prob, channel_rng)
    selected = alice_rng.random(received.size) < config.check_fraction
    checked = received[selected]
    bases, check_outcomes = alice_sample_check(arriving[selected], alice_rng)
    counts = bob_estimate_errors(bases, check_outcomes, bob_codes[checked])
    q_hat = received.size / n_sent
    fields.update(counts, n_checked=checked.size, q_hat=q_hat)
    if not (counts["n_x"] and counts["n_z"]):
        return BlockRecord(**fields, status="deferred-empty-basis"), None
    proceed, estimate = _Session(config, code, seed, attack).gate(counts, q_hat)
    fields.update(c_s=estimate.c_s)
    if not proceed:
        return BlockRecord(**fields, status="gate-abort"), None
    try:
        layout = _dense_encode_block(
            chunk_bits, code, _available_slots(n_sent, checked),
            config.n_forward_checks, alice_rng, serial,
        )
    except InsufficientPulsesError:
        return BlockRecord(**fields, status="deferred-insufficient-slots"), None

    consumed = layout.consumed_positions
    det_local = np.flatnonzero(channel_rng.random(consumed.size) < config.data_channel.survival)
    det_positions = consumed[det_local]
    returned = wire[det_positions] ^ _dense_ops(layout, code)[det_local]
    det_codes = flip_codes(returned, config.data_channel.flip_prob, channel_rng)
    outcomes = measure_codes(det_codes, bob_codes[det_positions] >> 1, channel_rng)
    fwd_values, chip_idx, order = _observed_record(layout, det_local)
    message_bits, decoded = bob_decode_block(
        outcomes[order], bob_codes[det_positions][order], fwd_values, chip_idx, code,
        layout.block_index, config.e_margin,
    )
    fields.update(decoded)
    return BlockRecord(**fields), message_bits


# --- the gate's former rule: the rate pair rescaled ------------------------


def _rescaling_gate(e_x, e_z, e, q_bob, g):
    """gate_on_capacity as it was: a pair with e_x + e_z > 0.5, where
    Eve's information is already maximal, is scaled back onto the
    boundary.  A scaled pair can still sum to an ulp above 0.5, and each
    further pass lowers it, so this ends after one or two passes."""
    while e_x + e_z > 0.5:
        scale = 0.5 / (e_x + e_z)
        e_x *= scale
        e_z *= scale
    estimate = half_bias_capacity(ErrorRates(e_x=e_x, e_z=e_z, e=min(e, 0.5)), q_bob, g)
    return estimate.c_s > 0.0, estimate


# --- tests ----------------------------------------------------------------


def test_code_params_key_roundtrip():
    params = CodeParams(l=64, k_u=32, k_r=8, n_spread=4, seed=3)
    code = realize_code(params)
    assert code.l == 64 and code.k_m == 24
    assert realize_code(params) is code  # cached


# a code that builds in milliseconds
_CACHED = CodeParams(l=64, k_u=32, k_r=8, n_spread=4, seed=3)


@pytest.fixture
def code_cache(tmp_path, monkeypatch):
    """An empty on-disk code cache and an empty process-wide one; yields
    the cache directory realize_code writes to."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    realize_code.cache_clear()
    yield tmp_path / "xdg" / "qsdc"
    realize_code.cache_clear()


def _no_build(*args):
    raise AssertionError("built a code the disk cache holds")


def _assert_same_code(code, built):
    assert code_description(code) == code_description(built)
    pairs = [(code.edges.slots, built.edges.slots), (code.edges.pad, built.edges.pad),
             (code.edges.var_edges, built.edges.var_edges), (code.edges.checks, built.edges.checks),
             (code.info_positions, built.info_positions)]
    for name in ("g_rows", "uhf_rows", "uhf_inv_rows"):
        mine, theirs = getattr(code, name), getattr(built, name)
        assert mine.n_cols == theirs.n_cols
        pairs.append((mine.rows, theirs.rows))
    for mine, theirs in pairs:
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert (code.edges.n_checks, code.edges.n_vars) == (built.edges.n_checks, built.edges.n_vars)


def test_realize_code_loads_a_stored_code_without_building(code_cache, monkeypatch):
    realize_code(_CACHED)
    realize_code.cache_clear()
    monkeypatch.setattr(qsdc.protocol, "build_code", _no_build)
    _assert_same_code(realize_code(_CACHED), build_code(_CACHED))


def test_realize_code_stores_one_file_per_miss(code_cache):
    realize_code(_CACHED)
    files = list(code_cache.iterdir())
    assert len(files) == 1 and files[0].suffix == ".npz"
    assert not list(code_cache.glob("*.tmp"))


def test_realize_code_rebuilds_and_replaces_a_damaged_file(code_cache):
    realize_code(_CACHED)
    (path,) = code_cache.iterdir()
    good = path.read_bytes()
    built = build_code(_CACHED)
    # a byte inside g's stored rows, past every zip and .npy header
    flipped = bytearray(good)
    flipped[good.index(built.g_rows.rows.tobytes()) + 5] ^= 0x01
    # a sound zip whose g no longer matches the digest stored beside it
    with np.load(path) as f:
        arrays = dict(f)
    arrays["g_rows"] ^= 1
    forged = io.BytesIO()
    np.savez(forged, **arrays)
    for damaged in (good[: len(good) // 2], bytes(flipped), forged.getvalue()):
        path.write_bytes(damaged)
        realize_code.cache_clear()
        _assert_same_code(realize_code(_CACHED), built)
        assert list(code_cache.iterdir()) == [path] and path.read_bytes() != damaged
        # the replacement loads
        realize_code.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qsdc.protocol, "build_code", _no_build)
            _assert_same_code(realize_code(_CACHED), built)


def test_load_code_refuses_every_flipped_byte_quietly(code_cache):
    # a flip in the zip's or the arrays' headers raises many types inside
    # np.load; each must read as a miss, and a flip that leaves the arrays
    # whole (a time stamp, say) loads the same code
    tiny = CodeParams(l=16, k_u=8, k_r=2, n_spread=2, seed=1)
    realize_code(tiny)
    (path,) = code_cache.iterdir()
    good = path.read_bytes()
    described = code_description(build_code(tiny))
    loaded = 0
    for i in range(len(good)):
        flipped = bytearray(good)
        flipped[i] ^= 0x01
        path.write_bytes(flipped)
        code = load_code(tiny)
        if code is not None:
            loaded += 1
            assert code_description(code) == described, i
    assert 0 < loaded < len(good) // 2


def test_realize_code_builds_when_the_cache_cannot_be_made(code_cache, tmp_path, monkeypatch):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(not_a_dir))
    _assert_same_code(realize_code(_CACHED), build_code(_CACHED))
    assert not_a_dir.read_text() == ""


def test_stored_code_is_keyed_on_what_build_code_reads(code_cache):
    # k_r and n_spread lay the code out but never enter its matrices
    realize_code(_CACHED)
    for layout in (dataclasses.replace(_CACHED, k_r=12), dataclasses.replace(_CACHED, n_spread=9)):
        code = realize_code(layout)
        assert (code.k_r, code.n_spread) == (layout.k_r, layout.n_spread)
        _assert_same_code(code, build_code(layout))
    assert len(list(code_cache.iterdir())) == 1
    for change in ({"l": 72}, {"k_u": 36}, {"seed": 4}):
        before = set(code_cache.iterdir())
        realize_code(dataclasses.replace(_CACHED, **change))
        assert len(set(code_cache.iterdir()) - before) == 1, change


def test_config_validation():
    # block_pulses is accepted only as the code's footprint, and not stored
    for pulses in (10, 1_088_961):
        with pytest.raises(ValueError, match="set it to 1088960"):
            ProtocolConfig(block_pulses=pulses)
    assert ProtocolConfig(block_pulses=1_088_960) == ProtocolConfig()
    code = CodeParams(l=256, k_u=128, k_r=32, n_spread=8, seed=99)
    replaced = dataclasses.replace(ProtocolConfig(), code=code, block_pulses=code.block_chips)
    assert replaced.code == code
    with pytest.raises(ValueError, match="set it to 2048"):
        dataclasses.replace(ProtocolConfig(), code=code, block_pulses=1_088_960)
    assert "block_pulses" not in {f.name for f in dataclasses.fields(ProtocolConfig)}
    with pytest.raises(ValueError):
        ProtocolConfig(check_fraction=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(forward_check_fraction=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(e_margin=0.0)
    # checking every slot of a lossless check path leaves none for data
    with pytest.raises(ValueError):
        ProtocolConfig(check_fraction=1.0, check_channel=ChannelParams(0.0, 0.0))
    assert ProtocolConfig(check_fraction=1.0).slots_per_block > 0
    assert ProtocolConfig(check_channel=ChannelParams(0.0, 0.0)).slots_per_block > 0


def test_nominal_config_values():
    cfg = nominal_config()
    assert cfg.code.block_chips == 1_088_960
    assert cfg.code.l == 1312 and cfg.code.k_u == 656 and cfg.code.n_spread == 830
    assert cfg.g == pytest.approx(2.5703957827688635)
    assert cfg.check_channel.loss_db == 25.1
    assert cfg.slots_per_block >= cfg.code.block_chips + cfg.n_forward_checks


def test_slots_accounting():
    cfg = nominal_config()
    chips = cfg.code.n_spread * cfg.code.l
    assert cfg.code.block_chips == chips
    assert cfg.n_forward_checks == math.ceil(chips * 0.05 / 0.95)


def test_bob_prepare_block(rng):
    codes = bob_prepare_block(10000, rng)
    assert codes.dtype == np.uint8
    assert set(np.unique(codes)) <= {0, 1, 2, 3}
    assert bob_prepare_block(0, rng).size == 0
    with pytest.raises(ValueError):
        bob_prepare_block(-1, rng)


def test_alice_sample_check_structure(rng):
    codes = rng.integers(0, 4, 5000, dtype=np.uint8)
    bases, outcomes = alice_sample_check(codes, rng)
    assert bases.shape == outcomes.shape == codes.shape
    assert set(np.unique(bases)) <= {0, 1}
    # a pulse measured in its own basis gives its bit; about half are
    matched = (codes >> 1) == bases
    assert (outcomes[matched] == (codes[matched] & 1)).all()
    assert abs(matched.sum() - 2500) < 5 * np.sqrt(5000 * 0.25)


def test_alice_sample_check_empty(rng):
    # nothing checked: an empty disclosure, and both estimates undefined
    bases, outcomes = alice_sample_check(np.empty(0, dtype=np.uint8), rng)
    assert bases.size == outcomes.size == 0
    counts = bob_estimate_errors(bases, outcomes, np.empty(0, dtype=np.uint8))
    assert counts["e_x"] is None and counts["e_z"] is None
    assert counts["n_x"] == counts["n_z"] == 0


def test_bob_estimate_errors_hand_case():
    # bob prepared: Z0 Z1 XP XM Z0; alice measured bases Z Z X Z X
    bob_codes = np.array([0b00, 0b01, 0b10, 0b11, 0b00], dtype=np.uint8)
    bases = np.array([0, 0, 1, 0, 1], dtype=np.uint8)
    outcomes = np.array([0, 0, 1, 1, 0], dtype=np.uint8)
    counts = bob_estimate_errors(bases, outcomes, bob_codes)
    # matched: pos 0 (ok), 1 (err: outcome 0 vs bit 1), 2 (err: 1 vs 0); pos 3/4 unmatched
    assert counts == dict(n_z=2, n_x=1, err_z=1, err_x=1, e_z=0.5, e_x=1.0)


def test_bob_estimate_errors_undefined_bucket():
    bob_codes = np.array([0b00], dtype=np.uint8)
    zero = np.array([0], dtype=np.uint8)
    counts = bob_estimate_errors(zero, zero, bob_codes)
    assert counts["n_x"] == 0 and counts["e_x"] is None
    assert counts["n_z"] == 1 and counts["e_z"] == 0.0


def test_gate_passes_at_nominal_rates():
    proceed, estimate = gate_on_capacity(0.008, 0.008, 0.006, 0.00309, 2.5703957827688635)
    assert proceed
    assert estimate.c_s > 0
    assert estimate.i_ae > 0


def test_gate_aborts_under_attack_rates():
    proceed, estimate = gate_on_capacity(0.25, 0.25, 0.006, 0.00309, 2.57)
    assert not proceed
    assert estimate.c_s <= 0.0


def test_gate_survives_saturated_rates():
    # measured rates can exceed the formula domain; the gate must not crash
    proceed, _ = gate_on_capacity(0.4, 0.4, 0.5, 0.00309, 2.57)
    assert not proceed


# a pair that the former rule's first rescaling left an ulp above 0.5
_RESCALE_ULP_PAIR = (0.27535131086748066, 0.2538143313219278)


def test_gate_survives_rescale_rounding():
    # this pair sums above 0.5, outside the entropy-formula domain, and
    # rescaling it onto the boundary took two passes; capping the sum
    # must decide as that did
    proceed, _ = gate_on_capacity(*_RESCALE_ULP_PAIR, 0.006, 0.00309, 2.57)
    assert not proceed


def test_gate_matches_rescaling_rule_on_count_ratio_grid():
    # every check rate e_x, e_z that counts of up to 20 pulses give,
    # 14,629 of the 16,641 pairs summing above 0.5
    ratios = sorted({err / n for n in range(1, 21) for err in range(n + 1)})
    for e_x in ratios:
        for e_z in ratios:
            args = (e_x, e_z, 0.006, 0.00309, 2.57)
            assert gate_on_capacity(*args) == _rescaling_gate(*args), args
    args = (*_RESCALE_ULP_PAIR, 0.006, 0.00309, 2.57)
    assert gate_on_capacity(*args) == _rescaling_gate(*args)


_COUNTS = st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n)))


@given(_COUNTS, _COUNTS, _COUNTS, st.floats(0.0, 1.0), st.floats(0.0, 10.0))
@settings(max_examples=300, deadline=None)
def test_gate_matches_rescaling_rule_on_pooled_counts(x, z, fwd, q_bob, g):
    # the pooled rates the session gate decides on: ratios of counts
    args = (x[0] / x[1], z[0] / z[1], fwd[0] / fwd[1], q_bob, g)
    assert gate_on_capacity(*args) == _rescaling_gate(*args)


def test_gate_ignores_code_random_bit_rate(fast_config):
    # the code's random-bit rate per pulse is no gate input: the gate
    # decides on c_s alone, even where i_ae exceeds k_r per pulse
    code = realize_code(fast_config.code)
    k_r_per_pulse = code.k_r / code.block_chips
    assert k_r_per_pulse == pytest.approx(32 / (8 * 256))
    proceed, estimate = gate_on_capacity(0.008, 0.008, 0.006, 0.3, 1.1)
    assert estimate.i_ae > k_r_per_pulse
    assert proceed


def _codeword(msg, code, seed):
    # the codeword alice_encode_block draws from default_rng(seed): its
    # random bits come first
    random_bits = np.random.default_rng(seed).integers(0, 2, size=code.k_r, dtype=np.uint8)
    return ldpc_encode(uhf_map(msg, random_bits, code), code.g_rows)


def test_encode_block_layout(fast_config, rng):
    code = realize_code(fast_config.code)
    msg = rng.integers(0, 2, code.k_m, dtype=np.uint8)
    n_fwd = fast_config.n_forward_checks
    assert n_fwd == math.ceil(code.block_chips * 0.05 / 0.95)
    chip_idx = np.array([0, 5, 17, code.block_chips - 1])
    fwd_values, ops = alice_encode_block(
        msg, code, 7, chip_idx, np.random.default_rng(5), block_index=2
    )
    assert ops.size == 7 + chip_idx.size
    assert fwd_values.size == 7 and set(np.unique(fwd_values)) <= {0, 1}
    # the codeword satisfies every parity check
    codeword = _codeword(msg, code, 5)
    assert not gf2_matmul(code.edges.parity_rows().unpack(), codeword[:, None]).any()
    # forward checks first, then the chips at their indices
    assert np.array_equal(ops[:7], fwd_values)
    assert np.array_equal(ops[7:], spread(codeword, code, 2, chip_idx))


def test_encode_ops_equal_dense_ops(fast_config, rng):
    code = realize_code(fast_config.code)
    available = np.sort(rng.choice(6000, 5000, replace=False))
    for seed, n_fwd in ((1, fast_config.n_forward_checks), (2, 0)):
        msg = rng.integers(0, 2, code.k_m, dtype=np.uint8)
        layout = _dense_encode_block(
            msg, code, available, n_fwd, np.random.default_rng(seed), block_index=3
        )
        assert layout.fwd_local.size == n_fwd
        dense = _dense_ops(layout, code)
        # any detected subset of the consumed slots
        det_local = np.sort(rng.permutation(dense.size)[:700])
        dense_fwd, chip_idx, order = _observed_record(layout, det_local)
        # the same seed gives the same codeword; the forward-check values
        # are drawn after it, in another order than the dense layout's
        fwd_values, ops = alice_encode_block(
            msg, code, dense_fwd.size, chip_idx, np.random.default_rng(seed), block_index=3
        )
        assert np.array_equal(ops[: fwd_values.size], fwd_values)
        assert np.array_equal(ops[fwd_values.size :], dense[det_local][order][dense_fwd.size :])


def test_single_use_of_checked_pulses(fast_config, rng):
    # in the dense oracle a disclosed check position is never modulated
    # afterwards; the engine keeps check and data slots apart by count
    code = realize_code(fast_config.code)
    n = fast_config.slots_per_block
    positions = np.nonzero(rng.random(n) < 0.5)[0]
    checked = positions[rng.random(positions.size) < 0.1]
    available = _available_slots(n, checked)
    msg = np.zeros(code.k_m, dtype=np.uint8)
    layout = _dense_encode_block(msg, code, available, fast_config.n_forward_checks, rng, 0)
    assert np.intersect1d(layout.consumed_positions, checked).size == 0
    # chips and forward checks partition the consumed set
    assert layout.fwd_local.size + code.block_chips == layout.consumed_positions.size
    # the available slots are exactly the complement of the disclosure,
    # including an empty disclosure and both end slots
    disclosures = [checked, np.empty(0, dtype=np.int64), np.array([0, n - 1])]
    disclosures += [np.sort(rng.choice(n, k, replace=False)) for k in (1, 50, n // 2, n)]
    for disclosed in disclosures:
        expected = np.setdiff1d(np.arange(n, dtype=np.int64), disclosed)
        assert np.array_equal(_available_slots(n, disclosed), expected)


def _full_block(config, code, msg, rng):
    # every data slot detected: all forward checks, then every chip; Bob's
    # prepared states and the wire codes Alice returns
    chip_idx = np.arange(code.block_chips)
    fwd_values, ops = alice_encode_block(
        msg, code, config.n_forward_checks, chip_idx, rng, block_index=0
    )
    prepared = rng.integers(0, 4, ops.size, dtype=np.uint8)
    return fwd_values, chip_idx, prepared, prepared ^ ops


def test_decode_block_perfect_channel(fast_config, rng):
    code = realize_code(fast_config.code)
    msg = rng.integers(0, 2, code.k_m, dtype=np.uint8)
    fwd_values, chip_idx, prepared, wire = _full_block(fast_config, code, msg, rng)
    outcomes = wire & 1  # measuring in the preparation basis, no noise
    message_bits, decoded = bob_decode_block(
        outcomes, prepared, fwd_values, chip_idx, code, 0, e_margin=0.03
    )
    assert decoded["status"] == "ok"
    assert (message_bits == msg).all()
    assert decoded["e_fwd"] == 0.0
    assert decoded["n_chip_detected"] == code.block_chips


def test_decode_block_error_margin_abort(fast_config, rng):
    code = realize_code(fast_config.code)
    msg = rng.integers(0, 2, code.k_m, dtype=np.uint8)
    fwd_values, chip_idx, prepared, wire = _full_block(fast_config, code, msg, rng)
    # 10% flips exceed the 3% margin
    outcomes = (wire & 1) ^ (rng.random(wire.size) < 0.10).astype(np.uint8)
    _, decoded = bob_decode_block(
        outcomes, prepared, fwd_values, chip_idx, code, 0, e_margin=0.03
    )
    assert decoded["status"] == "abort-error-margin"


def _count_bp_calls(monkeypatch) -> list:
    """Patch the engine's BP decoder to log each call in the returned list."""
    calls = []

    def counting(*args):
        calls.append(args)
        return bp_decode(*args)

    monkeypatch.setattr(qsdc.protocol, "bp_decode", counting)
    return calls


def test_underdetermined_block_is_not_delivered(monkeypatch):
    # at 60 dB a nominal block detects a few chips at most; the erased
    # coded bits would hard-decide to 0, so BP would converge on a codeword
    # the chips never determined: the block is retried, not decoded
    calls = _count_bp_calls(monkeypatch)
    config = dataclasses.replace(nominal_config(), data_channel=ChannelParams(60.0, 0.006))
    tr = run_session(config, b"hello", seed=0)
    assert [b.status for b in tr.blocks] == ["fail-underdetermined"] * (MAX_BLOCK_RETRIES + 1)
    assert tr.abort_reason == "decode-failure" and tr.delivered == b""
    assert not calls
    assert all(b.bp_iterations == 0 for b in tr.blocks)


@given(st.binary(min_size=0, max_size=200))
@settings(max_examples=50, deadline=None)
def test_frame_unframe_roundtrip(payload):
    chunks = _frame_message(payload, 96)
    assert all(c.size == 96 for c in chunks)
    assert _unframe_message(chunks) == payload


def test_unframe_refuses_a_wrong_tag_or_a_header_past_the_bits():
    frame = np.concatenate(_frame_message(b"tagged", 13))
    # a flip of any bit of header, payload or tag; the padding is not framed
    for i in range(8 * (4 + 6 + 4)):
        wrong = frame.copy()
        wrong[i] ^= 1
        assert _unframe_message([wrong]) is None, i
    # a header that names more bytes than were decoded
    past = np.unpackbits(np.frombuffer((1000).to_bytes(4, "big") + bytes(8), dtype=np.uint8))
    assert _unframe_message([past]) is None


def test_no_short_code_session_ends_ok_with_wrong_bytes():
    # a code of 3 message bits in 8 often converges to a wrong codeword at
    # these rates: without the frame's tag, 30 of these 40 sessions ended
    # ok with wrong bytes.  The tag turns each such session into a
    # tag-mismatch, which delivers nothing
    config = ProtocolConfig(
        code=CodeParams(8, 4, 1, 4, seed=7),
        check_channel=ChannelParams(5.0, 0.006),
        data_channel=ChannelParams(5.0, 0.006),
        e_margin=0.12,
    )
    reasons = []
    for s in range(1, 41):
        payload = np.random.default_rng(s).bytes(4)
        tr = run_session(config, payload, seed=s)
        assert tr.delivered == (payload if tr.ok else b""), s
        reasons.append(tr.abort_reason)
    assert "tag-mismatch" in reasons


@pytest.mark.parametrize("k_m", [1, 3, 7, 8, 13, 96])
def test_payload_bytes_for_blocks_frames_into_exactly_n_blocks(k_m):
    # the longest whole-byte payload that frames into n blocks, or a
    # ValueError where none does
    for n_blocks in range(1, 41):
        fits = [
            size for size in range(1, n_blocks * k_m // 8 + 2)
            if len(_frame_message(bytes(size), k_m)) == n_blocks
        ]
        if fits:
            assert payload_bytes_for_blocks(n_blocks, k_m) == max(fits)
        else:
            with pytest.raises(ValueError, match=f"exactly {n_blocks} blocks of {k_m} "):
                payload_bytes_for_blocks(n_blocks, k_m)


def test_session_roundtrip(fast_config):
    msg = bytes(range(64))
    tr = run_session(fast_config, msg, seed=11)
    assert tr.ok
    assert tr.delivered == msg
    assert tr.summary()["pulses_emitted"] == sum(b.n_sent for b in tr.blocks)
    assert all(b.status == "ok" for b in tr.blocks)


def test_session_deterministic(fast_config):
    msg = b"repeatable payload"
    a = run_session(fast_config, msg, seed=21)
    b = run_session(fast_config, msg, seed=21)
    assert a.to_jsonl() == b.to_jsonl()
    c = run_session(fast_config, msg, seed=22)
    assert a.to_jsonl() != c.to_jsonl()


def test_session_empty_message(fast_config, monkeypatch, tmp_path):
    # no block is sent, so a code not yet in the cache is never built
    def no_build(*args):
        raise AssertionError("an empty message built the wiretap code")

    monkeypatch.setattr(qsdc.protocol, "build_code", no_build)
    # nor is the disk cache looked up
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    config = dataclasses.replace(fast_config, code=dataclasses.replace(fast_config.code, seed=4242))
    tr = run_session(config, b"", seed=5)
    assert not (tmp_path / "xdg").exists()
    assert tr.ok and tr.delivered == b"" and len(tr.blocks) == 0
    assert tr.config == config
    assert (tr.summary()["pulses_emitted"], tr.summary()["throughput_bits_per_s"]) == (0, 0.0)


def test_session_gate_abort_on_intercept_resend(fast_config):
    tr = run_session(fast_config, b"abc", seed=9, attack=AttackModel.intercept_resend(1.0))
    assert tr.security_abort
    assert tr.abort_reason == "capacity-gate"
    assert tr.delivered == b""
    assert tr.blocks[-1].status == "gate-abort"
    assert tr.blocks[-1].c_s <= 0


_POOLED = ("err_x", "n_x", "err_z", "n_z", "fwd_errors", "n_fwd_detected")
# the statuses of an attempt that passed the gate and reached the data path
_DECODE_STATUSES = ("abort-error-margin", "fail-underdetermined", "fail-no-converge", "ok")


@pytest.mark.parametrize(
    "flip, message, seed, attack, min_retries",
    [
        (0.09, b"retries please" * 6, 202, None, 3),
        (0.006, bytes(range(200)), 17, AttackModel.optimal_collective(0.02, 0.01), 0),
    ],
    ids=["honest with retries", "collective (0.02, 0.01)"],
)
def test_gate_decisions_recompute_from_jsonl(fast_config, flip, message, seed, attack, min_retries):
    # each gate decision follows from the JSONL block lines alone: the
    # earlier lines' integer counts summed, plus this line's counts and q_hat
    config = dataclasses.replace(fast_config, data_channel=ChannelParams(5.0, flip))
    tr = run_session(config, message, seed=seed, attack=attack)
    assert tr.ok and tr.delivered == message
    blocks = [json.loads(line) for line in tr.to_jsonl().splitlines()[:-1]]
    assert sum(b["attempt"] > 0 for b in blocks) >= min_retries
    pooled = dict.fromkeys(_POOLED, 0)
    for b in blocks:
        # the gate passed on every attempt of a delivered session
        assert b["status"] in _DECODE_STATUSES
        n_fwd = pooled["n_fwd_detected"]
        proceed, estimate = gate_on_capacity(
            (pooled["err_x"] + b["err_x"]) / (pooled["n_x"] + b["n_x"]),
            (pooled["err_z"] + b["err_z"]) / (pooled["n_z"] + b["n_z"]),
            pooled["fwd_errors"] / n_fwd if n_fwd else config.data_channel.flip_prob,
            b["q_hat"],
            config.g,
        )
        assert (estimate.c_s, proceed) == (b["c_s"], True)
        assert b["e_fwd"] == b["fwd_errors"] / b["n_fwd_detected"]
        pooled = {k: pooled[k] + b[k] for k in _POOLED}


def test_session_decode_failure_after_retries(monkeypatch):
    # data path noise far beyond the margin: every attempt aborts before
    # BP, and the session gives up after MAX_BLOCK_RETRIES
    calls = _count_bp_calls(monkeypatch)
    config = ProtocolConfig(
        code=CodeParams(l=256, k_u=128, k_r=32, n_spread=8, seed=99),
        check_channel=ChannelParams(5.0, 0.0),
        data_channel=ChannelParams(5.0, 0.2),
    )
    tr = run_session(config, b"x", seed=13)
    assert not tr.ok
    assert tr.abort_reason == "decode-failure"
    assert len(tr.blocks) == MAX_BLOCK_RETRIES + 1  # initial attempt plus the retries
    assert all(b.status == "abort-error-margin" for b in tr.blocks)
    assert not tr.security_abort
    assert not calls
    assert all(b.bp_iterations == 0 for b in tr.blocks)


def _fading_data_path(fast_config) -> ProtocolConfig:
    # 10 dB on the data path: about 0.8 detected chips per coded bit, near
    # the code's threshold, so BP often runs all its iterations unconverged
    return dataclasses.replace(fast_config, data_channel=ChannelParams(10.0, 0.006))


def test_session_retries_a_block_bp_did_not_converge_on(fast_config):
    tr = run_session(_fading_data_path(fast_config), b"x", seed=14)
    assert tr.ok and tr.delivered == b"x"
    failed, delivered = (json.loads(line) for line in tr.to_jsonl().splitlines()[:-1])
    assert (failed["status"], failed["attempt"], failed["bp_iterations"]) == ("fail-no-converge", 0, 100)
    assert (delivered["status"], delivered["attempt"], delivered["block_index"]) == ("ok", 1, 0)


def test_session_decode_failure_after_unconverged_decodes(fast_config):
    tr = run_session(_fading_data_path(fast_config), b"x", seed=8)
    assert tr.abort_reason == "decode-failure" and not tr.security_abort
    assert tr.delivered == b""
    assert [b.status for b in tr.blocks] == ["fail-no-converge"] * (MAX_BLOCK_RETRIES + 1)
    assert all(b.bp_iterations == 100 for b in tr.blocks)


# the record status of each scripted attempt outcome
_SCRIPTED_STATUS = {
    "deferred": "deferred-empty-basis", "abort": "gate-abort", "fail": "fail-no-converge", "ok": "ok",
}
_ALL_ATTEMPTS = [(0, a) for a in range(MAX_BLOCK_RETRIES + 1)]


@pytest.mark.parametrize(
    "n_blocks, script, records, abort_reason",
    [
        (1, ["deferred"] * 4 + ["fail"] + ["deferred"] * 4, _ALL_ATTEMPTS, "decode-failure"),
        (1, ["deferred", "ok"], [(0, 0), (0, 1)], None),
        (2, ["deferred", "ok", "abort"], [(0, 0), (0, 1), (1, 0)], "capacity-gate"),
        (1, ["deferred"] * (MAX_BLOCK_RETRIES + 1), _ALL_ATTEMPTS, "deferred"),
    ],
    ids=["deferrals and a failure", "deferred then ok", "abort on block 1", "all deferred"],
)
def test_session_end_rule(fast_config, monkeypatch, n_blocks, script, records, abort_reason):
    # each attempt's outcome is scripted: an emptied check sample defers
    # it, the gate aborts it or the decode fails it; "ok" runs the engine
    real_estimate, real_gate, real_decode = bob_estimate_errors, gate_on_capacity, bob_decode_block
    steps, taken = iter(script), []

    def estimate(bases, outcomes, prepared):
        taken.append(next(steps))
        if taken[-1] == "deferred":
            bases, outcomes, prepared = bases[:0], outcomes[:0], prepared[:0]
        return real_estimate(bases, outcomes, prepared)

    def gate(*args):
        return taken[-1] != "abort", real_gate(*args)[1]

    def decode(*args):
        message_bits, decoded = real_decode(*args)
        if taken[-1] == "fail":
            return None, dict(decoded, status="fail-no-converge")
        return message_bits, decoded

    monkeypatch.setattr(qsdc.protocol, "bob_estimate_errors", estimate)
    monkeypatch.setattr(qsdc.protocol, "gate_on_capacity", gate)
    monkeypatch.setattr(qsdc.protocol, "bob_decode_block", decode)
    size = payload_bytes_for_blocks(n_blocks, realize_code(fast_config.code).k_m)
    message = (b"end rule " * size)[:size]
    tr = run_session(fast_config, message, seed=21)
    assert taken == script
    assert [(b.block_index, b.attempt, b.status) for b in tr.blocks] == [
        (*r, _SCRIPTED_STATUS[s]) for r, s in zip(records, script)
    ]
    assert tr.abort_reason == abort_reason
    assert tr.delivered == (message if abort_reason is None else b"")


def test_session_transcript_jsonl(fast_config):
    tr = run_session(fast_config, b"json lines", seed=17)
    lines = tr.to_jsonl().strip().split("\n")
    parsed = [json.loads(line) for line in lines]
    assert parsed[-1]["record"] == "summary"
    assert parsed[-1]["delivered_bytes"] == 10
    assert all(p["record"] == "block" for p in parsed[:-1])
    assert parsed[0]["status"] == "ok"


@pytest.mark.parametrize("message", [b"", b"code params"])
def test_summary_names_the_code(fast_config, message):
    tr = run_session(fast_config, message, seed=17)
    assert tr.delivered == message
    summary = json.loads(tr.to_jsonl().splitlines()[-1])
    assert CodeParams(**summary["code"]) == fast_config.code


def test_session_throughput_accounting(fast_config):
    msg = bytes(200)
    tr = run_session(fast_config, msg, seed=31)
    pulses = sum(b.n_sent for b in tr.blocks)
    expected = len(msg) * 8 / pulses * fast_config.repetition_rate_hz
    assert tr.summary()["throughput_bits_per_s"] == pytest.approx(expected)


def test_session_zero_noise_perfect():
    config = ProtocolConfig(
        code=CodeParams(l=256, k_u=128, k_r=32, n_spread=8, seed=99),
        check_channel=ChannelParams(3.0, 0.0),
        data_channel=ChannelParams(3.0, 0.0),
    )
    tr = run_session(config, b"noiseless", seed=2)
    assert tr.ok and tr.delivered == b"noiseless"
    for b in tr.blocks:
        assert b.e_x == 0.0 and b.e_z == 0.0 and b.e_fwd == 0.0


def _two_sample_band(label, k1, n1, k2, n2, z=5.0):
    """k1/n1 and k2/n2 must agree within z pooled binomial sigmas."""
    assert n1 > 0 and n2 > 0, f"{label}: no samples ({n1}, {n2})"
    p = (k1 + k2) / (n1 + n2)
    sigma = math.sqrt(p * (1.0 - p) * (1.0 / n1 + 1.0 / n2))
    assert abs(k1 / n1 - k2 / n2) <= z * sigma, f"{label}: {k1}/{n1} vs {k2}/{n2}"


def _pooled_counts(attempts, needed):
    """Pooled (successes, trials) of each compared statistic."""
    c = dict.fromkeys(
        ("check", "checked", "err_x", "err_z", "data", "fwd_share", "fwd_err", "ok"), (0, 0)
    )

    def add(key, k, n):
        c[key] = (c[key][0] + k, c[key][1] + n)

    for record, message_bits in attempts:
        add("check", record.n_received_check, record.n_sent)
        add("checked", record.n_checked, record.n_received_check)
        add("err_x", record.err_x, record.n_x)
        add("err_z", record.err_z, record.n_z)
        add("ok", record.status == "ok", 1)
        if record.status in _DECODE_STATUSES:
            detected = record.n_fwd_detected + record.n_chip_detected
            add("data", detected, needed)
            add("fwd_share", record.n_fwd_detected, detected)
            add("fwd_err", record.fwd_errors, record.n_fwd_detected)
    return c


@pytest.mark.parametrize(
    "attack",
    [
        AttackModel.none(),
        AttackModel.intercept_resend(0.3),
        AttackModel.optimal_collective(0.02, 0.01),
    ],
    ids=["honest", "intercept-resend 0.3", "collective (0.02, 0.01)"],
)
def test_engine_matches_dense_oracle_statistics(fast_config, attack):
    # the engine draws in another order than the dense oracle, so the
    # two are compared in distribution: every pooled rate within 5 sigma
    code = realize_code(fast_config.code)
    chunk = np.random.default_rng(0).integers(0, 2, code.k_m, dtype=np.uint8)
    needed = code.block_chips + fast_config.n_forward_checks
    n_attempts = 400
    sparse = [
        _Session(fast_config, code, 101, attack).attempt(chunk, c, 0, 0)
        for c in range(n_attempts)
    ]
    dense = [
        _dense_block_attempt(fast_config, code, chunk, 202, c, attack)
        for c in range(n_attempts)
    ]
    got, want = _pooled_counts(sparse, needed), _pooled_counts(dense, needed)
    for key, (k, n) in got.items():
        k_dense, n_dense = want[key]
        if n == n_dense == 0:
            # the gate stops every intercepted attempt before the data path
            assert attack.kind is AttackKind.INTERCEPT_RESEND, key
            continue
        _two_sample_band(key, k, n, k_dense, n_dense)


def test_data_detection_draw():
    config = nominal_config()
    n_chips = config.code.n_spread * config.code.l
    n_fwd = config.n_forward_checks
    survival = config.data_channel.survival
    rng = np.random.default_rng(77)
    fwd = total = 0
    for _ in range(200):
        n_fwd_det, chip_idx = draw_data_detections(n_chips, n_fwd, survival, rng)
        assert chip_idx.dtype == np.int64
        assert (np.diff(chip_idx) > 0).all()  # distinct and ascending
        assert chip_idx[0] >= 0 and chip_idx[-1] < n_chips
        fwd += n_fwd_det
        total += n_fwd_det + chip_idx.size
    needed = n_chips + n_fwd
    for k, n, p in ((total, 200 * needed, survival), (fwd, total, n_fwd / needed)):
        assert abs(k - n * p) <= 5.0 * math.sqrt(n * p * (1.0 - p)), (k, n, p)
    # nothing is detected on a dead link, everything on a lossless one
    assert draw_data_detections(n_chips, n_fwd, 0.0, rng)[1].size == 0
    n_fwd_det, chip_idx = draw_data_detections(100, 7, 1.0, rng)
    assert n_fwd_det == 7 and np.array_equal(chip_idx, np.arange(100))


def test_deferred_no_detections(fast_config):
    # a dead check path: no slot fires Alice's check detector, so the check
    # sample is empty and the attempt records only its counts of zero
    config = dataclasses.replace(fast_config, check_channel=ChannelParams(400.0, 0.0))
    tr = run_session(config, b"x", seed=3)
    assert tr.blocks == [
        BlockRecord(block_index=0, attempt=a, n_sent=config.slots_per_block, n_received_check=0)
        for a in range(MAX_BLOCK_RETRIES + 1)
    ]
    assert tr.blocks[0].status == "deferred-empty-basis"
    assert tr.abort_reason == "deferred" and not tr.security_abort


def test_deferred_empty_basis(fast_config):
    # pulses arrive, but Alice checks none of them
    config = dataclasses.replace(fast_config, check_fraction=1e-12)
    tr = run_session(config, b"x", seed=3)
    assert [b.status for b in tr.blocks] == ["deferred-empty-basis"] * (MAX_BLOCK_RETRIES + 1)
    assert all(b.n_received_check > 0 and b.n_checked == 0 for b in tr.blocks)
    assert tr.abort_reason == "deferred" and not tr.security_abort


class _NoHeadroom(ProtocolConfig):
    """Emits exactly the code's chip footprint: no room for the forward checks."""

    @property
    def slots_per_block(self) -> int:
        return self.code.block_chips


def test_deferred_insufficient_slots(fast_config):
    fields = {f.name: getattr(fast_config, f.name) for f in dataclasses.fields(fast_config)}
    config = _NoHeadroom(**fields)
    tr = run_session(config, b"x", seed=3)
    assert [b.status for b in tr.blocks] == ["deferred-insufficient-slots"] * (
        MAX_BLOCK_RETRIES + 1
    )
    # the gate passed; the block was deferred before any encoding
    assert all(b.c_s > 0 and b.n_chip_detected == 0 for b in tr.blocks)
    assert tr.abort_reason == "deferred" and not tr.security_abort


@pytest.mark.parametrize(
    "attack", [AttackModel.none(), AttackModel.intercept_resend(1.0)], ids=["honest", "intercept"]
)
def test_nominal_attempt_memory_below_one_byte_per_slot(attack):
    # after a warm-up attempt, which builds the code, an attempt builds no
    # array as long as the block, not even one byte per slot
    config = nominal_config()
    code = realize_code(config.code)
    chunk = np.zeros(code.k_m, dtype=np.uint8)
    _Session(config, code, 5, AttackModel.none()).attempt(chunk, 0, 0, 0)
    session = _Session(config, code, 5, attack)
    tracemalloc.start()
    try:
        record, _ = session.attempt(chunk, 1, 0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    expected = "ok" if attack.kind == AttackModel.none().kind else "gate-abort"
    assert record.status == expected
    assert peak < config.slots_per_block


# sha256 of to_jsonl() + delivered bytes.  They assume numpy's PCG64 bit
# streams, and were re-recorded on purpose when the engine changed its
# draw order to draw only observed slots, and again when the block
# records lost their code-budget fields and the summary gained the code
# parameters, again when the block records gained fwd_errors, and again
# when they lost gate_proceed, bp_converged and delivered_bits, which
# restated the status (no draw moved any of these times; the LLR digest
# held).  They and the LLR digest were re-recorded again when the frame
# gained its CRC-32 tag, which changes every codeword and frames the
# 200-byte payload into 18 blocks, not 17; the intercept-resend session,
# gate-aborted on block 0, and the one-block nominal session held.  A
# transcript records counts, not the layout, chips or LLRs, so the
# honest session also pins the sha256 of every LLR vector handed to
# bp_decode: a change to the layout or codeword fails it even when the
# counts stay.  The keystream cancels in de-spreading, so a change to it
# fails neither digest; its own digest is pinned in test_spreading.py.
_PINNED_SESSIONS = [
    ("honest", None, 11, "4eacd907ea40ea02b767415c3a029fcd11643c0a96345d1199b4410848b8a37a"),
    (
        "intercept-resend 0.3",
        AttackModel.intercept_resend(0.3),
        12,
        "20f68af9e169074864701618da659116e8de1479380a2f536c634fe7f31fe2f6",
    ),
    (
        "collective (0.02, 0.01)",
        AttackModel.optimal_collective(0.02, 0.01),
        17,
        "43658ae7a38ce687c225e531ed7ce59ca31ba2e7b6543064dcd04eaae4cb7bd3",
    ),
]


def _digest(tr) -> str:
    return hashlib.sha256(tr.to_jsonl().encode() + tr.delivered).hexdigest()


_PINNED_HONEST_LLRS = "9fa8768a6709447ba00a2cec2724b1e91211f7b512feb9688195602c7b4a124e"


def test_transcripts_match_pinned_digests(fast_config, monkeypatch):
    llr_digest = hashlib.sha256()
    bp_decode = qsdc.protocol.bp_decode

    def recording_bp_decode(llrs, *args):
        llr_digest.update(np.ascontiguousarray(llrs, dtype=np.float64).tobytes())
        return bp_decode(llrs, *args)

    monkeypatch.setattr(qsdc.protocol, "bp_decode", recording_bp_decode)
    for name, attack, seed, digest in _PINNED_SESSIONS:
        tr = run_session(fast_config, bytes(range(200)), seed=seed, attack=attack)
        assert _digest(tr) == digest, name
        if name == "honest":
            assert llr_digest.hexdigest() == _PINNED_HONEST_LLRS
    tr = run_session(nominal_config(), b"nominal payload", seed=3)
    assert tr.delivered == b"nominal payload"
    assert _digest(tr) == "0f8dcd0b02829b520d456685b7bd33fbdb7025ade2e77f11579a94418f87ef93"


def test_pinned_block_lines_log_e_fwd_as_the_exact_ratio(fast_config):
    # perfbench/workload.py rebuilds a block's forward-check error count as
    # round(e_fwd * n_fwd_detected); that is exact only while every block
    # line logs e_fwd as fwd_errors / n_fwd_detected, and null exactly
    # when no forward check was detected
    sessions = [
        run_session(fast_config, bytes(range(200)), seed=seed, attack=attack)
        for _, attack, seed, _ in _PINNED_SESSIONS
    ]
    sessions.append(run_session(nominal_config(), b"nominal payload", seed=3))
    measured = 0
    for tr in sessions:
        for line in tr.to_jsonl().splitlines():
            block = json.loads(line)
            if block["record"] != "block":
                continue
            n_fwd = block["n_fwd_detected"]
            assert (block["e_fwd"] is None) == (n_fwd == 0), block
            if n_fwd:
                measured += 1
                assert block["e_fwd"] == block["fwd_errors"] / n_fwd, block
                assert round(block["e_fwd"] * n_fwd) == block["fwd_errors"], block
    assert measured > 0
