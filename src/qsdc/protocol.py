"""Block protocol engine for the two-way link.

One block proceeds through four steps: Bob prepares and sends a slot
sequence of random four-state qubits; Alice diverts a random subset of
the pulses she receives to her check module and discloses the
measurements; Bob estimates the forward error rates and both sides
evaluate the capacity gate; if the link is secure Alice modulates the
remaining slots with codeword chips interleaved with random check
bits, and Bob measures the returning pulses in his preparation bases
and decodes.  Each step is passed only what its party sees: Bob's
decode step receives Alice's disclosed forward-check values, the
detected chip indices and the block serial, never her codeword.

Loss accounting follows the effective-detection model: the configured
check channel gives the probability that a slot fires Alice's check
detector, and the data channel gives the probability that a returned
slot fires Bob's detector, both calibrated to the end-to-end budget of
the hardware.  Alice cannot tell which coding slots carry photons, so
chips are assigned to slots blindly and undetected chips become
erasures on Bob's side.

The engine draws only what is observed.  States, the attack and the
channel act on each slot independently and identically, and check and
data slots are disjoint, so a slot's identity never affects an
outcome.  A block attempt therefore draws counts for the slots nobody
observes (binomial detection and check counts) and states, attack,
flips and measurements only for the checked pulses and for the data
slots that fire Bob's detector.  Every recorded quantity keeps the
distribution of a slot-by-slot simulation, and an attempt costs
O(detections), not O(slots).

All randomness is drawn from per-attempt generators derived from
(session seed, attempt serial number), so transcripts are reproducible.
The attempts of a session still run in order: the capacity gate pools
the check counts of every earlier attempt (_Session.gate), so each
attempt's gate decision depends on the attempts before it.
"""

from __future__ import annotations

import functools
import json
import math
import zlib
from dataclasses import InitVar, dataclass, field
from typing import Optional

import numpy as np

from qsdc.attacks import AttackModel
from qsdc.ldpc import bp_decode, ldpc_encode
from qsdc.security import ErrorRates, SecurityEstimate, half_bias_capacity
from qsdc.spreading import compute_llrs, spread
from qsdc.states import ChannelParams, flip_codes, measure_codes, random_state_codes
from qsdc.wiretap_code import (
    CodeParams,
    WiretapCode,
    build_code,
    load_code,
    store_code,
    uhf_invert,
    uhf_map,
)


@functools.lru_cache(maxsize=8)
def realize_code(params: CodeParams) -> WiretapCode:
    """The configured code: from the process-wide cache of the eight most
    recently used, else loaded from the on-disk code cache, else built and
    stored there (wiretap_code.code_cache_path).

    A code on disk is keyed on (l, k_u, seed) and the builder's sources,
    so codes that differ only in k_r or n_spread share one file.  A file
    that is missing, unreadable or fails its digest, or a cache directory
    that cannot be written, falls back to build_code; the returned code
    is the same either way.
    """
    code = load_code(params)
    if code is None:
        code = build_code(params)
        store_code(code)
    return code


@dataclass(frozen=True)
class ProtocolConfig:
    """Session parameters.

    The code sets a block's chip footprint, code.block_chips = n_spread * l;
    the slots emitted per block also include the interleaved forward check
    bits and head-room for the check pulses Alice consumes.  block_pulses
    is not stored: a caller that still restates the footprint may pass it,
    and any value other than code.block_chips is rejected.
    """

    code: CodeParams = field(default_factory=CodeParams)
    block_pulses: InitVar[Optional[int]] = None
    check_fraction: float = 0.1
    forward_check_fraction: float = 0.05
    check_channel: ChannelParams = field(default_factory=lambda: ChannelParams(25.1, 0.008))
    data_channel: ChannelParams = field(default_factory=lambda: ChannelParams(25.1, 0.006))
    g_back_channel_db: float = 4.1
    e_margin: float = 0.03
    repetition_rate_hz: float = 1.0e6

    def __post_init__(self, block_pulses: Optional[int]) -> None:
        if block_pulses is not None and block_pulses != self.code.block_chips:
            raise ValueError(
                f"block_pulses {block_pulses} is not the code's footprint n_spread * l; "
                f"set it to {self.code.block_chips}"
            )
        if not 0.0 < self.check_fraction <= 1.0:
            raise ValueError(f"check_fraction must be in (0, 1], got {self.check_fraction}")
        if self.check_fraction * self.check_channel.survival >= 1.0:
            raise ValueError(
                f"check_fraction {self.check_fraction} on a "
                f"{self.check_channel.loss_db} dB check channel consumes every slot"
            )
        if not 0.0 <= self.forward_check_fraction < 1.0:
            raise ValueError(
                f"forward_check_fraction must be in [0, 1), got {self.forward_check_fraction}"
            )
        # the comparisons below are written so that NaN fails them too
        if not self.e_margin > 0.0:
            raise ValueError(f"e_margin must be > 0, got {self.e_margin}")
        if not 0.0 <= self.g_back_channel_db < math.inf:
            raise ValueError(f"g_back_channel_db {self.g_back_channel_db} is not in [0, inf)")
        if not 0.0 < self.repetition_rate_hz < math.inf:
            raise ValueError(f"repetition_rate_hz {self.repetition_rate_hz} is not in (0, inf)")

    @property
    def g(self) -> float:
        """Eve-to-Bob detection advantage implied by the back-channel loss."""
        return 10.0 ** (self.g_back_channel_db / 10.0)

    @property
    def n_forward_checks(self) -> int:
        chips = self.code.block_chips
        return math.ceil(chips * self.forward_check_fraction / (1.0 - self.forward_check_fraction))

    @property
    def slots_per_block(self) -> int:
        """Slots Bob emits per block attempt, with consumption head-room."""
        base = self.code.block_chips + self.n_forward_checks
        p_consume = self.check_fraction * self.check_channel.survival
        n = math.ceil(base / (1.0 - p_consume))
        slack = 256 + int(8.0 * math.sqrt(p_consume * n + 1.0))
        return n + slack


def nominal_config() -> ProtocolConfig:
    """The default operating point of the simulated hardware."""
    return ProtocolConfig()


# built once; the analytic CLI subcommands default to it
NOMINAL = nominal_config()


def bob_prepare_block(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n uniformly random preparation states.

    The returned code array doubles as Bob's basis/bit record: basis is
    code >> 1 and bit is code & 1.
    """
    if n < 0:
        raise ValueError(f"pulse count must be >= 0, got {n}")
    return random_state_codes(n, rng)


def alice_sample_check(
    codes: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Measure the pulses Alice diverted to her check module.

    codes are the checked pulses as they arrive at her bench (channel
    noise already applied).  Each is measured in a uniformly random
    basis; returns the bases and outcomes she discloses.  Checked pulses
    are consumed and never modulated.
    """
    bases = rng.integers(0, 2, size=codes.shape[0], dtype=np.uint8)
    return bases, measure_codes(codes, bases, rng)


def bob_estimate_errors(bases: np.ndarray, outcomes: np.ndarray, prepared: np.ndarray) -> dict:
    """Compare Alice's disclosed check bases and outcomes with Bob's
    records of the checked pulses, bucketed by basis; returns the check
    step's BlockRecord fields, as keyword arguments.

    Only pulses Alice happened to measure in Bob's preparation basis
    are comparable; a bucket with no such pulses leaves that estimate
    undefined (None).
    """
    matched = (prepared >> 1) == bases
    errors = outcomes != (prepared & 1)
    z_bucket = matched & (bases == 0)
    x_bucket = matched & (bases == 1)
    n_z = int(z_bucket.sum())
    n_x = int(x_bucket.sum())
    err_z = int((errors & z_bucket).sum())
    err_x = int((errors & x_bucket).sum())
    return dict(
        n_z=n_z, n_x=n_x, err_z=err_z, err_x=err_x,
        e_z=err_z / n_z if n_z else None, e_x=err_x / n_x if n_x else None,
    )


def gate_on_capacity(
    e_x: float, e_z: float, e: float, q_bob: float, g: float
) -> tuple[bool, SecurityEstimate]:
    """Decide whether the link supports secure transmission.

    e_x, e_z are the measured check error rates and e the data-path
    rate.  Returns whether the closed-form secrecy capacity at the
    operating bias p = 0.5 is positive, and the estimate it was
    decided on.  Measured rates can leave the entropy-formula domain
    under attack, so they are capped into it by ErrorRates.capped.
    """
    estimate = half_bias_capacity(ErrorRates.capped(e_x, e_z, e), q_bob, g)
    return estimate.c_s > 0.0, estimate


def draw_data_detections(
    n_chips: int, n_fwd: int, survival: float, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Which of a block's n_chips + n_fwd data slots fire Bob's detector.

    Each data slot fires independently with the survival probability,
    and the forward checks are a uniform n_fwd-subset of the data slots,
    independent of the detections; the chips fill the other slots in
    order.  So Binomial(n_fwd, survival) forward checks are detected,
    and the detected chips are a Binomial(n_chips, survival)-sized
    uniform subset of the chip indices.  Returns that forward-check
    count and the ascending detected chip indices.  A few thousand of a
    million indices are drawn by Floyd's algorithm, so no array of
    length n_chips is built.
    """
    n_fwd_det = int(rng.binomial(n_fwd, survival))
    n_chip_det = int(rng.binomial(n_chips, survival))
    chip_idx = np.sort(rng.choice(n_chips, size=n_chip_det, replace=False, shuffle=False))
    return n_fwd_det, chip_idx


def alice_encode_block(
    message_bits: np.ndarray,
    code: WiretapCode,
    n_fwd_detected: int,
    chip_idx: np.ndarray,
    rng: np.random.Generator,
    block_index: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Encode one block and lay it out on the slots Bob detects.

    Fresh random bits are drawn and (message || random) is whitened and
    LDPC encoded.  Alice's uniformly random forward-check values are
    drawn for the n_fwd_detected detected check slots only: the others
    are never observed.  Returns the forward-check values she discloses
    and her 0/1 modulation op on every detected slot: the check values
    first, then the chips at chip_idx.  The codeword stays with her.
    """
    message_bits = np.asarray(message_bits, dtype=np.uint8)
    random_bits = rng.integers(0, 2, size=code.k_r, dtype=np.uint8)
    u = uhf_map(message_bits, random_bits, code)
    v = ldpc_encode(u, code.g_rows)
    fwd_values = rng.integers(0, 2, size=n_fwd_detected, dtype=np.uint8)
    return fwd_values, np.concatenate([fwd_values, spread(v, code, block_index, chip_idx)])


def bob_decode_block(
    outcomes: np.ndarray,
    prepared: np.ndarray,
    fwd_values: np.ndarray,
    chip_idx: np.ndarray,
    code: WiretapCode,
    block_index: int,
    e_margin: float,
) -> tuple[Optional[np.ndarray], dict]:
    """Recover one block from Bob's detected return pulses.

    Bob receives only what Alice discloses and the public layout: her
    forward-check values, the detected chip indices and the block
    serial that keys the spreading.  outcomes and prepared (Bob's state
    codes) list the detected slots forward checks first, then the chips
    in chip_idx order.  Measured outcomes are XORed with Bob's prepared
    bits to estimate the modulation op on each detected slot; the
    forward checks give the running error estimate, the rest are
    de-spread into LLRs and belief-propagation decoded, and the
    whitening is inverted.  Each step runs only if the block can still
    be delivered: a block over the error margin gets no LLRs, and one
    with too few informative coded bits no BP.  Returns the message
    bits of an ok block, else None, and the decode step's BlockRecord
    fields, as keyword arguments.
    """
    est = (outcomes ^ (prepared & 1)).astype(np.uint8)
    n_fwd_det = fwd_values.size
    fwd_errors = int((est[:n_fwd_det] != fwd_values).sum())
    e_fwd = fwd_errors / n_fwd_det if n_fwd_det else None
    decoded = dict(
        e_fwd=e_fwd, fwd_errors=fwd_errors, n_fwd_detected=n_fwd_det,
        n_chip_detected=int(chip_idx.size),
    )
    if e_fwd is not None and e_fwd > e_margin:
        return None, dict(decoded, status="abort-error-margin")

    # Laplace-smoothed estimate keeps the LLR weight finite per block
    e_llr = (fwd_errors + 1.0) / (n_fwd_det + 2.0) if n_fwd_det else 0.1
    e_llr = min(max(e_llr, 1e-4), 0.49)
    llrs = compute_llrs(chip_idx, est[n_fwd_det:], code, e_llr, block_index)
    if np.count_nonzero(llrs) < code.k_u:
        # fewer informative coded bits than the code's dimension: at least
        # two codewords fit them, so even a converged decode is a guess
        return None, dict(decoded, status="fail-underdetermined")

    u_hat, converged, iterations = bp_decode(llrs, code.edges, code.info_positions)
    decoded.update(bp_iterations=iterations)
    if not converged:
        return None, dict(decoded, status="fail-no-converge")
    return uhf_invert(u_hat, code)[0], dict(decoded, status="ok")


@dataclass(frozen=True)
class BlockRecord:
    """Scalar per-block-attempt summary kept in the transcript.

    Fields past n_received_check default to what an attempt that never
    reached them records: a deferral with zero counts and no estimates.
    A deferred attempt's status names its reason: an empty basis bucket
    in the check sample (n_received_check 0 if nothing reached Alice),
    or too few unchecked slots left for the codeword and its forward
    checks.  The status alone says whether the gate passed, whether BP
    converged and whether the block's k_m message bits were delivered
    (only "ok").
    """

    block_index: int
    attempt: int
    n_sent: int
    n_received_check: int
    n_checked: int = 0
    n_z: int = 0
    n_x: int = 0
    err_z: int = 0
    err_x: int = 0
    e_z: Optional[float] = None
    e_x: Optional[float] = None
    q_hat: float = 0.0
    c_s: Optional[float] = None
    i_ab: Optional[float] = None
    i_ae: Optional[float] = None
    status: str = "deferred-empty-basis"
    e_fwd: Optional[float] = None
    fwd_errors: int = 0
    n_fwd_detected: int = 0
    n_chip_detected: int = 0
    bp_iterations: int = 0


@dataclass
class SessionTranscript:
    """Full account of one session: per-block records plus the outcome.

    The summary line carries config.code, so a reader can set a block's
    i_ae against the code's parameters, such as its random-bit rate
    k_r / (n_spread * l) per pulse.
    """

    seed: int
    message_length: int
    config: ProtocolConfig
    blocks: list[BlockRecord] = field(default_factory=list)
    delivered: bytes = b""
    abort_reason: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.abort_reason is None

    @property
    def security_abort(self) -> bool:
        return self.abort_reason == "capacity-gate"

    def summary(self) -> dict:
        """The session's outcome figures, as its summary line carries them;
        the send report and the stability summary extend this dict."""
        pulses = sum(b.n_sent for b in self.blocks)
        return {
            "seed": self.seed,
            "code": dict(vars(self.config.code)),
            "message_length": self.message_length,
            "delivered_bytes": len(self.delivered),
            "security_abort": self.security_abort,
            "abort_reason": self.abort_reason,
            "pulses_emitted": pulses,
            "throughput_bits_per_s": (
                len(self.delivered) * 8 / pulses * self.config.repetition_rate_hz if pulses else 0.0
            ),
        }

    def to_jsonl(self) -> str:
        """One line per block attempt, plus a trailing summary line."""
        lines = [json.dumps({"record": "block", **vars(b)}) for b in self.blocks]
        lines.append(json.dumps({"record": "summary", **self.summary()}))
        return "\n".join(lines) + "\n"


# the frame header is the payload length as a big-endian integer; the
# tag after the payload is the CRC-32 of header and payload, big-endian
FRAME_HEADER_BYTES = 4
FRAME_TAG_BYTES = 4
# a block is sent at most 1 + MAX_BLOCK_RETRIES times before the session
# ends with decode-failure
MAX_BLOCK_RETRIES = 8


def payload_bytes_for_blocks(n_blocks: int, k_m: int) -> int:
    """The most bytes that _frame_message splits into exactly n_blocks
    chunks of k_m bits; ValueError if no payload of a byte or more is."""
    overhead = FRAME_HEADER_BYTES + FRAME_TAG_BYTES
    payload = n_blocks * k_m // 8 - overhead
    if payload < 1 or 8 * (overhead + payload) <= (n_blocks - 1) * k_m:
        raise ValueError(f"no whole-byte payload fills exactly {n_blocks} blocks of {k_m} bits")
    return payload


def _frame_message(message: bytes, k_m: int) -> list[np.ndarray]:
    """Length-prefix the payload, append the tag and split the frame into
    k_m-bit chunks, zero-padding the last."""
    frame = len(message).to_bytes(FRAME_HEADER_BYTES, "big") + message
    frame += zlib.crc32(frame).to_bytes(FRAME_TAG_BYTES, "big")
    bits = np.unpackbits(np.frombuffer(frame, dtype=np.uint8))
    n_blocks = math.ceil(bits.size / k_m)
    padded = np.zeros(n_blocks * k_m, dtype=np.uint8)
    padded[: bits.size] = bits
    return [padded[i * k_m : (i + 1) * k_m] for i in range(n_blocks)]


def _unframe_message(bit_chunks: list[np.ndarray]) -> Optional[bytes]:
    """The payload of the decoded chunks, or None if their length header
    leaves no room for the tag or the tag does not match."""
    data = np.packbits(np.concatenate(bit_chunks)).tobytes()
    end = FRAME_HEADER_BYTES + int.from_bytes(data[:FRAME_HEADER_BYTES], "big")
    tag = data[end : end + FRAME_TAG_BYTES]
    if len(tag) < FRAME_TAG_BYTES or int.from_bytes(tag, "big") != zlib.crc32(data[:end]):
        return None
    return data[FRAME_HEADER_BYTES:end]


# the BlockRecord counts the capacity gate pools over a session's attempts
_POOLED = ("err_x", "n_x", "err_z", "n_z", "fwd_errors", "n_fwd_detected")


@dataclass
class _Session:
    """What a session's block attempts share: the config, the built code,
    the seed, the attack, the attempts' records so far and the running
    sums of their counts, on which the capacity gate decides.

    The channel and any eavesdropping are treated as stationary within
    a session, so the gate pools: one block's ~300 disclosed pulses put
    the nominal error rate only about 4 sigma below the abort point, and
    a session of a hundred blocks gated block by block would flap.
    Per-block rates are still logged unpooled, and the forward-check
    margin in the decode step guards each block individually.
    """

    config: ProtocolConfig
    code: WiretapCode
    seed: int
    attack: AttackModel
    blocks: list[BlockRecord] = field(default_factory=list)
    pooled: dict[str, int] = field(default_factory=lambda: dict.fromkeys(_POOLED, 0))

    def gate(self, counts: dict, q_hat: float) -> tuple[bool, SecurityEstimate]:
        """The capacity gate on this attempt's check counts (the fields
        bob_estimate_errors returns) pooled with the earlier ones;
        gate_on_capacity's result.  The data-path rate pools the earlier
        forward checks, or is flip_prob before there are any."""
        p = self.pooled
        e_x = (p["err_x"] + counts["err_x"]) / (p["n_x"] + counts["n_x"])
        e_z = (p["err_z"] + counts["err_z"]) / (p["n_z"] + counts["n_z"])
        n_fwd = p["n_fwd_detected"]
        e = p["fwd_errors"] / n_fwd if n_fwd else self.config.data_channel.flip_prob
        return gate_on_capacity(e_x, e_z, e, q_hat, self.config.g)

    def attempt(
        self, chunk_bits: np.ndarray, serial: int, block_index: int, attempt: int
    ) -> tuple[BlockRecord, Optional[np.ndarray]]:
        """Simulate one block attempt end to end, append its record and
        pool its counts.  Returns the record and Bob's decoded message
        bits, which are None unless the block is delivered.

        serial is the attempt's number in the session (run_session
        passes the count of records so far); it seeds the attempt's
        generators and its keystream.  Slots nobody observes are only
        counted (see the module docstring): Bob's states, the attack, the
        flips and the measurements are drawn for the checked pulses and
        the detected data slots alone.
        """
        config, code, attack = self.config, self.code, self.attack
        ss = np.random.SeedSequence([self.seed, serial])
        bob_rng, channel_rng, alice_rng, attack_rng = (
            np.random.default_rng(child) for child in ss.spawn(4)
        )

        # check path: how many slots fire Alice's check detector, and which
        # of those she checks
        n_sent, n_fwd = config.slots_per_block, config.n_forward_checks
        n_received = int(channel_rng.binomial(n_sent, config.check_channel.survival))
        n_checked = int(alice_rng.binomial(n_received, config.check_fraction))
        prepared = bob_prepare_block(n_checked, bob_rng)
        wire = attack.apply(prepared, attack_rng)
        arriving = flip_codes(wire, config.check_channel.flip_prob, channel_rng)
        counts = bob_estimate_errors(*alice_sample_check(arriving, alice_rng), prepared)
        q_hat = n_received / n_sent
        values = dict(
            counts, block_index=block_index, attempt=attempt, n_sent=n_sent,
            n_received_check=n_received, n_checked=n_checked, q_hat=q_hat,
        )
        message_bits = None
        # an empty basis bucket defers the attempt: BlockRecord's default status
        if counts["n_x"] and counts["n_z"]:
            proceed, estimate = self.gate(counts, q_hat)
            values.update(c_s=estimate.c_s, i_ab=estimate.i_ab, i_ae=estimate.i_ae)
            if not proceed:
                values.update(status="gate-abort")
            elif n_sent - n_checked < code.block_chips + n_fwd:
                values.update(status="deferred-insufficient-slots")
            else:
                # encoding phase: no message material leaves Alice before
                # this point; only the data slots that fire Bob's detector
                # are drawn
                n_fwd_det, chip_idx = draw_data_detections(
                    code.block_chips, n_fwd, config.data_channel.survival, channel_rng
                )
                fwd_values, ops = alice_encode_block(
                    chunk_bits, code, n_fwd_det, chip_idx, alice_rng, serial
                )
                prepared = bob_prepare_block(ops.size, bob_rng)
                wire = attack.apply(prepared, attack_rng)
                det_codes = flip_codes(wire ^ ops, config.data_channel.flip_prob, channel_rng)
                outcomes = measure_codes(det_codes, prepared >> 1, channel_rng)
                message_bits, decoded = bob_decode_block(
                    outcomes, prepared, fwd_values, chip_idx, code, serial, config.e_margin
                )
                values.update(decoded)

        record = BlockRecord(**values)
        self.blocks.append(record)
        self.pooled = {name: n + getattr(record, name) for name, n in self.pooled.items()}
        return record, message_bits


def run_session(
    config: ProtocolConfig,
    message: bytes,
    seed: int,
    attack: Optional[AttackModel] = None,
) -> SessionTranscript:
    """Send a message end to end, one wiretap-coded block at a time.

    Blocks whose attempt is deferred or whose decode fails (error margin
    exceeded, fewer informative coded bits than k_u, or no convergence)
    are retried with fresh randomness up to MAX_BLOCK_RETRIES times; a
    block still not delivered ends the session, as "deferred" if every
    one of its attempts was deferred, else as "decode-failure".  A
    capacity-gate abort ends the session at once; the transcript keeps
    every record so far and delivers nothing.  Once every block is
    delivered the frame's tag is checked; a block that converged to a
    wrong codeword fails it, and the session ends as "tag-mismatch",
    again delivering nothing.  Check counts accumulate across blocks and
    the gate runs on the pooled rates (_Session.gate), so the estimate
    sharpens as the session progresses while the first block is still
    gated on its own sample.  The empty message yields an empty
    transcript.
    """
    attack = attack or AttackModel.none()
    transcript = SessionTranscript(seed=seed, message_length=len(message), config=config)
    if len(message) == 0:
        return transcript

    code = realize_code(config.code)
    session = _Session(config, code, seed, attack, transcript.blocks)
    recovered: list[np.ndarray] = []
    for block_index, chunk in enumerate(_frame_message(message, code.k_m)):
        all_deferred = True
        for attempt in range(MAX_BLOCK_RETRIES + 1):
            record, message_bits = session.attempt(
                chunk, len(transcript.blocks), block_index, attempt
            )
            if record.status == "gate-abort":
                transcript.abort_reason = "capacity-gate"
                return transcript
            if message_bits is not None:
                recovered.append(message_bits)
                break
            all_deferred = all_deferred and record.status.startswith("deferred")
        else:
            transcript.abort_reason = "deferred" if all_deferred else "decode-failure"
            return transcript
    delivered = _unframe_message(recovered)
    if delivered is None:
        transcript.abort_reason = "tag-mismatch"
    else:
        transcript.delivered = delivered
    return transcript
