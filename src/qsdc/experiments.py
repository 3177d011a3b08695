"""Experiment harnesses: stability runs, capacity sweeps, file transfer.

Each harness returns plain rows (lists of dicts), and some a summary
dict.  This module formats rows as CSV text; the command line layer
writes that text, the summaries and the send report where asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from qsdc.attacks import AttackKind, AttackModel
from qsdc.protocol import ProtocolConfig, payload_bytes_for_blocks, run_session
from qsdc.security import ErrorRates, SecurityEstimate, half_bias_capacity
from qsdc.states import loss_to_survival


def _mean_std(values: list[float]) -> tuple[Optional[float], Optional[float]]:
    if not values:
        return None, None
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0


def _csv(header: tuple[str, ...], rows: list[dict], default: str, formats: dict[str, str]) -> str:
    """The rows as CSV text under header: None as an empty cell, any other
    value in the %-format formats names for its column, else default."""
    lines = [",".join(header)]
    for r in rows:
        cells = ("" if r[c] is None else formats.get(c, default) % r[c] for c in header)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class StabilityReport:
    rows: list[dict]
    summary: dict


# the BlockRecord field behind each stability column, in column order
_STABILITY_FIELDS = {
    "block": "block_index", "attempt": "attempt", "e_x": "e_x", "e_z": "e_z", "e": "e_fwd",
    "n_x": "n_x", "n_z": "n_z", "n_fwd": "n_fwd_detected", "c_s": "c_s", "status": "status",
}
STABILITY_HEADER = tuple(_STABILITY_FIELDS)


# the most blocks one stability run frames; more are refused before any
# array is made.  A nominal run holds about 2.8 KB per block at its peak
# (tracemalloc, 200 against 800 blocks, rows and CSV text included), so
# the bound keeps a run near 270 MiB; at about 1.8 ms per block it takes
# about 3 minutes
MAX_STABILITY_BLOCKS = 100_000


def run_stability(config: ProtocolConfig, n_blocks: int, seed: int) -> StabilityReport:
    """Run n_blocks consecutive protocol blocks and tabulate the
    per-block error estimates.

    A synthetic payload that fills exactly n_blocks codeword blocks is
    transmitted (payload_bytes_for_blocks); each block attempt
    contributes one row of (e_x, e_z, e) where e is the forward check
    error seen on the data path.  The summary reports per-column means
    and standard deviations and the pooled counts behind them, then the
    transcript's summary line and whether the payload came back intact.
    """
    if not 1 <= n_blocks <= MAX_STABILITY_BLOCKS:
        raise ValueError(f"n_blocks must lie in [1, {MAX_STABILITY_BLOCKS}], got {n_blocks}")
    payload_bytes = payload_bytes_for_blocks(n_blocks, config.code.k_m)
    payload = np.random.default_rng(seed).integers(0, 256, payload_bytes, dtype=np.uint8).tobytes()
    transcript = run_session(config, payload, seed)

    rows = [
        {col: getattr(b, name) for col, name in _STABILITY_FIELDS.items()}
        for b in transcript.blocks
    ]
    summary = {"n_rows": len(rows), "n_blocks_requested": n_blocks}
    for col in ("e_x", "e_z", "e"):
        values = [r[col] for r in rows if r[col] is not None]
        summary[f"mean_{col}"], summary[f"std_{col}"] = _mean_std(values)
    summary.update(
        n_x_total=sum(r["n_x"] for r in rows),
        n_z_total=sum(r["n_z"] for r in rows),
        n_fwd_total=sum(r["n_fwd"] for r in rows),
        **transcript.summary(),
        delivered_ok=transcript.delivered == payload,
    )
    return StabilityReport(rows=rows, summary=summary)


def stability_to_csv(rows: list[dict]) -> str:
    """Stability rows as CSV: %.8e for the rates and c_s, %s for the rest."""
    return _csv(STABILITY_HEADER, rows, "%s", dict.fromkeys(("e_x", "e_z", "e", "c_s"), "%.8e"))


# the most loss points one sweep evaluates; a finer grid is refused
# before any array is made of it
MAX_SWEEP_POINTS = 100_000


@dataclass(frozen=True)
class SweepSpec:
    """Loss range and fixed rates and Eve advantage for a capacity sweep."""

    loss_start_db: float
    loss_stop_db: float
    loss_step_db: float
    rates: ErrorRates
    g: float

    def __post_init__(self) -> None:
        # the comparisons are written so that NaN fails them too
        if not 0.0 < self.loss_step_db < math.inf:
            raise ValueError(f"loss_step_db {self.loss_step_db} is not in (0, inf)")
        if not -math.inf < self.loss_start_db <= self.loss_stop_db < math.inf:
            raise ValueError(
                f"loss range [{self.loss_start_db}, {self.loss_stop_db}] is empty or not finite"
            )
        # compared as a float, so a span that overflows to inf is refused too
        if not self._steps() < MAX_SWEEP_POINTS:
            raise ValueError(
                f"loss range [{self.loss_start_db}, {self.loss_stop_db}] in steps of "
                f"{self.loss_step_db} has more than {MAX_SWEEP_POINTS} points"
            )

    def _steps(self) -> float:
        """(stop - start) / step, with a tolerance for rounding: floored,
        the point count less one."""
        return (self.loss_stop_db - self.loss_start_db) / self.loss_step_db + 1e-9

    def losses(self) -> np.ndarray:
        n = int(math.floor(self._steps())) + 1
        return self.loss_start_db + self.loss_step_db * np.arange(n)


SWEEP_HEADER = ("loss_db", "q_bob", "i_ab", "i_ae", "c_s")


def run_capacity_sweep(spec: SweepSpec) -> list[dict]:
    """Evaluate the analytic information rates across a loss range.

    Deterministic: every row is the closed-form evaluation at the
    operating bias p = 0.5 with Q^Bob = 10^(-loss/10).
    """
    rows = []
    for loss_db in spec.losses():
        q_bob = loss_to_survival(loss_db)
        est = half_bias_capacity(spec.rates, q_bob, spec.g)
        rows.append(dict(zip(SWEEP_HEADER, (float(loss_db), q_bob, est.i_ab, est.i_ae, est.c_s))))
    return rows


def sweep_to_csv(rows: list[dict]) -> str:
    """Sweep rows as CSV: %.6f for loss_db, %.10e for the rest."""
    return _csv(SWEEP_HEADER, rows, "%.10e", {"loss_db": "%.6f"})


def _data_path_estimate(config: ProtocolConfig, e_x: float, e_z: float) -> SecurityEstimate:
    """The closed forms at p = 0.5 on the data channel, at check rates e_x, e_z,
    capped into the rate domain as the gate caps them."""
    rates = ErrorRates.capped(e_x, e_z, config.data_channel.flip_prob)
    return half_bias_capacity(rates, config.data_channel.survival, config.g)


def run_e2e(
    config: ProtocolConfig,
    input_path: str | Path,
    output_path: str | Path,
    seed: int,
    attack: Optional[AttackModel] = None,
    transcript_path: Optional[str | Path] = None,
) -> dict:
    """Transmit a file through the full protocol and report throughput.

    The recovered bytes are written to output_path (only when the
    session completes).  The report is the transcript's summary line
    (SessionTranscript.summary) extended by what a file transfer adds:
    whether the bytes came back intact, the block attempts and retries,
    and the two theoretical conversions of the measured rate, which do
    not agree with each other: the block-accounting rate k_m /
    slots-per-block and the capacity-based rate C_s x repetition rate.
    Under a collective attack the report also carries the analytic bound
    on Eve's information (her optimal measurement is not simulable; the
    bound is the quantity the security statement uses).
    """
    attack = attack or AttackModel.none()
    data = Path(input_path).read_bytes()
    transcript = run_session(config, data, seed, attack=attack)

    e_check = config.check_channel.flip_prob
    report = {
        **transcript.summary(),
        "byte_identical": transcript.delivered == data,
        "attempts": len(transcript.blocks),
        "retries": sum(b.attempt > 0 for b in transcript.blocks),
        "block_rate_bits_per_s": (
            config.code.k_m / config.slots_per_block * config.repetition_rate_hz
        ),
        "capacity_rate_bits_per_s": (
            _data_path_estimate(config, e_check, e_check).c_s * config.repetition_rate_hz
        ),
        "attack": attack.kind.value,
    }
    if not transcript.ok:
        report["abort_block"] = transcript.blocks[-1].block_index
    if attack.kind is AttackKind.OPTIMAL_COLLECTIVE:
        # Eve's analytic bound at her target disturbance
        report["eve_bound_bits_per_pulse"] = _data_path_estimate(
            config, attack.e_x_target, attack.e_z_target
        ).i_ae
    # the transcript first: a bad output path must not lose the session's record
    if transcript_path is not None:
        Path(transcript_path).write_text(transcript.to_jsonl())
    if transcript.ok:
        Path(output_path).write_bytes(transcript.delivered)
        report["output_path"] = str(output_path)
    return report
