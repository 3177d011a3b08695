"""Stability, sweep, and end-to-end harnesses."""

import dataclasses
import json
import math

import numpy as np
import pytest

import qsdc.protocol
from qsdc.attacks import AttackModel
from qsdc.experiments import (
    MAX_SWEEP_POINTS,
    STABILITY_HEADER,
    SWEEP_HEADER,
    SweepSpec,
    run_capacity_sweep,
    run_e2e,
    run_stability,
    sweep_to_csv,
)
from qsdc.protocol import NOMINAL, CodeParams, ProtocolConfig
from qsdc.security import ErrorRates
from qsdc.states import ChannelParams

# the rates of the nominal operating point, the defaults of `qsdc sweep`
NOMINAL_RATES = ErrorRates(
    e_x=NOMINAL.check_channel.flip_prob,
    e_z=NOMINAL.check_channel.flip_prob,
    e=NOMINAL.data_channel.flip_prob,
)


def _sweep(start: float, stop: float, step: float, rates: ErrorRates = NOMINAL_RATES) -> SweepSpec:
    return SweepSpec(
        loss_start_db=start, loss_stop_db=stop, loss_step_db=step, rates=rates, g=NOMINAL.g
    )


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        _sweep(5, 35, 0)
    with pytest.raises(ValueError):
        _sweep(20, 5, 1)


def test_sweep_spec_refuses_a_grid_past_the_point_limit():
    # only the spec is built: a refused grid never becomes an array
    _sweep(0, MAX_SWEEP_POINTS - 1, 1)
    for start, stop, step in ((0, MAX_SWEEP_POINTS, 1), (0, 1e9, 1e-9), (-1e308, 1e308, 1)):
        with pytest.raises(ValueError, match=f"more than {MAX_SWEEP_POINTS} points"):
            _sweep(start, stop, step)


def test_sweep_losses_inclusive():
    spec = _sweep(5, 35, 5)
    assert np.allclose(spec.losses(), [5, 10, 15, 20, 25, 30, 35])


def test_sweep_is_pure():
    spec = _sweep(5, 15, 2.5)
    assert run_capacity_sweep(spec) == run_capacity_sweep(spec)


def test_sweep_rows_q_relation():
    spec = _sweep(10, 30, 10)
    rows = run_capacity_sweep(spec)
    for row in rows:
        assert row["q_bob"] == pytest.approx(10 ** (-row["loss_db"] / 10), rel=1e-12)
        # all three rates share the q_bob prefactor, so their ratios are fixed
        assert row["i_ab"] > 0 and row["i_ae"] > 0


def test_sweep_secure_area_consistency():
    rows = run_capacity_sweep(_sweep(5, 35, 0.5))
    assert any(r["c_s"] > 0 for r in rows)
    for r in rows:
        if r["c_s"] > 0:
            assert r["i_ab"] > r["i_ae"]


def test_sweep_hopeless_noise_never_secure():
    # h(e) + g*h(e_x+e_z) >= 1 makes every row insecure regardless of loss
    spec = _sweep(5, 35, 5, ErrorRates(e_x=0.25, e_z=0.25, e=0.006))
    rows = run_capacity_sweep(spec)
    assert all(r["c_s"] <= 0 for r in rows)


def test_sweep_csv_shape():
    spec = _sweep(5, 10, 1)
    csv = sweep_to_csv(run_capacity_sweep(spec))
    lines = csv.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_HEADER)
    assert len(lines) == 7
    assert all(len(line.split(",")) == len(SWEEP_HEADER) for line in lines)


def test_stability_rows_and_summary(fast_config):
    report = run_stability(fast_config, 12, seed=3)
    assert report.summary["n_blocks_requested"] == 12
    assert report.summary["n_rows"] >= 12
    # the framed payload fills exactly the requested blocks
    assert {r["block"] for r in report.rows} == set(range(12))
    assert all(tuple(r) == STABILITY_HEADER for r in report.rows)
    assert report.summary["delivered_ok"]
    ok_rows = [r for r in report.rows if r["status"] == "ok"]
    assert len(ok_rows) == 12
    assert report.summary["mean_e"] is not None
    assert report.summary["n_fwd_total"] > 0


def test_stability_zero_noise_rows_all_zero():
    config = ProtocolConfig(
        code=CodeParams(l=256, k_u=128, k_r=32, n_spread=8, seed=99),
        check_channel=ChannelParams(5.0, 0.0),
        data_channel=ChannelParams(5.0, 0.0),
    )
    report = run_stability(config, 6, seed=4)
    assert report.summary["mean_e_x"] == 0.0
    assert report.summary["mean_e_z"] == 0.0
    assert report.summary["mean_e"] == 0.0


def test_stability_blocks_independent(fast_config):
    # fresh per-block randomness: lag-1 autocorrelation of the error
    # series is statistically indistinguishable from zero
    config = dataclasses.replace(
        fast_config, data_channel=ChannelParams(5.0, 0.05), e_margin=0.3
    )
    report = run_stability(config, 60, seed=8)
    es = np.array([r["e"] for r in report.rows if r["e"] is not None])
    es = es - es.mean()
    denom = float(es @ es)
    assert denom > 0
    lag1 = float(es[:-1] @ es[1:]) / denom
    assert abs(lag1) < 3.0 / math.sqrt(es.size)


def test_stability_validation(fast_config):
    with pytest.raises(ValueError):
        run_stability(fast_config, 0, seed=1)


def test_stability_runs_exactly_the_blocks_asked_or_refuses():
    # 3 message bits per block: 32 blocks hold the 64 bits of the header
    # and the tag and a 4-byte payload, while 31 blocks (91 to 93 bits)
    # and 22 (64 to 66) hold no whole number of bytes above those 64 bits
    config = ProtocolConfig(
        code=CodeParams(8, 4, 1, 4, seed=7),
        check_channel=ChannelParams(0.0, 0.0),
        data_channel=ChannelParams(0.0, 0.0),
    )
    report = run_stability(config, 32, seed=1)
    assert report.summary["delivered_ok"]
    assert {r["block"] for r in report.rows} == set(range(32))
    for n_blocks in (31, 22):
        with pytest.raises(ValueError, match=f"exactly {n_blocks} blocks of 3 bits"):
            run_stability(config, n_blocks, seed=1)


def test_e2e_roundtrip(tmp_path, fast_config):
    src = tmp_path / "payload.bin"
    dst = tmp_path / "recovered.bin"
    data = bytes(np.random.default_rng(0).integers(0, 256, 300, dtype=np.uint8))
    src.write_bytes(data)
    report = run_e2e(fast_config, src, dst, seed=6)
    assert report["byte_identical"]
    assert dst.read_bytes() == data
    assert report["message_length"] == report["delivered_bytes"] == 300
    assert report["throughput_bits_per_s"] > 0
    assert report["block_rate_bits_per_s"] > 0
    assert "capacity_rate_bits_per_s" in report


def test_e2e_empty_file(tmp_path, fast_config):
    src = tmp_path / "empty.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(b"")
    report = run_e2e(fast_config, src, dst, seed=6)
    assert report["byte_identical"]
    assert dst.read_bytes() == b""
    assert not report["security_abort"]


def test_e2e_empty_file_builds_no_code(tmp_path, fast_config, monkeypatch):
    src = tmp_path / "empty.bin"
    dst = tmp_path / "out.bin"
    src.write_bytes(b"")
    expected = run_e2e(fast_config, src, dst, seed=6)

    # the report's block rate needs k_m only, which the parameters give
    def no_build(*args):
        raise AssertionError("an empty send built the wiretap code")

    monkeypatch.setattr(qsdc.protocol, "build_code", no_build)
    # nor is the disk cache looked up
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    config = dataclasses.replace(fast_config, code=dataclasses.replace(fast_config.code, seed=4243))
    assert run_e2e(config, src, dst, seed=6) == {**expected, "code": vars(config.code)}
    assert not (tmp_path / "xdg").exists()


def test_e2e_intercept_resend_aborts_block_zero(tmp_path, fast_config):
    src = tmp_path / "x.bin"
    dst = tmp_path / "y.bin"
    src.write_bytes(b"secret")
    report = run_e2e(
        fast_config, src, dst, seed=6, attack=AttackModel.intercept_resend(1.0)
    )
    assert report["security_abort"]
    assert report["abort_block"] == 0
    assert report["delivered_bytes"] == 0
    assert not dst.exists()


def test_e2e_collective_ledger(tmp_path, fast_config):
    src = tmp_path / "c.bin"
    dst = tmp_path / "d.bin"
    src.write_bytes(bytes(40))
    report = run_e2e(
        fast_config, src, dst, seed=9, attack=AttackModel.optimal_collective(0.004, 0.004)
    )
    assert "eve_bound_bits_per_pulse" in report
    assert report["eve_bound_bits_per_pulse"] > 0


def test_e2e_transcript_written(tmp_path, fast_config):
    src = tmp_path / "t.bin"
    dst = tmp_path / "u.bin"
    src.write_bytes(b"hello")
    trans = tmp_path / "session.jsonl"
    run_e2e(fast_config, src, dst, seed=6, transcript_path=trans)
    assert trans.exists()
    assert trans.read_text().count("\n") >= 2


@pytest.mark.parametrize("flip, attack, reason", [
    (0.006, None, None),
    (0.006, AttackModel.intercept_resend(1.0), "capacity-gate"),
    (0.3, None, "decode-failure"),
])
def test_e2e_report_extends_the_summary_line(tmp_path, fast_config, flip, attack, reason):
    # the report opens with the transcript's summary line, key for key and
    # value for value, and adds only what a file transfer adds
    config = dataclasses.replace(fast_config, data_channel=ChannelParams(5.0, flip))
    src = tmp_path / "in.bin"
    src.write_bytes(b"summary")
    trans = tmp_path / "session.jsonl"
    report = run_e2e(config, src, tmp_path / "out.bin", seed=6, attack=attack, transcript_path=trans)
    summary = json.loads(trans.read_text().splitlines()[-1])
    assert summary.pop("record") == "summary"
    assert summary["abort_reason"] == reason
    assert list(report)[: len(summary)] == list(summary)
    assert {key: report[key] for key in summary} == summary
