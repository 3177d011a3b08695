"""Command line interface and config file handling."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsdc
import qsdc.experiments
import qsdc.wiretap_code
from qsdc.cli import (
    EXIT_DECODE, EXIT_DEFERRED, EXIT_IO, EXIT_OK, EXIT_SECURITY, _build_parser, _exit_code, main,
)
from qsdc.config_io import load_config, parse_config, render_config
from qsdc.experiments import MAX_STABILITY_BLOCKS, MAX_SWEEP_POINTS
from qsdc.protocol import CodeParams, ProtocolConfig, nominal_config
from qsdc.states import ChannelParams

FAST_INI = """\
[code]
l = 256
k_u = 128
k_r = 32
n_spread = 8
seed = 99

[protocol]
e_margin = 0.12

[check_channel]
loss_db = 5.0
flip_prob = 0.0

[data_channel]
loss_db = 5.0
flip_prob = 0.006
"""


def _parse_kv(output: str) -> dict:
    out = {}
    for line in output.strip().split("\n"):
        key, _, value = line.partition(" ")
        out[key] = value
    return out


def test_capacity_outputs_rates(capsys):
    rc = main(["capacity", "--q-bob", "0.003"])
    assert rc == EXIT_OK
    kv = _parse_kv(capsys.readouterr().out)
    assert float(kv["c_s"]) == pytest.approx(1.9286356483e-3, rel=1e-6)
    assert float(kv["i_ae"]) == pytest.approx(9.1261911064e-4, rel=1e-6)
    assert kv["secure"] == "yes"


def test_capacity_accepts_loss_db(capsys):
    rc = main(["capacity", "--loss-db", "25.1"])
    assert rc == EXIT_OK
    kv = _parse_kv(capsys.readouterr().out)
    assert float(kv["q_bob"]) == pytest.approx(10**-2.51, rel=1e-6)


def test_capacity_defaults_are_the_nominal_point(capsys):
    assert main(["capacity"]) == EXIT_OK
    defaults = capsys.readouterr().out
    literal = ["--loss-db", "25.1", "--e", "0.006", "--e-x", "0.008", "--e-z", "0.008",
               "--g", "2.5703957827688635"]
    assert main(["capacity", *literal]) == EXIT_OK
    assert capsys.readouterr().out == defaults
    # a default --loss-db must not hide an explicit clash with --q-bob
    with pytest.raises(SystemExit):
        main(["capacity", "--q-bob", "0.003", "--loss-db", "25.1"])


def test_capacity_insecure_point(capsys):
    rc = main(["capacity", "--q-bob", "0.003", "--e-x", "0.2", "--e-z", "0.2"])
    assert rc == EXIT_OK
    kv = _parse_kv(capsys.readouterr().out)
    assert kv["secure"] == "no"
    assert float(kv["c_s"]) < 0


def test_capacity_interior_optimum(capsys):
    # at 3 dB with these check rates the best bias is not 1/2
    rc = main(["capacity", "--loss-db", "3", "--e-x", "0.06", "--e-z", "0.04"])
    assert rc == EXIT_OK
    kv = _parse_kv(capsys.readouterr().out)
    assert float(kv["p_star"]) == pytest.approx(0.2512, abs=1e-4)
    assert float(kv["c_s_grid"]) > 0 > float(kv["c_s"])


@pytest.mark.parametrize(
    "argv",
    [["--e-x", "0.25", "--e-z", "0.2"], ["--loss-db", "40", "--e-x", "0.1", "--e-z", "0.1"]],
)
def test_capacity_grid_is_zero_where_no_bias_is_secure(argv, capsys):
    # the objective is exactly 0 at p = 0 and negative at every other
    # bias, so the search must report 0, not a rounding residue above it
    assert main(["capacity", *argv]) == EXIT_OK
    kv = _parse_kv(capsys.readouterr().out)
    assert float(kv["c_s"]) < 0
    assert float(kv["c_s_grid"]) == 0.0
    assert float(kv["p_star"]) == 0.0
    assert kv["secure"] == "no"


# the benchmark's capacity grid (e = 0.006, g = 10^0.41 given explicitly),
# then edge points: no loss, a noiseless data path, e_x + e_z = 0.5 and
# a direct detection rate
_PIN_G = repr(10.0 ** (4.1 / 10.0))
_PIN_CAPACITY_ARGVS = [
    ["capacity", "--loss-db", repr(loss), "--e", "0.006", "--e-x", repr(e_x),
     "--e-z", repr(e_z), "--g", _PIN_G]
    for loss in (3.0, 10.0, 18.06, 25.1, 30.0, 40.0)
    for e_x, e_z in ((0.008, 0.008), (0.02, 0.03), (0.06, 0.04), (0.1, 0.1), (0.25, 0.2))
] + [
    ["capacity", "--loss-db", "0"],
    ["capacity", "--e", "0"],
    ["capacity", "--e-x", "0.25", "--e-z", "0.25"],
    ["capacity", "--e-x", "0.5", "--e-z", "0"],
    ["capacity", "--q-bob", "0.003"],
    ["capacity", "--q-bob", "1"],
]
# sha256 of the outputs: a change to any printed digit shows
_CAPACITY_PIN = "72e1025f38d313cab9b20a66683dd8d296a27713500887ffad6d55bbf325f372"
_SWEEP_PIN = "41e29a1b8064aa235e0a8e37a41107c2994402c108ed9fac41bad6b6770a26b4"


def test_capacity_output_pinned(capsys):
    digest = hashlib.sha256()
    for argv in _PIN_CAPACITY_ARGVS:
        assert main(argv) == EXIT_OK
        digest.update(" ".join(argv).encode() + b"\n" + capsys.readouterr().out.encode())
    assert digest.hexdigest() == _CAPACITY_PIN


def test_sweep_output_pinned(capsys):
    assert main(["sweep"]) == EXIT_OK
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _SWEEP_PIN


def test_cached_parser_prints_what_a_fresh_one_prints(capsys):
    # main builds its parser once per process, so no call may leave
    # state behind that a later call sees
    sequence = [
        ["capacity", "--q-bob", "0.003"],
        ["capacity"],
        ["sweep"],
        ["capacity", "--q-bob", "0.003", "--loss-db", "25.1"],
        ["capacity", "--e", "oops"],
        ["capacity"],
    ]

    def run(argv):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    fresh = []
    for argv in sequence:
        _build_parser.cache_clear()
        fresh.append(run(argv))
    parser = _build_parser()
    assert [run(argv) for argv in sequence] == fresh
    assert _build_parser() is parser
    assert [rc for rc, _, _ in fresh] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_IO, EXIT_IO, EXIT_OK]
    assert fresh[1] == fresh[5]


def test_cli_import_leaves_scipy_out():
    # the runtime needs numpy only; scipy is a test dependency
    src = str(Path(qsdc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, qsdc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_capacity_leaves_the_code_cache_alone(tmp_path):
    # no code is built, so no cache path is formed and no directory made
    src = str(Path(qsdc.__file__).resolve().parents[1])
    cache = tmp_path / "xdg"
    env = {**os.environ, "XDG_CACHE_HOME": str(cache),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import qsdc.cli; qsdc.cli.main(['capacity'])"
    subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
    assert not cache.exists()


def test_sweep_stdout(capsys):
    rc = main(["sweep", "--loss-start", "5", "--loss-stop", "10", "--loss-step", "1"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "loss_db,q_bob,i_ab,i_ae,c_s"
    assert len(lines) == 7


def test_sweep_to_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--loss-start", "5", "--loss-stop", "6", "--loss-step", "1",
               "--output", str(out)])
    assert rc == EXIT_OK
    assert out.read_text().startswith("loss_db,")


@pytest.mark.parametrize("command", ["capacity", "sweep"])
@pytest.mark.parametrize("g", ["inf", "-1", "nan"])
def test_bad_g_is_io_error(capsys, command, g):
    # Eve's advantage must be finite and non-negative; the error names g
    assert main([command, f"--g={g}"]) == EXIT_IO
    assert "g must be in [0, inf)" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag", ["--loss-stop=inf", "--loss-start=-inf", "--loss-step=inf", "--loss-step=nan",
             "--loss-start=nan", "--loss-stop=3", "--loss-start=-1", "--loss-db=-1"],
)
def test_sweep_bad_loss_range_is_io_error(capsys, flag):
    # an infinite or NaN bound is rejected as a usage error, not left to
    # overflow or to poison q_bob further on; a negative loss, in a sweep
    # or at capacity's single point, is named as a loss, not as a q_bob
    command = "capacity" if flag.startswith("--loss-db") else "sweep"
    assert main([command, flag]) == EXIT_IO
    err = capsys.readouterr().err
    assert "loss" in err and "q_bob" not in err


def test_stability_csv(tmp_path, capsys):
    cfg = tmp_path / "fast.ini"
    cfg.write_text(FAST_INI)
    out = tmp_path / "rows.csv"
    rc = main(["stability", "--config", str(cfg), "--blocks", "3", "--seed", "2",
               "--output", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("block,attempt,e_x,e_z,e,")
    assert len(lines) >= 4
    err = capsys.readouterr().err
    assert "mean_e" in err


def test_send_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "fast.ini"
    cfg.write_text(FAST_INI)
    src = tmp_path / "in.bin"
    src.write_bytes(b"cli payload" * 5)
    dst = tmp_path / "out.bin"
    rc = main(["send", "--config", str(cfg), "--input", str(src), "--output", str(dst),
               "--seed", "4"])
    assert rc == EXIT_OK
    assert dst.read_bytes() == src.read_bytes()
    report = json.loads(capsys.readouterr().out)
    assert report["byte_identical"]


def test_send_attack_exit_code(tmp_path, capsys):
    cfg = tmp_path / "fast.ini"
    cfg.write_text(FAST_INI)
    src = tmp_path / "in.bin"
    src.write_bytes(b"abc")
    dst = tmp_path / "out.bin"
    rc = main(["send", "--config", str(cfg), "--input", str(src), "--output", str(dst),
               "--attack", "intercept-resend", "--attack-fraction", "1.0"])
    assert rc == EXIT_SECURITY
    report = json.loads(capsys.readouterr().out)
    assert report["security_abort"]


# a data-path flip rate far above e_margin fails every block's forward
# check, while the noiseless check path keeps the capacity gate open
FAILING_INI = FAST_INI.replace("flip_prob = 0.006", "flip_prob = 0.3")
# a dead check path: no pulse reaches Alice's check module, so every
# attempt is deferred and none is decoded
DEAD_CHECK_INI = FAST_INI.replace("[check_channel]\nloss_db = 5.0", "[check_channel]\nloss_db = 70")
# each undelivered case: its config, exit code and abort reason
_UNDELIVERED = (
    (FAILING_INI, EXIT_DECODE, "decode-failure"),
    (DEAD_CHECK_INI, EXIT_DEFERRED, "deferred"),
)


def test_send_decode_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "failing.ini"
    src = tmp_path / "in.bin"
    src.write_bytes(b"abc")
    dst = tmp_path / "out.bin"
    for ini, exit_code, reason in _UNDELIVERED:
        cfg.write_text(ini)
        rc = main(["send", "--config", str(cfg), "--input", str(src), "--output", str(dst)])
        assert rc == exit_code, reason
        report = json.loads(capsys.readouterr().out)
        assert not report["security_abort"]
        assert report["abort_reason"] == reason
        assert not dst.exists()


# a code of 3 message bits in 8 on noisy paths: at seed 1 every block of
# b"abcd" decodes, but the tag of the message they carry does not match
SHORT_CODE_INI = (
    FAST_INI.replace("l = 256\nk_u = 128\nk_r = 32\nn_spread = 8\nseed = 99",
                     "l = 8\nk_u = 4\nk_r = 1\nn_spread = 4\nseed = 7")
    .replace("flip_prob = 0.0\n", "flip_prob = 0.006\n")
)


def test_send_tag_mismatch_is_a_decode_failure(tmp_path, capsys):
    cfg = tmp_path / "short.ini"
    cfg.write_text(SHORT_CODE_INI)
    src = tmp_path / "in.bin"
    src.write_bytes(b"abcd")
    dst = tmp_path / "out.bin"
    transcript = tmp_path / "t.jsonl"
    rc = main(["send", "--config", str(cfg), "--input", str(src), "--output", str(dst),
               "--seed", "1", "--transcript", str(transcript)])
    assert rc == EXIT_DECODE
    report = json.loads(capsys.readouterr().out)
    assert (report["abort_reason"], report["delivered_bytes"]) == ("tag-mismatch", 0)
    assert not report["security_abort"] and not dst.exists()
    *blocks, _ = (json.loads(line) for line in transcript.read_text().splitlines())
    assert blocks[-1]["status"] == "ok" and report["abort_block"] == blocks[-1]["block_index"]


def test_stability_decode_failure_exit_code(tmp_path, capsys):
    cfg = tmp_path / "failing.ini"
    for ini, exit_code, reason in _UNDELIVERED:
        cfg.write_text(ini)
        rc = main(["stability", "--config", str(cfg), "--blocks", "2",
                   "--output", str(tmp_path / "rows.csv")])
        assert rc == exit_code, reason
        assert f"abort_reason {reason}" in capsys.readouterr().err


def test_every_abort_reason_has_its_exit_code():
    codes = {None: EXIT_OK, "capacity-gate": EXIT_SECURITY, "decode-failure": EXIT_DECODE,
             "tag-mismatch": EXIT_DECODE, "deferred": EXIT_DEFERRED}
    assert {reason: _exit_code(reason) for reason in codes} == codes
    # a reason without a code is an error, never a silent default
    with pytest.raises(KeyError):
        _exit_code("no-such-reason")


# a noisy check path: its small check samples close the gate on block 3
# at seed 3, so the table has nonzero check rates and a negative c_s
NOISY_CHECK_INI = FAST_INI.replace("flip_prob = 0.0\n", "flip_prob = 0.02\n")
# sha256 of `qsdc stability` stdout and stderr, and of the `qsdc send`
# JSON reports without output_path (a temporary path), on these runs: a
# change to any printed byte shows
_STABILITY_PIN_RUNS = (
    (FAST_INI, ["--blocks", "6", "--seed", "2"], EXIT_OK),
    (NOISY_CHECK_INI, ["--blocks", "4", "--seed", "3"], EXIT_SECURITY),
    (FAILING_INI, ["--blocks", "2", "--seed", "1"], EXIT_DECODE),
    (DEAD_CHECK_INI, ["--blocks", "1", "--seed", "1"], EXIT_DEFERRED),
)
_SEND_PIN_RUNS = (
    (FAST_INI, ["--seed", "4"], EXIT_OK),
    (FAST_INI, ["--seed", "5", "--attack", "collective", "--attack-ex", "0.02",
                "--attack-ez", "0.01"], EXIT_OK),
    (FAST_INI, ["--seed", "6", "--attack", "intercept-resend"], EXIT_SECURITY),
    (FAILING_INI, ["--seed", "7"], EXIT_DECODE),
)
_STABILITY_PIN = "c06177c43f669e795dd1330bb083465c590981156bc88090eae25fee29a49bc9"
_SEND_PIN = "3c2215eeccf47e553175ab592539fb3b71f3a0ab5944d6402a2e5d8bcdd4628e"


def test_stability_output_pinned(tmp_path, capsys):
    cfg = tmp_path / "pin.ini"
    digest = hashlib.sha256()
    for ini, argv, exit_code in _STABILITY_PIN_RUNS:
        cfg.write_text(ini)
        assert main(["stability", "--config", str(cfg), *argv]) == exit_code
        out, err = capsys.readouterr()
        digest.update(out.encode() + b"\n" + err.encode())
    assert digest.hexdigest() == _STABILITY_PIN


def test_send_report_pinned(tmp_path, capsys):
    cfg = tmp_path / "pin.ini"
    src = tmp_path / "in.bin"
    src.write_bytes(bytes(range(256)))
    digest = hashlib.sha256()
    for ini, argv, exit_code in _SEND_PIN_RUNS:
        cfg.write_text(ini)
        rc = main(["send", "--config", str(cfg), "--input", str(src),
                   "--output", str(tmp_path / "out.bin"), *argv])
        assert rc == exit_code
        report = json.loads(capsys.readouterr().out)
        report.pop("output_path", None)
        digest.update(json.dumps(report, indent=2).encode() + b"\n")
    assert digest.hexdigest() == _SEND_PIN


def test_send_missing_input_is_io_error(tmp_path, capsys):
    rc = main(["send", "--input", str(tmp_path / "nope.bin"),
               "--output", str(tmp_path / "o.bin")])
    assert rc == EXIT_IO
    assert "error:" in capsys.readouterr().err


def test_send_report_file(tmp_path, capsys):
    cfg = tmp_path / "fast.ini"
    cfg.write_text(FAST_INI)
    src = tmp_path / "in.bin"
    src.write_bytes(b"x")
    rep = tmp_path / "report.json"
    rc = main(["send", "--config", str(cfg), "--input", str(src),
               "--output", str(tmp_path / "o.bin"), "--report", str(rep)])
    assert rc == EXIT_OK
    assert json.loads(rep.read_text())["byte_identical"]


def _scalars(obj) -> list:
    """Every scalar field value of a config, nested dataclasses flattened."""
    out = []
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        out += _scalars(value) if dataclasses.is_dataclass(value) else [value]
    return out


def _off_default(obj):
    """obj with every scalar field moved off its value, staying valid."""
    changes = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = _off_default(value)
        elif isinstance(value, int):
            changes[f.name] = value - 1
        else:
            changes[f.name] = value / 2 + 0.001
    return dataclasses.replace(obj, **changes)


def test_config_roundtrip(tmp_path):
    config = ProtocolConfig(
        code=CodeParams(l=512, k_u=256, k_r=64, n_spread=16, seed=8),
        check_fraction=0.2,
        check_channel=ChannelParams(7.0, 0.001),
    )
    # every field off its default: a field the INI cannot carry fails
    changed = _off_default(nominal_config())
    assert len(_scalars(changed)) == 14
    assert all(a != b for a, b in zip(_scalars(changed), _scalars(nominal_config())))
    for i, cfg in enumerate((config, changed)):
        path = tmp_path / f"cfg{i}.ini"
        path.write_text(render_config(cfg))
        assert load_config(path) == cfg
        assert parse_config(render_config(cfg)) == cfg


def test_readme_config_example_is_the_nominal_config():
    # the README's INI example is what render_config writes for the
    # nominal config, so a config change cannot leave it stale
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    example = []
    for line in lines[lines.index("    [code]"):]:
        if line and not line.startswith("    "):
            break
        example.append(line[4:])
    assert "\n".join(example).strip() == render_config(nominal_config()).strip()


def test_readme_capacity_example_is_the_cli_output(capsys):
    # the README's `capacity --q-bob 0.003` block is what the CLI prints
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("    $ python3 -m qsdc.cli capacity --q-bob 0.003")
    example = []
    for line in lines[start + 1:]:
        if not line.startswith("    "):
            break
        example.append(line[4:] + "\n")
    assert main(["capacity", "--q-bob", "0.003"]) == EXIT_OK
    assert "".join(example) == capsys.readouterr().out


def test_config_defaults_for_missing_sections():
    assert parse_config("") == nominal_config()
    partial = parse_config("[data_channel]\nloss_db = 12\nflip_prob = 0.01\n")
    assert partial.data_channel == ChannelParams(12.0, 0.01)
    assert partial.code == nominal_config().code


def test_config_partial_section_keeps_defaults():
    nominal = nominal_config()
    partial = parse_config("[data_channel]\nloss_db = 12\n")
    assert partial.data_channel == ChannelParams(12.0, nominal.data_channel.flip_prob)
    assert partial.check_channel == nominal.check_channel
    partial = parse_config("[check_channel]\nflip_prob = 0.02\n[code]\nseed = 7\n")
    assert partial.check_channel == ChannelParams(nominal.check_channel.loss_db, 0.02)
    assert partial.code == CodeParams(seed=7)
    assert partial.data_channel == nominal.data_channel


# the values below that no int or float conversion accepts
_UNPARSABLE = ("twelve", "1.5", "abc")


@pytest.mark.parametrize(
    "section, key, value",
    [
        pytest.param("data_channel", "loss_db", "-3", id="-3"),
        pytest.param("data_channel", "loss_db", "twelve", id="twelve"),
        # NaN fails every range check; an infinite g or rate makes the
        # report invalid JSON
        ("data_channel", "loss_db", "nan"),
        ("protocol", "e_margin", "nan"),
        ("protocol", "g_back_channel_db", "nan"),
        ("protocol", "g_back_channel_db", "inf"),
        ("protocol", "repetition_rate_hz", "nan"),
        ("protocol", "repetition_rate_hz", "inf"),
        # the gate threshold is a constant now: a value that would have
        # switched the gate off is rejected with its key
        ("protocol", "abort_threshold_capacity", "nan"),
        ("protocol", "abort_threshold_capacity", "-inf"),
        # values that do not parse as their key's type
        pytest.param("code", "l", "1.5", id="1.5 as int"),
        pytest.param("protocol", "e_margin", "abc", id="abc as float"),
    ],
)
def test_bad_partial_section_value_is_io_error(tmp_path, capsys, section, key, value):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    # rejected when the config is read, not by whatever fails later in a run
    with pytest.raises(ValueError):
        load_config(cfg)
    rc = main(["stability", "--config", str(cfg), "--blocks", "1"])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert key in err
    if value in _UNPARSABLE:
        # the message names where the value is, not only the failed conversion
        assert f"[{section}] {key}: {value!r} does not parse as " in err


def test_config_unknown_key_rejected():
    with pytest.raises(ValueError):
        parse_config("[protocol]\nblok_pulses = 10\n")
    with pytest.raises(ValueError):
        parse_config("[codes]\nl = 10\n")
    # the gate options that could only abort, the gate threshold and
    # retry budget that are now constants, and block_pulses, which the
    # code's footprint sets, are gone from the schema
    for key in (
        "confidence_delta = 0.01", "enforce_code_budget = true",
        "abort_threshold_capacity = nan", "abort_threshold_capacity = -inf",
        "max_block_retries = 1", "block_pulses = 1088960",
    ):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config(f"[protocol]\n{key}\n")


def test_bad_config_is_io_error(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[protocol]\nnot_a_key = 3\n")
    rc = main(["stability", "--config", str(cfg), "--blocks", "1"])
    assert rc == EXIT_IO


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("l = 256\n", id="no section header"),
        pytest.param("[code]\nl = 256\nl = 512\n", id="duplicate key"),
        pytest.param("[code]\nl = 256\n[code]\nk_u = 128\n", id="duplicate section"),
        pytest.param("[code]\nl = 256\n[protocol\ne_margin = 0.1\n", id="unclosed section"),
        pytest.param("[data_channel]\nflip_prob = 5%\n", id="percent in value"),
    ],
)
def test_malformed_config_file_is_io_error(tmp_path, capsys, text):
    # a file configparser cannot read is a usage error, not a traceback
    cfg = tmp_path / "malformed.ini"
    cfg.write_text(text)
    with pytest.raises(ValueError, match="malformed config"):
        load_config(cfg)
    rc = main(["stability", "--config", str(cfg), "--blocks", "1"])
    assert rc == EXIT_IO
    assert capsys.readouterr().err.startswith("error: malformed config")


def test_config_checking_every_slot_is_io_error(tmp_path, capsys):
    # a lossless check path with every received pulse checked leaves no
    # slot for data: rejected as a bad config, not a crash
    cfg = tmp_path / "all_checked.ini"
    cfg.write_text("[protocol]\ncheck_fraction = 1.0\n\n[check_channel]\nloss_db = 0.0\n")
    rc = main(["stability", "--config", str(cfg), "--blocks", "1"])
    assert rc == EXIT_IO
    assert "consumes every slot" in capsys.readouterr().err


def test_unbuildable_code_config_is_io_error(tmp_path, capsys):
    # a config that names no code is rejected when the file is read, even
    # by a send whose empty input would never build one: k_r not below
    # k_u, as many checks as a variable has edges (every column of H all
    # ones, so H has rank 1), or a seed numpy cannot seed from
    cfg = tmp_path / "bad_code.ini"
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    report = tmp_path / "report.json"
    for text, message in (
        ("[code]\nk_r = 700\n", "k_r < k_u"),
        ("[code]\nl = 20\nk_u = 17\nk_r = 1\nn_spread = 4\n", "must exceed the variable degree 3"),
        ("[code]\nseed = -3\n", "seed must be >= 0, got -3"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_config(text)
        cfg.write_text(text)
        rc = main(["send", "--config", str(cfg), "--input", str(src),
                   "--output", str(tmp_path / "out.bin"), "--report", str(report)])
        out, err = capsys.readouterr()
        assert rc == EXIT_IO
        assert out == "" and not report.exists()
        assert message in err


def test_code_whose_draws_are_all_rank_deficient_is_io_error(tmp_path, capsys, monkeypatch):
    # every parity-check draw rank deficient: the error names the code and
    # suggests another seed, after the last redraw
    draws = []

    def rank_deficient(h):
        draws.append(h)
        raise ValueError("parity-check matrix is rank deficient")

    monkeypatch.setattr(qsdc.wiretap_code, "systematic_generator", rank_deficient)
    cfg = tmp_path / "code.ini"
    # a code no other test builds, so the process-wide cache holds none
    cfg.write_text("[code]\nl = 64\nk_u = 32\nk_r = 8\nn_spread = 4\nseed = 31337\n")
    src = tmp_path / "in.bin"
    src.write_bytes(b"x")
    rc = main(["send", "--config", str(cfg), "--input", str(src),
               "--output", str(tmp_path / "out.bin")])
    out, err = capsys.readouterr()
    assert rc == EXIT_IO and out == ""
    assert "l=64, k_u=32, seed=31337" in err and "try another seed" in err
    assert len(draws) == qsdc.wiretap_code.MAX_BUILD_ATTEMPTS


@pytest.mark.parametrize("command", ["stability", "send"])
def test_negative_seed_is_argument_error(tmp_path, capsys, command):
    # numpy seeds from integers >= 0 only; the error names --seed, and text
    # that is no integer gets the same message
    for seed in ("-3", "abc", "1.5"):
        argv = [command, "--seed", seed]
        if command == "send":
            argv += ["--input", str(tmp_path / "in.bin"), "--output", str(tmp_path / "out.bin")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_IO
        assert f"argument --seed: expected an integer >= 0, got '{seed}'" in capsys.readouterr().err


def test_oversized_sweep_is_io_error(capsys):
    # a grid of 10**18 points is refused before any array is made
    assert main(["sweep", "--loss-start", "0", "--loss-stop", "1e9", "--loss-step", "1e-9"]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == "" and f"more than {MAX_SWEEP_POINTS} points" in err


def test_oversized_stability_is_io_error(capsys, monkeypatch):
    # a run of 10**11 blocks would frame a 6 TiB payload: refused before
    # any payload is sized or made, like the oversized sweep above
    def unreachable(*args):
        raise AssertionError("payload sized for a refused run")

    monkeypatch.setattr(qsdc.experiments, "payload_bytes_for_blocks", unreachable)
    for blocks in (10**11, MAX_STABILITY_BLOCKS + 1):
        assert main(["stability", "--blocks", str(blocks)]) == EXIT_IO
        out, err = capsys.readouterr()
        assert out == "" and f"n_blocks must lie in [1, {MAX_STABILITY_BLOCKS}], got {blocks}" in err


def test_send_to_a_bad_output_path_keeps_the_transcript(tmp_path, capsys):
    # the session runs, the output file cannot be written, and the record
    # of the session is written first
    cfg = tmp_path / "fast.ini"
    cfg.write_text(FAST_INI)
    src = tmp_path / "in.bin"
    src.write_bytes(b"abc")
    transcript = tmp_path / "t.jsonl"
    rc = main(["send", "--config", str(cfg), "--input", str(src),
               "--output", str(tmp_path / "missing" / "out.bin"), "--transcript", str(transcript)])
    assert rc == EXIT_IO
    assert "No such file or directory" in capsys.readouterr().err
    summary = json.loads(transcript.read_text().splitlines()[-1])
    assert (summary["record"], summary["abort_reason"], summary["delivered_bytes"]) == ("summary", None, 3)


def test_footprint_follows_the_code(tmp_path, capsys):
    # the code alone sets a block's footprint: a file that changes
    # n_spread, and no other key with it, loads and sends
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[code]\nn_spread = 385\nk_r = 475\n")
    config = load_config(cfg)
    assert config.slots_per_block < nominal_config().slots_per_block
    src = tmp_path / "in.bin"
    src.write_bytes(b"hi\n")
    dst = tmp_path / "out.bin"
    assert main(["send", "--config", str(cfg), "--input", str(src), "--output", str(dst),
                 "--seed", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["byte_identical"]
    assert dst.read_bytes() == b"hi\n"


# a noisy check path: e_x + e_z near 0.6, outside the closed forms'
# domain, which the gate caps at 0.5 and so aborts on block 0
NOISY_CHECK_INI = FAST_INI.replace("flip_prob = 0.0", "flip_prob = 0.3")


def test_send_on_a_noisy_check_channel_is_a_security_abort(tmp_path, capsys):
    # the report's capacity conversion caps the rates as the gate does,
    # so the session's abort is reported, not lost to a rate error
    cfg = tmp_path / "noisy.ini"
    cfg.write_text(NOISY_CHECK_INI)
    src = tmp_path / "in.bin"
    src.write_bytes(b"abc")
    transcript = tmp_path / "t.jsonl"
    rc = main(["send", "--config", str(cfg), "--input", str(src),
               "--output", str(tmp_path / "out.bin"), "--transcript", str(transcript)])
    assert rc == EXIT_SECURITY
    report = json.loads(capsys.readouterr().out)
    assert report["abort_reason"] == "capacity-gate"
    assert math.isfinite(report["capacity_rate_bits_per_s"])
    lines = [json.loads(line) for line in transcript.read_text().splitlines()]
    blocks = [line for line in lines if line["record"] == "block"]
    assert [b["status"] for b in blocks] == ["gate-abort"]
    assert main(["stability", "--config", str(cfg), "--blocks", "2",
                 "--output", str(tmp_path / "rows.csv")]) == EXIT_SECURITY


@pytest.mark.parametrize("option", [
    ["--attack-fraction", "0.5"],
    ["--attack", "intercept-resend", "--attack-ex", "0.2"],
    ["--attack", "collective", "--attack-fraction", "0.5", "--attack-ez", "0.2"],
])
def test_send_attack_option_the_attack_does_not_read_is_io_error(tmp_path, capsys, option):
    # an option that --attack ignores would run another session than the
    # one asked for; it is refused, and named, before any session runs
    src, dst = tmp_path / "in.bin", tmp_path / "out.bin"
    src.write_bytes(b"abc")
    rc = main(["send", "--input", str(src), "--output", str(dst)] + option)
    out, err = capsys.readouterr()
    assert rc == EXIT_IO and out == "" and not dst.exists()
    name = next(word for word in option if word.startswith("--attack-"))
    assert f"error: {name} is not read by --attack" in err


@pytest.mark.parametrize("argv", [
    ["capacity", "--e-x", "0.3", "--e-z", "0.3"],
    ["sweep", "--e-x", "0.3", "--e-z", "0.3"],
    ["send", "--attack", "collective", "--attack-ex", "0.3", "--attack-ez", "0.3"],
])
def test_rates_outside_the_domain_are_io_errors(tmp_path, capsys, monkeypatch, argv):
    # configured rates are not capped: ErrorRates refuses them before
    # any capacity, grid or session is computed
    def not_reached(*args, **kwargs):
        raise AssertionError("reached past the rate check")

    for name in ("half_bias_capacity", "secrecy_capacity", "run_capacity_sweep", "run_e2e"):
        monkeypatch.setattr(f"qsdc.cli.{name}", not_reached)
    if argv[0] == "send":
        argv = argv + ["--input", str(tmp_path / "in.bin"), "--output", str(tmp_path / "out.bin")]
    assert main(argv) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == "" and "error: e_x + e_z must be <= 0.5, got 0.3, 0.3" in err


def test_default_section_is_rejected(tmp_path, capsys):
    # configparser's [DEFAULT] is never among its sections(), and its
    # keys would leak into every other section; an empty one is harmless
    assert parse_config("[DEFAULT]\n") == nominal_config()
    for text in ("[DEFAULT]\ne_margin = 0.5\n",
                 "[DEFAULT]\nflip_prob = 0.4\n[check_channel]\nloss_db = 5.0\n"):
        with pytest.raises(ValueError, match=r"unknown section \[DEFAULT\]"):
            parse_config(text)
    cfg = tmp_path / "default.ini"
    cfg.write_text("[DEFAULT]\nflip_prob = 0.4\n[check_channel]\nloss_db = 5.0\n")
    src = tmp_path / "in.bin"
    src.write_bytes(b"abc")
    rc = main(["send", "--config", str(cfg), "--input", str(src), "--output", str(tmp_path / "out.bin")])
    out, err = capsys.readouterr()
    assert rc == EXIT_IO and out == ""
    assert "unknown section [DEFAULT]" in err
