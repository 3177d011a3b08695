"""Command line front end.

Subcommands:
  capacity   single-point secrecy capacity evaluation
  sweep      analytic information rates across a loss range (CSV)
  stability  per-block error-rate table over a simulated session (CSV)
  send       transmit a file through the simulated protocol

Exit codes: 0 success, 2 I/O or argument error, 3 security abort,
4 decode failure (a block still failed after its last retry, or the
delivered message failed its CRC-32 tag), 5 deferral (every attempt of
a block was deferred).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from qsdc.attacks import AttackModel
from qsdc.config_io import load_config
from qsdc.experiments import (
    SweepSpec,
    run_capacity_sweep,
    run_e2e,
    run_stability,
    stability_to_csv,
    sweep_to_csv,
)
from qsdc.protocol import NOMINAL
from qsdc.security import ErrorRates, half_bias_capacity, secrecy_capacity
from qsdc.states import loss_to_survival

EXIT_OK = 0
EXIT_IO = 2
EXIT_SECURITY = 3
EXIT_DECODE = 4
EXIT_DEFERRED = 5


def _add_rate_args(parser: argparse.ArgumentParser) -> None:
    """Error rates and Eve's advantage, defaulting to the nominal point."""
    e, e_check = NOMINAL.data_channel.flip_prob, NOMINAL.check_channel.flip_prob
    parser.add_argument("--e", type=float, default=e, help="data-path error rate")
    parser.add_argument("--e-x", type=float, default=e_check, help="X-basis check error rate")
    parser.add_argument("--e-z", type=float, default=e_check, help="Z-basis check error rate")
    parser.add_argument("--g", type=float, default=NOMINAL.g, help="Eve detection advantage")


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as numpy's seed sequences take."""
    try:
        value = int(text)
    except ValueError:
        value = -1  # refused below, with the negative seeds
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


# each --attack's constructor and the options it reads, with their values when not given
_ATTACKS = {
    "none": (AttackModel.none, {}),
    "intercept-resend": (AttackModel.intercept_resend, {"attack_fraction": 1.0}),
    "collective": (AttackModel.optimal_collective, {"attack_ex": 0.0, "attack_ez": 0.0}),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    parser = argparse.ArgumentParser(
        prog="qsdc",
        description="Simulator and security calculator for a two-way QSDC link.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cap = sub.add_parser("capacity", help="single-point secrecy capacity")
    group = cap.add_mutually_exclusive_group()
    group.add_argument("--q-bob", type=float, default=None, help="Bob detection rate per pulse")
    group.add_argument(
        "--loss-db", type=float, default=NOMINAL.data_channel.loss_db, help="system loss in dB"
    )
    _add_rate_args(cap)
    cap.set_defaults(run=_cmd_capacity)

    sw = sub.add_parser("sweep", help="capacity sweep over loss range, CSV output")
    sw.add_argument("--loss-start", type=float, default=5.0)
    sw.add_argument("--loss-stop", type=float, default=35.0)
    sw.add_argument("--loss-step", type=float, default=0.5)
    _add_rate_args(sw)
    sw.add_argument("--output", default="-", help="CSV path, or - for stdout")
    sw.set_defaults(run=_cmd_sweep)

    st = sub.add_parser("stability", help="per-block error table over a session")
    st.add_argument("--config", default=None, help="INI config path")
    st.add_argument("--blocks", type=int, default=50)
    st.add_argument("--seed", type=_seed, default=1)
    st.add_argument("--output", default="-", help="CSV path, or - for stdout")
    st.set_defaults(run=_cmd_stability)

    snd = sub.add_parser("send", help="transmit a file through the simulated link")
    snd.add_argument("--config", default=None, help="INI config path")
    snd.add_argument("--input", required=True, help="payload file")
    snd.add_argument("--output", required=True, help="recovered-file path")
    snd.add_argument("--seed", type=_seed, default=1)
    snd.add_argument("--attack", choices=list(_ATTACKS), default="none")
    snd.add_argument("--attack-fraction", type=float, help="intercept-resend only (default 1.0)")
    snd.add_argument("--attack-ex", type=float, help="collective only (default 0.0)")
    snd.add_argument("--attack-ez", type=float, help="collective only (default 0.0)")
    snd.add_argument("--report", default=None, help="write the JSON report here as well")
    snd.add_argument("--transcript", default=None, help="write per-block JSONL here")
    snd.set_defaults(run=_cmd_send)
    return parser


def _attack_from_args(args: argparse.Namespace) -> AttackModel:
    """The --attack model; raises ValueError on an option that it does not read."""
    make, reads = _ATTACKS[args.attack]
    given = {name: getattr(args, name) for name in ("attack_fraction", "attack_ex", "attack_ez")}
    for name, value in given.items():
        if value is not None and name not in reads:
            raise ValueError(f"--{name.replace('_', '-')} is not read by --attack {args.attack}")
    return make(*(reads[name] if given[name] is None else given[name] for name in reads))


def _exit_code(abort_reason: str | None) -> int:
    """The exit code of a session's abort reason; KeyError for a reason without one."""
    return {None: EXIT_OK, "capacity-gate": EXIT_SECURITY, "decode-failure": EXIT_DECODE,
            "tag-mismatch": EXIT_DECODE, "deferred": EXIT_DEFERRED}[abort_reason]


def _write_output(text: str, output: str) -> None:
    """Write text to the --output path, or to stdout when it is "-"."""
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _rates(args: argparse.Namespace) -> ErrorRates:
    """The error rates that _add_rate_args' options name."""
    return ErrorRates(e_x=args.e_x, e_z=args.e_z, e=args.e)


def _cmd_capacity(args: argparse.Namespace) -> int:
    q_bob = args.q_bob if args.q_bob is not None else loss_to_survival(args.loss_db)
    rates = _rates(args)
    half = half_bias_capacity(rates, q_bob, args.g)
    best = secrecy_capacity(rates, q_bob, args.g)
    print(f"q_bob {q_bob:.6e}")
    print(f"g {args.g:.6f}")
    print(f"i_ab {half.i_ab:.6e}")
    print(f"i_ae {half.i_ae:.6e}")
    print(f"c_s {half.c_s:.6e}")
    print(f"c_s_grid {best.c_s:.6e}")
    print(f"p_star {best.p:.6f}")
    print(f"secure {'yes' if half.c_s > 0 else 'no'}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        loss_start_db=args.loss_start,
        loss_stop_db=args.loss_stop,
        loss_step_db=args.loss_step,
        rates=_rates(args),
        g=args.g,
    )
    _write_output(sweep_to_csv(run_capacity_sweep(spec)), args.output)
    return EXIT_OK


def _cmd_stability(args: argparse.Namespace) -> int:
    config = NOMINAL if args.config is None else load_config(args.config)
    report = run_stability(config, args.blocks, args.seed)
    _write_output(stability_to_csv(report.rows), args.output)
    for key, value in report.summary.items():
        print(f"{key} {value}", file=sys.stderr)
    return _exit_code(report.summary["abort_reason"])


def _cmd_send(args: argparse.Namespace) -> int:
    attack = _attack_from_args(args)
    config = NOMINAL if args.config is None else load_config(args.config)
    report = run_e2e(
        config,
        args.input,
        args.output,
        args.seed,
        attack=attack,
        transcript_path=args.transcript,
    )
    text = json.dumps(report, indent=2)
    print(text)
    if args.report is not None:
        Path(args.report).write_text(text + "\n")
    return _exit_code(report["abort_reason"])


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
