"""One benchmark workload in one fresh process.

The process sets the workload up, runs one untimed warm-up operation,
then a closed loop of operations for a fixed wall time, and checks
every output.  run.py starts it; its last line of standard output is
one JSON object for run.py to read.

    python3 perfbench/workload.py --workload nominal_file --seed 1 --seconds 15 --trace 0
    python3 perfbench/workload.py --workload nominal_file --seed 1 --setup-only

With --setup-only it stops once the first operation could run and
reports that instant.  With --trace 1 it wraps each layer's functions
and reports per-layer times and counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC_DIR))

import checks  # noqa: E402  (this file's directory is on sys.path)
from tracing import Tracer, check_nesting, self_times, totals_by_name  # noqa: E402

# The benchmark fixes every parameter its checks depend on instead of
# reading them back from the program's defaults.
CODE_LENGTH = 1312
CHECK_FLIP = 0.008
DATA_FLIP = 0.006
# Block 0 is gated on its own check sample.  At the default fraction 0.1
# (about 180 matched checks) an honest session aborts on block 0 about
# once in 900; at 0.3 (about 540) the odds fall below one in a million,
# so no operation of a delivering workload fails at random.
CHECK_FRACTION = 0.3
FORWARD_CHECK_FRACTION = 0.05
# 160 bytes plus the 4-byte length header make 1312 bits, which take
# three blocks of 528 message bits with 272 to spare for a longer header
PAYLOAD_BYTES = 160
G_BACK = 10.0 ** (4.1 / 10.0)
# full intercept-resend disturbs a matched check with probability 1/4,
# and the channel flip then acts on top of it
ATTACK_CHECK_ERROR = 0.25 * (1.0 - 2.0 * CHECK_FLIP) + CHECK_FLIP

# capacity_scan: loss x (e_x, e_z); 3 dB puts g*q above 1, and the last
# three error pairs are insecure at every loss
CAPACITY_LOSS_DB = (3.0, 10.0, 18.06, 25.1, 30.0, 40.0)
CAPACITY_ERRORS = ((0.008, 0.008), (0.02, 0.03), (0.06, 0.04), (0.1, 0.1), (0.25, 0.2))


@dataclass(frozen=True)
class Link:
    """Operating point of a session workload."""

    n_spread: int
    check_loss_db: float
    data_loss_db: float
    attack_fraction: float = 0.0  # intercept-resend; a full attack must abort

    @property
    def aborts(self) -> bool:
        return self.attack_fraction > 0.0


LINKS = {
    "nominal_file": Link(n_spread=830, check_loss_db=25.1, data_loss_db=25.1),
    "marginal_link": Link(n_spread=16, check_loss_db=8.0, data_loss_db=12.1),
    "attack_abort": Link(n_spread=830, check_loss_db=25.1, data_loss_db=25.1, attack_fraction=1.0),
}
WORKLOADS = (*LINKS, "capacity_scan")

# span name -> functions wrapped under it, by the name their caller looks
# them up by; "setup", "op" and "spreading.basis" are opened by this file
WRAPPED = {
    "wiretap_code.build": ("qsdc.protocol.build_code",),
    "ldpc.peg": ("qsdc.wiretap_code.peg_construct",),
    "ldpc.generator": ("qsdc.wiretap_code.systematic_generator",),
    "gf2.uhf_matrix": ("qsdc.wiretap_code.random_invertible",),
    "experiments": ("qsdc.experiments.run_e2e",),
    "protocol.session": ("qsdc.experiments.run_session",),
    "states.prepare": ("qsdc.protocol.bob_prepare_block",),
    "attacks.apply": ("qsdc.attacks.AttackModel.apply",),
    "states.channel": ("qsdc.protocol.flip_codes", "qsdc.protocol.measure_codes"),
    "protocol.check": ("qsdc.protocol.alice_sample_check", "qsdc.protocol.bob_estimate_errors"),
    "security.gate": ("qsdc.protocol.gate_on_capacity",),
    "protocol.layout": ("qsdc.protocol.alice_encode_block", "qsdc.protocol.bob_decode_block"),
    "wiretap_code.uhf": ("qsdc.protocol.uhf_map", "qsdc.protocol.uhf_invert"),
    "ldpc.encode": ("qsdc.protocol.ldpc_encode",),
    "spreading.spread": ("qsdc.protocol.spread",),
    "spreading.llr": ("qsdc.protocol.compute_llrs",),
    "ldpc.bp": ("qsdc.protocol.bp_decode",),
    "cli": ("qsdc.cli.main",),
    "security.capacity": ("qsdc.cli.secrecy_capacity",),
}


def no_span(name: str):
    """Stand-in for Tracer.span in an untraced process."""
    return contextlib.nullcontext()


class Counts:
    """Transcript totals over the timed operations of a session workload."""

    def __init__(self) -> None:
        self.attempts = self.slots = self.detections = self.bp_iters = 0
        self.err_x = self.n_x = self.err_z = self.n_z = 0
        self.check_detected = 0
        self.fwd_err = self.fwd_n = 0
        self.data_detected = self.data_slots = 0

    def add(self, blocks: list[dict], consumed_per_attempt: int) -> None:
        for b in blocks:
            self.attempts += 1
            self.slots += b["n_sent"]
            self.check_detected += b["n_received_check"]
            self.detections += b["n_received_check"] + b["n_fwd_detected"] + b["n_chip_detected"]
            self.bp_iters += b["bp_iterations"]
            self.err_x += b["err_x"]
            self.n_x += b["n_x"]
            self.err_z += b["err_z"]
            self.n_z += b["n_z"]
            returned = b["n_fwd_detected"] + b["n_chip_detected"]
            if returned:
                # the attempt reached the decoder: its data slots went out
                self.data_detected += returned
                self.data_slots += consumed_per_attempt
            if b["e_fwd"] is not None:
                self.fwd_err += round(b["e_fwd"] * b["n_fwd_detected"])
                self.fwd_n += b["n_fwd_detected"]


class SessionWorkload:
    """Payload files sent through `experiments.run_e2e`, the path `qsdc send` takes."""

    ops_per_round = 1

    def __init__(self, name: str, seed: int, workdir: Path, span) -> None:
        self.link = LINKS[name]
        self.seed = seed
        self.workdir = workdir
        self.span = span
        self.counts = Counts()
        chips = self.link.n_spread * CODE_LENGTH
        n_fwd = math.ceil(chips * FORWARD_CHECK_FRACTION / (1.0 - FORWARD_CHECK_FRACTION))
        self.consumed_per_attempt = chips + n_fwd

    def setup(self) -> None:
        import qsdc.protocol
        import qsdc.spreading
        from qsdc.attacks import AttackModel
        from qsdc.states import ChannelParams

        link = self.link
        base = qsdc.protocol.nominal_config()
        self.config = replace(
            base,
            code=replace(base.code, l=CODE_LENGTH, n_spread=link.n_spread),
            block_pulses=link.n_spread * CODE_LENGTH,
            check_fraction=CHECK_FRACTION,
            forward_check_fraction=FORWARD_CHECK_FRACTION,
            check_channel=ChannelParams(link.check_loss_db, CHECK_FLIP),
            data_channel=ChannelParams(link.data_loss_db, DATA_FLIP),
        )
        self.attack = (
            AttackModel.intercept_resend(link.attack_fraction) if link.aborts else AttackModel.none()
        )
        code = qsdc.protocol.realize_code(self.config.code)
        keystream = getattr(qsdc.spreading, "keystream", None)
        if not link.aborts and keystream is not None:
            # the first keystream at this length builds the m-sequence basis
            with self.span("spreading.basis"):
                keystream(code.seed, 0, code.block_chips)

    def run_op(self, i: int) -> tuple[list[str], str]:
        import numpy as np
        import qsdc.experiments

        rng = np.random.default_rng([self.seed, i])
        payload = rng.bytes(PAYLOAD_BYTES)
        session_seed = int(rng.integers(2**31))
        src, dst, log = (self.workdir / n for n in ("in.bin", "out.bin", "transcript.jsonl"))
        src.write_bytes(payload)
        dst.unlink(missing_ok=True)
        report = qsdc.experiments.run_e2e(
            self.config, src, dst, session_seed, attack=self.attack, transcript_path=log
        )
        text = log.read_text()
        *blocks, summary = (json.loads(line) for line in text.splitlines())
        self.counts.add(blocks, self.consumed_per_attempt)
        if not self.link.aborts:
            return checks.check_delivered_file(dst, payload), text
        problems = []
        if not (report["security_abort"] and report["abort_reason"] == "capacity-gate"):
            problems.append(f"no capacity-gate abort: {report['security_abort']}, {report['abort_reason']!r}")
        if [(b["block_index"], b["status"]) for b in blocks] != [(0, "gate-abort")]:
            problems.append(f"blocks {[(b['block_index'], b['status']) for b in blocks]}, want one gate-abort on block 0")
        if summary["delivered_bytes"] != 0 or dst.exists():
            problems.append("an aborted session delivered bytes")
        return problems, text

    def pooled_problems(self) -> list[str]:
        c = self.counts
        link = self.link
        check_error = ATTACK_CHECK_ERROR if link.aborts else CHECK_FLIP
        problems = [
            *checks.check_binomial("X check errors", c.err_x, c.n_x, check_error),
            *checks.check_binomial("Z check errors", c.err_z, c.n_z, check_error),
            *checks.check_binomial(
                "check-path detections", c.check_detected, c.slots, 10.0 ** (-link.check_loss_db / 10.0)
            ),
        ]
        if not link.aborts:
            problems += checks.check_binomial("forward check errors", c.fwd_err, c.fwd_n, DATA_FLIP)
            problems += checks.check_binomial(
                "data-path detections", c.data_detected, c.data_slots, 10.0 ** (-link.data_loss_db / 10.0)
            )
        return problems


class CapacityWorkload:
    """`qsdc capacity` called in-process through `qsdc.cli.main` over a fixed grid."""

    def __init__(self, name: str, seed: int, workdir: Path, span) -> None:
        import numpy as np

        self.grid = [(loss, ex, ez) for loss in CAPACITY_LOSS_DB for ex, ez in CAPACITY_ERRORS]
        self.ops_per_round = len(self.grid)
        # the seed fixes the order in which every round visits the grid
        self.order = np.random.default_rng(seed).permutation(len(self.grid)).tolist()
        self.counts = None

    def setup(self) -> None:
        pass

    def run_op(self, i: int) -> tuple[list[str], str]:
        import qsdc.cli

        loss, e_x, e_z = self.grid[self.order[i % len(self.grid)]]
        argv = ["capacity", "--loss-db", repr(loss), "--e", repr(DATA_FLIP),
                "--e-x", repr(e_x), "--e-z", repr(e_z), "--g", repr(G_BACK)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = qsdc.cli.main(argv)
        text = out.getvalue()
        problems = [] if rc == 0 else [f"exit code {rc}"]
        q = 10.0 ** (-loss / 10.0)
        return problems + checks.check_capacity_output(text, q, DATA_FLIP, e_x, e_z, G_BACK), text

    def pooled_problems(self) -> list[str]:
        return []


# per-layer metric -> the span it reads: set-up figures are durations of
# set-up spans; the others are self times of the timed operations' spans,
# per block attempt or per operation
SETUP_LAYERS = {
    "wiretap_code.build_s": "wiretap_code.build",
    "ldpc.peg_s": "ldpc.peg",
    "ldpc.generator_s": "ldpc.generator",
    "gf2.uhf_matrix_s": "gf2.uhf_matrix",
    "spreading.basis_s": "spreading.basis",
}
ATTEMPT_LAYERS = {
    "protocol.self_ms": "protocol.session",
    "protocol.check_ms": "protocol.check",
    "protocol.layout_ms": "protocol.layout",
    "states.prepare_ms": "states.prepare",
    "states.channel_ms": "states.channel",
    "attacks.apply_ms": "attacks.apply",
    "security.gate_ms": "security.gate",
    "wiretap_code.uhf_ms": "wiretap_code.uhf",
    "ldpc.encode_ms": "ldpc.encode",
    "spreading.spread_ms": "spreading.spread",
    "spreading.llr_ms": "spreading.llr",
    "ldpc.bp_ms": "ldpc.bp",
}
OP_LAYERS = {
    "security.capacity_ms": "security.capacity",
    "cli.self_ms": "cli",
    "experiments.self_ms": "experiments",
}


def layer_metrics(tracer: Tracer, setup_end: int, mark: int, import_s: float, ops: int, counts) -> dict:
    """Per-layer figures from the set-up spans (before `setup_end`) and
    the timed operations' spans (from `mark` on).

    A layer whose every wrapped name has gone from the program reads as
    missing: its value is null.
    """
    own = self_times(tracer.spans)
    _, setup_wall = totals_by_name(tracer.spans[:setup_end], own[:setup_end])
    op_self, _ = totals_by_name(tracer.spans[mark:], own[mark:])
    counts = counts or Counts()
    attempts = counts.attempts
    gone = {span for span, targets in WRAPPED.items() if set(targets) <= set(tracer.missing)}
    if "qsdc.spreading.keystream" in tracer.missing:
        gone.add("spreading.basis")

    def per(total: float, n: int, scale: float = 1.0) -> float:
        return total * scale / n if n else 0.0

    values = {"qsdc.import_s": ("s", import_s, None)}
    for name, span in SETUP_LAYERS.items():
        values[name] = ("s", setup_wall[span], span)
    for name, span in ATTEMPT_LAYERS.items():
        values[name] = ("ms", per(op_self[span], attempts, 1e3), span)
    for name, span in OP_LAYERS.items():
        values[name] = ("ms", per(op_self[span], ops, 1e3), span)
    values.update({
        "protocol.attempts_per_op": ("count", per(attempts, ops), None),
        "protocol.slots_per_attempt": ("count", per(counts.slots, attempts), None),
        "protocol.detections_per_attempt": ("count", per(counts.detections, attempts), None),
        "ldpc.bp_iters": ("count", per(counts.bp_iters, attempts), None),
        "ldpc.bp_ms_per_iter": ("ms", per(op_self["ldpc.bp"], counts.bp_iters, 1e3), "ldpc.bp"),
    })
    return {
        name: {"value": None if span in gone else value, "unit": unit}
        for name, (unit, value, span) in values.items()
    }


def run(args: argparse.Namespace, workdir: Path) -> dict:
    tracer = Tracer() if args.trace else None
    span = tracer.span if tracer else no_span
    t0 = time.perf_counter()
    import qsdc.cli  # the whole package, scipy included

    import_s = time.perf_counter() - t0
    if SRC_DIR not in Path(qsdc.cli.__file__).resolve().parents:
        raise SystemExit(f"qsdc was imported from {qsdc.cli.__file__}, not from {SRC_DIR}")
    if tracer:
        for span_name, targets in WRAPPED.items():
            for target in targets:
                tracer.wrap(target, span_name)
        if not hasattr(sys.modules["qsdc.spreading"], "keystream"):
            tracer.missing.append("qsdc.spreading.keystream")
        for target in tracer.missing:
            print(f"layer missing: {target}", file=sys.stderr)

    kind = SessionWorkload if args.workload in LINKS else CapacityWorkload
    workload = kind(args.workload, args.seed, workdir, span)
    with span("setup"):
        workload.setup()
    t_ready = time.perf_counter()
    setup_end = len(tracer.spans) if tracer else 0
    if args.setup_only:
        return {"t_ready": t_ready}

    problems: list[str] = []

    def one_op(i: int) -> str | None:
        with span("op"):
            try:
                op_problems, output = workload.run_op(i)
            except Exception:  # an operation that raises counts as failed; the run goes on
                op_problems, output = [traceback.format_exc()], ""
        problems.extend(f"op {i}: {p}" for p in op_problems)
        return output if not op_problems else None

    # the warm-up repeats as the first timed operation, whose output must match it
    warm_output = one_op(0)
    problems.clear()
    if workload.counts is not None:
        workload.counts = Counts()
    mark = len(tracer.spans) if tracer else 0

    ops = failed = 0
    first_output = None
    op_s = []
    cpu0 = time.process_time()
    start = time.perf_counter()
    while True:
        for _ in range(workload.ops_per_round):
            before = len(problems)
            t_op = time.perf_counter()
            output = one_op(ops)
            op_s.append(time.perf_counter() - t_op)
            if ops == 0:
                first_output = output
            failed += len(problems) > before
            ops += 1
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0

    run_problems = workload.pooled_problems()
    if first_output != warm_output:
        run_problems.append("operation 0 rerun with its seed gave different output")
    result = {
        "t_ready": t_ready,
        "ops": ops,
        "failed": failed,
        "elapsed_s": elapsed,
        "cpu_s": cpu_s,
        "op_s": op_s,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        run_problems += check_nesting(tracer.spans, self_times(tracer.spans), mark)
        result["layers"] = layer_metrics(tracer, setup_end, mark, import_s, ops, workload.counts)
    for p in (problems + run_problems)[:20]:
        print(p, file=sys.stderr)
    result["correct"] = not run_problems
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workdir = BENCH_DIR / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
