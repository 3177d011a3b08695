"""The benchmark command: one workload, end to end or per layer.

    python3 perfbench/run.py --workload nominal_file --seed 1 --seconds 15 --trace 0

Every workload runs in fresh single-threaded processes started from
workload.py, one after another.

--trace 0  reports the end-to-end metrics.  `setup_s` is the median
           cold start of SETUP_SAMPLES processes: SETUP_SAMPLES - 1 that
           stop once set up, and the one that then runs the timed loop
           and gives `ops_per_s` and `peak_rss_mb`.
--trace 1  runs the workload untraced and then traced, and reports the
           per-layer metrics of the traced process plus the untraced
           process's CPU time per operation.  The two throughputs, whose
           difference is the tracing overhead, go to standard error.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the same object, with the raw
samples, is written to perfbench/out/.  Exits 2 without a result when
the checkout holds no src/qsdc.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 3
# every process of one run must have ended within this many seconds
RUN_DEADLINE_S = 170
WORKLOADS = ("nominal_file", "marginal_link", "attack_abort", "capacity_scan")
SINGLE_THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class ChildFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run workload.py to completion; returns its result and the spawn instant.

    perf_counter reads CLOCK_MONOTONIC, which parent and child share, so
    the child's `t_ready` minus the spawn instant is its cold start.  A
    child still running at `deadline` is killed and waited for.
    """
    cmd = [sys.executable, str(BENCH_DIR / "workload.py"), *args]
    env = {**os.environ, **SINGLE_THREAD_ENV}
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - t_spawn, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{' '.join(args)}: no result within {RUN_DEADLINE_S} s of the run") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exited with code {proc.returncode}")
    return json.loads(lines[-1]), t_spawn


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(common: list[str], deadline: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        ready, t_spawn = spawn([*common, "--setup-only"], deadline)
        setups.append(ready["t_ready"] - t_spawn)
    run, t_spawn = spawn([*common, "--trace", "0"], deadline)
    setups.append(run["t_ready"] - t_spawn)
    summary = {
        "correct": run["correct"],
        "attempted": run["ops"],
        "failed": run["failed"],
        "metrics": {
            "ops_per_s": metric(run["ops"] / run["elapsed_s"], "1/s"),
            "peak_rss_mb": metric(run["peak_rss_kib"] / 1024.0, "MiB"),
            "setup_s": metric(statistics.median(setups), "s"),
        },
    }
    return summary, {"setup_samples_s": setups, "run": run}


def per_layer(common: list[str], deadline: float) -> tuple[dict, dict]:
    plain, _ = spawn([*common, "--trace", "0"], deadline)
    traced, _ = spawn([*common, "--trace", "1"], deadline)
    plain_rate = plain["ops"] / plain["elapsed_s"]
    traced_rate = traced["ops"] / traced["elapsed_s"]
    print(
        f"ops_per_s untraced {plain_rate:.6g}, traced {traced_rate:.6g}, "
        f"tracing overhead {100.0 * (1.0 - traced_rate / plain_rate):.2f}%",
        file=sys.stderr,
    )
    metrics = dict(traced["layers"])
    metrics["process.cpu_ms_per_op"] = metric(plain["cpu_s"] * 1e3 / plain["ops"], "ms")
    summary = {
        "correct": plain["correct"] and traced["correct"],
        "attempted": plain["ops"] + traced["ops"],
        "failed": plain["failed"] + traced["failed"],
        "metrics": metrics,
    }
    extra = {"untraced_ops_per_s": plain_rate, "traced_ops_per_s": traced_rate, "untraced": plain}
    return summary, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qsdc benchmark: one workload per call")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qsdc" / "__init__.py").is_file():
        print(f"error: no qsdc sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        deadline = time.perf_counter() + RUN_DEADLINE_S
        summary, extra = (per_layer if args.trace else end_to_end)(common, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    record = {"args": vars(args), **summary, **extra}
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
