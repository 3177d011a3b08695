"""Write one flat JSON benchmark report for the checkout this file is in.

    python3 tools/bench_report.py --output BENCH_<n>.json [--seconds 8] [--seed 1]

It runs perfbench/run.py for every workload, untraced and traced, then
times a cold nominal `build_code` in a fresh process, takes the
tracemalloc peak of another in a second fresh process, times a 10 KiB
`qsdc send` at the default configuration, and the Tier-1 test suite,
and records the machine: cores, Python, numpy, the git head and, for a
tree with uncommitted changes, a digest that names them.

Every key of the output is a top-level scalar, so two reports diff with

    jq -S . A.json > a; jq -S . B.json > b; diff a b

Keys are `<workload>.<metric>` for the untraced end-to-end metrics,
`<workload>.trace.<metric>` for the traced per-layer ones, and plain
names for the rest.  A figure is from one run; compare two reports
taken on the same machine under the same load.

Around each perfbench call a speed probe times a fixed pure-Python loop
and a fixed numpy kernel, neither of which uses qsdc, as
`<workload>[.trace].probe_before.py_s`, `...probe_before.numpy_s`,
`...probe_after.py_s` and `...probe_after.numpy_s`, each the best of
PROBE_REPEATS runs.  A workload that ran slower while its probe did too
ran on a slower machine, not slower code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the workloads BENCHMARK.json declares, in its order
WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
# the directories whose uncommitted changes make the measured tree differ
# from the git head
TREE_PATHS = ("src", "tests", "perfbench", "tools")
SEND_BYTES = 10 * 1024
PROBE_REPEATS = 3
# builds the default CodeParams() code and prints the build's seconds, or
# with the argument "traced" the peak MiB that tracemalloc saw, which
# would slow the timed build
BUILD_SNIPPET = """
import sys, time, tracemalloc
from qsdc.wiretap_code import CodeParams, build_code
p = CodeParams()
traced = sys.argv[1:] == ["traced"]
if traced:
    tracemalloc.start()
t0 = time.perf_counter()
build_code(p)
elapsed = time.perf_counter() - t0
print(tracemalloc.get_traced_memory()[1] / 2**20 if traced else elapsed)
"""


def _env() -> dict:
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{src}:{path}" if path else src}


def _run(cmd: list[str], **kwargs) -> tuple[subprocess.CompletedProcess, float]:
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True, **kwargs)
    return proc, time.perf_counter() - t0


def _py_loop() -> int:
    total = 0
    for i in range(1_000_000):
        total += i * i % 7
    return total


def _numpy_kernel() -> float:
    import numpy

    x = numpy.linspace(0.0, 1.0, 1 << 17)
    for _ in range(20):
        x = numpy.sin(x) * 0.5 + x * 0.25
    return float(x.sum())


def speed_probe(prefix: str) -> dict:
    """Best-of-PROBE_REPEATS seconds of the fixed loop and the fixed kernel."""
    flat = {}
    for name, probe in (("py_s", _py_loop), ("numpy_s", _numpy_kernel)):
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            probe()
            times.append(time.perf_counter() - t0)
        flat[f"{prefix}.{name}"] = min(times)
    return flat


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py call, flattened to `<workload>[.trace].<key>` entries,
    with the speed probe before and after it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    prefix = f"{workload}.trace" if trace else workload
    flat = speed_probe(f"{prefix}.probe_before")
    proc, _ = _run(cmd)
    flat.update(speed_probe(f"{prefix}.probe_after"))
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines()
        flat[f"{prefix}.error"] = lines[-1] if lines else f"exit {proc.returncode}"
        return flat
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    flat.update({f"{prefix}.{key}": summary[key] for key in ("correct", "attempted", "failed")})
    for name, metric in summary["metrics"].items():
        flat[f"{prefix}.{name}"] = metric["value"]
    return flat


def cold_build() -> dict:
    proc, wall = _run([sys.executable, "-c", BUILD_SNIPPET])
    traced, _ = _run([sys.executable, "-c", BUILD_SNIPPET, "traced"])
    return {"build_code.cold_s": float(proc.stdout.strip()), "build_code.process_s": wall,
            "build_code.traced_peak_mb": float(traced.stdout.strip())}


def send_10k(seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = Path(tmp) / "in.bin", Path(tmp) / "out.bin"
        src.write_bytes(random.Random(seed).randbytes(SEND_BYTES))
        proc, wall = _run([sys.executable, "-m", "qsdc.cli", "send", "--input", str(src),
                           "--output", str(dst), "--seed", str(seed)])
        identical = dst.is_file() and dst.read_bytes() == src.read_bytes()
    return {"send_10k.wall_s": wall, "send_10k.exit_code": proc.returncode,
            "send_10k.identical": identical}


def tier1() -> dict:
    proc, wall = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "--continue-on-collection-errors"])
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {f"tier1.{word}": int(n) for n, word in re.findall(r"(\d+) (passed|failed|errors?)", tail)}
    return {"tier1.wall_s": wall, "tier1.passed": 0, "tier1.failed": 0, **counts}


def _git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def tree_diff_sha256() -> str | None:
    """sha256 of the uncommitted changes under TREE_PATHS, or None if there
    are none: `git diff HEAD --binary`, then each untracked file's path,
    size and bytes in path order."""
    diff = _git("diff", "HEAD", "--binary", "--", *TREE_PATHS)
    untracked = _git("ls-files", "--others", "--exclude-standard", "-z", "--", *TREE_PATHS)
    paths = sorted(p for p in untracked.split(b"\0") if p)
    if not diff and not paths:
        return None
    digest = hashlib.sha256(diff)
    for path in paths:
        data = (ROOT / path.decode()).read_bytes()
        digest.update(b"%s\0%d\0" % (path, len(data)) + data)
    return digest.hexdigest()


def machine() -> dict:
    import numpy

    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    in_git = head.returncode == 0
    diff_sha256 = tree_diff_sha256() if in_git else None
    return {
        "git_head": head.stdout.strip() or None,
        "git_dirty": diff_sha256 is not None if in_git else None,
        "git_diff_sha256": diff_sha256,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, help="report path, e.g. BENCH_<n>.json")
    parser.add_argument("--seconds", type=float, default=8.0, help="timed seconds per run")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    report = {"schema": 1, "seconds": args.seconds, "seed": args.seed, **machine()}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"{workload} trace {trace}", file=sys.stderr)
            report.update(perfbench(workload, args.seed, args.seconds, trace))
    for name, step in (("cold build_code", cold_build), ("10 KiB send", lambda: send_10k(args.seed)),
                       ("tier-1", tier1)):
        print(name, file=sys.stderr)
        report.update(step())
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
