"""Write one flat JSON benchmark report for the working tree this file is in.

    python3 tools/bench_report.py --output BENCH_<n>.json [--against REV] [--seconds S] [--seed 1]

REV, the revision the tree is compared with, defaults to HEAD; S, the
timed seconds of each run, defaults to BENCHMARK.json's run_seconds,
the run length the benchmark itself uses.

Every report is made the same way.  First the pairs: it checks REV out
with `git worktree` under a temporary directory and runs every workload
of BENCHMARK.json untraced PAIRS times on that checkout (base) and on
this working tree (change), alternating, with REV first in
odd-numbered pairs, then removes the worktree.  For each workload and
end-to-end metric it records
`<workload>.<metric>.{base,change}_{median,q1,q3}` (quartiles by linear
interpolation), and `.wins` and `.losses`, the pairs in which the
change was better or worse; a tie counts for neither.  A run that fails
is left out of the statistics and its last stderr line kept as
`<workload>.<base|change>.error`; that side's `.correct` is then false.
Each pair also times one cold `build_code(CodeParams())` in a fresh
process on each side, untraced and in the pair's order, recorded the
same way as `build_code.wall_s.*`; a failed build leaves its last
stderr line as `build_code.<base|change>.error`.  Only alternating
pairs compare two trees: the machine's speed drifts between runs.

Then the working tree alone: one traced run of each workload, whose
per-layer metrics and CPU per operation land under
`<workload>.trace.<metric>`; the tracemalloc peak of a cold nominal
`build_code` in a fresh process (a traced run times the same build as
`wiretap_code.build_s` when its code cache misses, and reads 0.0 when
it loads the code); two identical 10 KiB `qsdc send`s at the default
configuration into one empty code cache, the first building the code
(`send_10k.wall_s`) and the second loading it (`send_10k.warm_wall_s`);
and the Tier-1 test suite.  It records the line totals
of the package and of the tests, `lines.src` and `lines.tests`, as
`cat src/qsdc/*.py | wc -l` and `cat tests/*.py | wc -l` count them,
and the machine: cores, Python, numpy, the git head and, for a tree
with uncommitted changes, a digest that names them.  A traced run or
build that fails leaves the last line of its stderr under
`<workload>.trace.error` or `build_code.error`, and the report is
still written.

Every process a report starts reads and writes the on-disk code cache
(`XDG_CACHE_HOME`) in a temporary directory made for that report and
removed after it, so no figure depends on the caller's cache.

Every key of the output is a top-level scalar, so two reports diff with

    jq -S . A.json > a; jq -S . B.json > b; diff a b
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# the workloads BENCHMARK.json declares, in its order
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
# its end-to-end metrics and the direction in which each is better
END_TO_END = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}
# the directories whose uncommitted changes make the measured tree differ
# from the git head
TREE_PATHS = ("src", "tests", "perfbench", "tools")
SEND_BYTES = 10 * 1024
# untraced pairs of runs per workload: the fewest from which a gain may be claimed
PAIRS = 10
# builds the default CodeParams() code untraced and prints its wall seconds
BUILD_WALL_SNIPPET = """
import time
from qsdc.wiretap_code import CodeParams, build_code
t0 = time.perf_counter()
build_code(CodeParams())
print(time.perf_counter() - t0)
"""
# builds the default CodeParams() code under tracemalloc and prints the
# peak MiB it saw
BUILD_SNIPPET = """
import tracemalloc
from qsdc.wiretap_code import CodeParams, build_code
tracemalloc.start()
build_code(CodeParams())
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""


def _env(root: Path) -> dict:
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{src}:{path}" if path else src}


def _run(cmd: list[str], root: Path = ROOT, env: dict | None = None,
         **kwargs) -> tuple[subprocess.CompletedProcess, float]:
    """Run cmd in the checkout at root, with env added to its environment."""
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, env={**_env(root), **(env or {})}, capture_output=True,
                          text=True, **kwargs)
    return proc, time.perf_counter() - t0


def _failure(proc: subprocess.CompletedProcess) -> str:
    """The last line of a failed process's stderr, or its exit status."""
    lines = proc.stderr.strip().splitlines()
    return lines[-1] if lines else f"exit {proc.returncode}"


def _perfbench_run(workload: str, seed: int, seconds: float, trace: int,
                   root: Path = ROOT) -> dict | str:
    """One run.py call in the checkout at root: its summary, or the last
    line of its stderr if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc, _ = _run(cmd, root)
    if proc.returncode != 0:
        return _failure(proc)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def perfbench(workload: str, seed: int, seconds: float) -> dict:
    """One traced run.py call, flattened to `<workload>.trace.<key>` entries."""
    prefix = f"{workload}.trace"
    summary = _perfbench_run(workload, seed, seconds, 1)
    if isinstance(summary, str):
        return {f"{prefix}.error": summary}
    flat = {f"{prefix}.{key}": summary[key] for key in ("correct", "attempted", "failed")}
    for name, metric in summary["metrics"].items():
        flat[f"{prefix}.{name}"] = metric["value"]
    return flat


def _build_wall(root: Path) -> float | str:
    """One untraced cold build in a fresh process in the checkout at root:
    its wall seconds, or the last line of its stderr if it failed."""
    proc, _ = _run([sys.executable, "-c", BUILD_WALL_SNIPPET], root)
    return _failure(proc) if proc.returncode else float(proc.stdout.strip())


def cold_build() -> dict:
    """The traced build's peak, or build_code.error if it failed."""
    proc, _ = _run([sys.executable, "-c", BUILD_SNIPPET])
    if proc.returncode != 0:
        return {"build_code.error": _failure(proc)}
    return {"build_code.traced_peak_mb": float(proc.stdout.strip())}


def send_10k(seed: int) -> dict:
    """Two identical sends into one empty code cache: the first, cold, as
    `send_10k.wall_s` and `.exit_code`, the second, warm, as `.warm_wall_s`
    and `.warm_exit_code`; `.identical` when both delivered the input."""
    flat, identical = {}, True
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "in.bin"
        src.write_bytes(random.Random(seed).randbytes(SEND_BYTES))
        cache = {"XDG_CACHE_HOME": str(Path(tmp) / "cache")}
        for prefix in ("", "warm_"):
            dst = Path(tmp) / f"{prefix}out.bin"
            proc, wall = _run([sys.executable, "-m", "qsdc.cli", "send", "--input", str(src),
                               "--output", str(dst), "--seed", str(seed)], env=cache)
            flat[f"send_10k.{prefix}wall_s"] = wall
            flat[f"send_10k.{prefix}exit_code"] = proc.returncode
            identical = identical and dst.is_file() and dst.read_bytes() == src.read_bytes()
    return {**flat, "send_10k.identical": identical}


def tier1() -> dict:
    proc, wall = _run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                       "--continue-on-collection-errors"])
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {"tier1.wall_s": wall, "tier1.passed": 0, "tier1.failed": 0, "tier1.errors": 0,
              "tier1.skipped": 0, "tier1.xfailed": 0}
    # pytest writes "1 error" but "2 errors"; both are counted as tier1.errors
    for n, word in re.findall(r"(\d+) (passed|failed|error|skipped|xfailed)", tail):
        counts[f"tier1.{'errors' if word == 'error' else word}"] = int(n)
    return counts


def line_counts() -> dict:
    """Newline totals of the package's and the tests' Python files."""
    def total(pattern: str) -> int:
        return sum(path.read_bytes().count(b"\n") for path in ROOT.glob(pattern))

    return {"lines.src": total("src/qsdc/*.py"), "lines.tests": total("tests/*.py")}


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


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def summarise_pairs(prefix: str, better: str, base: list[float], change: list[float]) -> dict:
    """Flat statistics of one metric over pairs of runs, base[i] beside
    change[i]: each side's median and quartiles, and the pairs the change
    won and lost; better is "higher" or "lower", and a tie counts for
    neither side."""
    flat = {}
    for side, samples in (("base", base), ("change", change)):
        q1, median, q3 = _quartiles(samples)
        flat.update({f"{prefix}.{side}_median": median, f"{prefix}.{side}_q1": q1,
                     f"{prefix}.{side}_q3": q3})
    sign = 1 if better == "higher" else -1
    flat[f"{prefix}.wins"] = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    flat[f"{prefix}.losses"] = sum(sign * (c - b) < 0 for b, c in zip(base, change))
    return flat


def _paired(base: list, change: list) -> list[tuple]:
    """The pairs of runs in which neither side failed; a failed run is
    its last stderr line."""
    return [(b, c) for b, c in zip(base, change) if not isinstance(b, str) and not isinstance(c, str)]


@contextlib.contextmanager
def _worktree(rev: str):
    """A detached checkout of rev under a temporary directory, removed on exit."""
    with tempfile.TemporaryDirectory(prefix="bench_report_") as tmp:
        path = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(path), rev)
        try:
            yield path
        finally:
            _git("worktree", "remove", "--force", str(path))


def compare(rev: str, seed: int, seconds: float) -> dict:
    """Alternating untraced runs of rev (base) and this working tree
    (change), summarised per workload and end-to-end metric, and the
    cold builds timed in the same pairs."""
    report = {"against": rev, "against_sha": _git("rev-parse", rev).decode().strip(), "pairs": PAIRS}
    runs = {(w, side): [] for w in WORKLOADS for side in ("base", "change")}
    builds = {"base": [], "change": []}
    with _worktree(rev) as base:
        for i in range(1, PAIRS + 1):
            order = (("base", base), ("change", ROOT))
            order = order if i % 2 else order[::-1]
            for workload in WORKLOADS:
                for side, root in order:
                    print(f"pair {i}/{PAIRS} {workload} {side}", file=sys.stderr)
                    runs[workload, side].append(_perfbench_run(workload, seed, seconds, 0, root))
            for side, root in order:
                print(f"pair {i}/{PAIRS} build_code {side}", file=sys.stderr)
                builds[side].append(_build_wall(root))
    for side, walls in builds.items():
        errors = [w for w in walls if isinstance(w, str)]
        if errors:
            report[f"build_code.{side}.error"] = errors[-1]
    timed = _paired(builds["base"], builds["change"])
    if timed:
        report.update(summarise_pairs("build_code.wall_s", "lower", *map(list, zip(*timed))))
    for workload in WORKLOADS:
        for side in ("base", "change"):
            summaries = [r for r in runs[workload, side] if not isinstance(r, str)]
            errors = [r for r in runs[workload, side] if isinstance(r, str)]
            if errors:
                report[f"{workload}.{side}.error"] = errors[-1]
            report[f"{workload}.{side}.correct"] = not errors and all(r["correct"] for r in summaries)
            report[f"{workload}.{side}.failed"] = sum(r["failed"] for r in summaries)
        complete = _paired(runs[workload, "base"], runs[workload, "change"])
        report[f"{workload}.pairs"] = len(complete)
        if not complete:
            continue
        for metric, better in END_TO_END.items():
            report.update(summarise_pairs(
                f"{workload}.{metric}", better,
                [b["metrics"][metric]["value"] for b, _ in complete],
                [c["metrics"][metric]["value"] for _, c in complete],
            ))
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", required=True, help="report path, e.g. BENCH_<n>.json")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"],
                        help="timed seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", metavar="REV", default="HEAD",
                        help=f"compare this working tree with git revision REV in {PAIRS} "
                             "alternating pairs (default: HEAD)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    report = {"schema": 2, "seconds": args.seconds, "seed": args.seed, **machine(), **line_counts()}
    # SIGTERM raises SystemExit, so the worktree and the cache are still removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # every process the report starts inherits an empty code cache of its own
    with tempfile.TemporaryDirectory(prefix="bench_report_cache_") as cache, \
            mock.patch.dict(os.environ, XDG_CACHE_HOME=cache):
        report.update(compare(args.against, args.seed, args.seconds))
        for workload in WORKLOADS:
            print(f"{workload} traced", file=sys.stderr)
            report.update(perfbench(workload, args.seed, args.seconds))
        for name, step in (("cold build_code", cold_build),
                           ("10 KiB send", lambda: send_10k(args.seed)), ("tier-1", tier1)):
            print(name, file=sys.stderr)
            report.update(step())
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    return 0

if __name__ == "__main__":
    sys.exit(main())
