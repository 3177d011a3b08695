"""The benchmark harness against the package it measures.

perfbench/workload.py wraps each target in its WRAPPED table when it
traces a run, and reports a layer whose targets are all gone as null.
The table is read as data, without importing perfbench, so that a
rename or deletion in the package fails here instead.  The workload
names are BENCHMARK.json's, and perfbench/run.py must offer exactly
those.  Each workload also runs once, untimed, so that a break in
anything else the harness reads from the package fails here too, and
one traced nominal round must time every layer of the nominal hot path
above zero.  The report writer in tools/ must keep a failed run's
report flat, alternate the two trees in its pairs and mark a side whose
runs failed as not correct, write one report of the pairs and the
traced runs, run every process of a report in an empty code cache of
its own, and time a cold and then a warm send.
"""

import ast
import contextlib
import functools
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = ROOT / "perfbench" / "workload.py"
# the workloads BENCHMARK.json declares, in its order
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _literal(path: Path, name: str):
    """The literal assigned to the module-level name in path, read as data."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} literal in {path}")


def _resolves(target: str) -> bool:
    # qsdc.<module>.<attribute>[.<attribute>]
    package, module, *attrs = target.split(".")
    if package != "qsdc" or not attrs:
        return False
    obj = importlib.import_module(f"{package}.{module}")
    try:
        return callable(functools.reduce(getattr, attrs, obj))
    except AttributeError:
        return False


def test_traced_targets_resolve_in_package():
    table = _literal(WORKLOAD, "WRAPPED")
    targets = [t for names in table.values() for t in names]
    assert "qsdc.protocol.gate_on_capacity" in table["security.gate"]
    # workload.py builds the keystream basis under its own span
    targets.append("qsdc.spreading.keystream")
    missing = [t for t in targets if not _resolves(t)]
    assert not missing, f"traced names missing from the package: {missing}"


def _one_round(workload: str, trace: int) -> dict:
    # --seconds 0: the warm-up and one round of operations, all checked
    proc = subprocess.run(
        [
            sys.executable, str(WORKLOAD), "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", str(trace),
        ],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def test_runner_offers_the_declared_workloads():
    assert list(_literal(ROOT / "perfbench" / "run.py", "WORKLOADS")) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_one_round_correctly(workload):
    _one_round(workload, trace=0)


_NOMINAL_HOT_PATH = (
    "protocol.check_ms",
    "protocol.layout_ms",
    "states.prepare_ms",
    "security.gate_ms",
    "spreading.spread_ms",
    "spreading.llr_ms",
    "ldpc.bp_ms",
)


def test_traced_nominal_round_times_every_hot_path_layer():
    # a traced function that is still defined but no longer called on the
    # hot path reads 0 here, where the name check above still passes
    layers = _one_round("nominal_file", trace=1)["layers"]
    idle = [name for name in _NOMINAL_HOT_PATH if not (layers[name]["value"] or 0) > 0]
    assert not idle, f"layers timed at null or 0: {idle}"


def _bench_report():
    spec = importlib.util.spec_from_file_location("bench_report", ROOT / "tools" / "bench_report.py")
    bench_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_report)
    return bench_report


def test_bench_report_failed_run_keeps_every_value_scalar(monkeypatch):
    # a perfbench call that fails is reported as the last line of its
    # stderr, so the report stays diffable key by key
    bench_report = _bench_report()
    flat = bench_report.perfbench("bogus", 1, 0)
    assert list(flat) == ["bogus.trace.error"]
    assert isinstance(flat["bogus.trace.error"], str) and "error" in flat["bogus.trace.error"]


def test_bench_report_failed_cold_build_is_recorded(monkeypatch):
    # a build snippet that fails is reported as the last line of its
    # stderr, not raised, so the report of the runs before it is written
    bench_report = _bench_report()
    calls = []

    def failing_run(cmd, root=bench_report.ROOT, **kwargs):
        calls.append(cmd)
        stderr = "Traceback (most recent call last):\nValueError: no full-rank parity-check matrix\n"
        return subprocess.CompletedProcess(cmd, 1, stdout="", stderr=stderr), 0.1

    monkeypatch.setattr(bench_report, "_run", failing_run)
    assert bench_report.cold_build() == {
        "build_code.error": "ValueError: no full-rank parity-check matrix"
    }
    # one snippet run: the traced runs already time the build
    assert calls == [[sys.executable, "-c", bench_report.BUILD_SNIPPET]]


def test_bench_report_tier1_names_errors_one_way(monkeypatch):
    # pytest writes "1 error" but "2 errors"; both land in tier1.errors.
    # A count pytest does not name reads 0
    bench_report = _bench_report()
    for tail, passed, errors, skipped in (("3 passed in 1.0s", 3, 0, 0),
                                          ("1 failed, 4 passed, 1 error in 1.0s", 4, 1, 0),
                                          ("2 errors in 1.0s", 0, 2, 0),
                                          ("2 skipped, 5 passed in 1.0s", 5, 0, 2)):
        def fake_run(cmd, root=bench_report.ROOT, **kwargs):
            return subprocess.CompletedProcess(cmd, 1, stdout=f"..\n{tail}\n", stderr=""), 0.5

        monkeypatch.setattr(bench_report, "_run", fake_run)
        counts = bench_report.tier1()
        assert sorted(counts) == ["tier1.errors", "tier1.failed", "tier1.passed", "tier1.skipped",
                                  "tier1.wall_s", "tier1.xfailed"]
        assert (counts["tier1.passed"], counts["tier1.errors"], counts["tier1.skipped"],
                counts["tier1.xfailed"]) == (passed, errors, skipped, 0), tail


def test_bench_report_runs_as_long_as_the_benchmark_by_default():
    # a default report measures the run length BENCHMARK.json declares
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    assert _bench_report().build_parser().parse_args(["--output", "x"]).seconds == run_seconds


def test_bench_report_summarises_pairs_with_ties_for_neither_side():
    # pair by pair the change is higher, tied, higher, lower, higher
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [2.0, 2.0, 4.0, 3.0, 6.0]
    stats = {"base_median": 3.0, "base_q1": 2.0, "base_q3": 4.0,
             "change_median": 3.0, "change_q1": 2.0, "change_q3": 4.0}
    summarise = _bench_report().summarise_pairs
    higher = summarise("w.ops_per_s", "higher", base, change)
    assert higher == {**{f"w.ops_per_s.{k}": v for k, v in stats.items()},
                      "w.ops_per_s.wins": 3, "w.ops_per_s.losses": 1}
    lower = summarise("w.setup_s", "lower", base, change)
    assert (lower["w.setup_s.wins"], lower["w.setup_s.losses"]) == (1, 3)
    # quartiles interpolate between the sorted samples
    even = summarise("w.m", "higher", [4.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 1.0])
    assert (even["w.m.base_q1"], even["w.m.base_median"], even["w.m.base_q3"]) == (1.75, 2.5, 3.25)
    assert (even["w.m.wins"], even["w.m.losses"]) == (0, 3)
    one = summarise("w.m", "higher", [7.0], [7.0])
    assert (one["w.m.base_q1"], one["w.m.change_q3"], one["w.m.wins"], one["w.m.losses"]) == (7.0, 7.0, 0, 0)


def test_bench_report_compare_alternates_and_marks_a_failed_side(monkeypatch):
    # every base run fails, as when the base revision lacks the workload;
    # the change runs cleanly
    bench_report = _bench_report()
    base_root = Path("base")
    calls = []

    def fake_run(workload, seed, seconds, trace, root):
        calls.append((workload, "base" if root == base_root else "change"))
        if root == base_root:
            return "ValueError: unknown workload"
        metrics = {m: {"value": 1.0} for m in bench_report.END_TO_END}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_report, "_git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(bench_report, "_worktree", lambda rev: contextlib.nullcontext(base_root))
    monkeypatch.setattr(bench_report, "_perfbench_run", fake_run)
    monkeypatch.setattr(bench_report, "_build_wall", lambda root: 0.25)
    report = bench_report.compare("HEAD~1", 1, 0.0)
    workloads = bench_report.WORKLOADS
    assert len(calls) == 2 * bench_report.PAIRS * len(workloads)
    first = [calls[i] for i in range(0, len(calls), 2)]
    assert first == [(w, "base" if i % 2 == 0 else "change")
                     for i in range(bench_report.PAIRS) for w in workloads]
    for w in workloads:
        assert report[f"{w}.base.correct"] is False
        assert report[f"{w}.base.error"] == "ValueError: unknown workload"
        assert report[f"{w}.change.correct"] is True
        assert report[f"{w}.pairs"] == 0
        assert f"{w}.ops_per_s.wins" not in report


def test_bench_report_compare_times_the_cold_build_in_each_pair(monkeypatch):
    # one fresh build process per side and pair, in the pair's order; the
    # first base build fails and leaves its pair out of the statistics
    bench_report = _bench_report()
    base_root = Path("base")
    builds = []

    def fake_run(cmd, root=bench_report.ROOT, **kwargs):
        assert cmd == [sys.executable, "-c", bench_report.BUILD_WALL_SNIPPET]
        side = "base" if root == base_root else "change"
        builds.append(side)
        if builds == ["base"]:
            return subprocess.CompletedProcess(cmd, 1, stdout="", stderr="MemoryError\n"), 0.1
        wall = {"base": 0.25, "change": 0.2}[side]
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{wall}\n", stderr=""), 0.4

    def fake_perfbench_run(workload, seed, seconds, trace, root):
        metrics = {m: {"value": 1.0} for m in bench_report.END_TO_END}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_report, "_git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(bench_report, "_worktree", lambda rev: contextlib.nullcontext(base_root))
    monkeypatch.setattr(bench_report, "_perfbench_run", fake_perfbench_run)
    monkeypatch.setattr(bench_report, "_run", fake_run)
    report = bench_report.compare("HEAD~1", 1, 0.0)
    assert builds == [side for i in range(bench_report.PAIRS)
                      for side in (("base", "change") if i % 2 == 0 else ("change", "base"))]
    assert report["build_code.base.error"] == "MemoryError"
    assert "build_code.change.error" not in report
    assert (report["build_code.wall_s.base_median"], report["build_code.wall_s.change_q3"]) == (0.25, 0.2)
    assert (report["build_code.wall_s.wins"], report["build_code.wall_s.losses"]) == (
        bench_report.PAIRS - 1, 0)


def test_bench_report_main_writes_pairs_and_traced_runs_in_one_report(monkeypatch, tmp_path):
    # every step stubbed: the one report holds the pair statistics and the
    # traced per-layer metrics, REV defaults to HEAD, and the working tree
    # runs untraced only inside the pairs
    bench_report = _bench_report()
    base_root = Path("base")
    calls, revs = [], []

    caches = []

    def cache_seen(*args):
        # the code cache every step's processes would inherit
        cache = os.environ["XDG_CACHE_HOME"]
        assert Path(cache).is_dir()
        caches.append(cache)

    def fake_run(workload, seed, seconds, trace, root=bench_report.ROOT):
        cache_seen()
        calls.append((workload, trace, "base" if root == base_root else "change"))
        metrics = {m: {"value": 1.0} for m in bench_report.END_TO_END}
        if trace:
            metrics = {"ldpc.bp_ms": {"value": 0.2}, "process.cpu_ms_per_op": {"value": 3.0}}
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}

    def fake_worktree(rev):
        revs.append(rev)
        return contextlib.nullcontext(base_root)

    monkeypatch.setattr(bench_report, "_git", lambda *args: b"0123abc\n")
    monkeypatch.setattr(bench_report, "_worktree", fake_worktree)
    monkeypatch.setattr(bench_report, "_perfbench_run", fake_run)
    monkeypatch.setattr(bench_report, "_build_wall", lambda root: cache_seen() or 0.25)
    monkeypatch.setattr(bench_report, "machine", lambda: {"cores": 2})
    monkeypatch.setattr(bench_report, "cold_build",
                        lambda: cache_seen() or {"build_code.traced_peak_mb": 9.0})
    monkeypatch.setattr(bench_report, "send_10k",
                        lambda seed: cache_seen() or {"send_10k.identical": True})
    monkeypatch.setattr(bench_report, "tier1", lambda: cache_seen() or {"tier1.failed": 0})
    monkeypatch.setattr(bench_report.signal, "signal", lambda *args: None)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "callers_cache"))
    out = tmp_path / "report.json"
    assert bench_report.main(["--output", str(out), "--seconds", "0"]) == 0
    report = json.loads(out.read_text())
    workloads = bench_report.WORKLOADS
    # one cache for the whole report, not the caller's, removed after it:
    # the paired runs and builds, the traced runs and the last three steps
    (cache,) = set(caches)
    assert len(caches) == 2 * bench_report.PAIRS * (len(workloads) + 1) + len(workloads) + 3
    assert not Path(cache).exists()
    assert os.environ["XDG_CACHE_HOME"] == str(tmp_path / "callers_cache")

    assert revs == ["HEAD"] and report["against"] == "HEAD"
    untraced = [c for c in calls if c[1] == 0]
    assert len(untraced) == 2 * bench_report.PAIRS * len(workloads)
    assert sum(side == "change" for _, _, side in untraced) == bench_report.PAIRS * len(workloads)
    assert [c for c in calls if c[1] != 0] == [(w, 1, "change") for w in workloads]
    for w in workloads:
        for metric in bench_report.END_TO_END:
            assert report[f"{w}.{metric}.wins"] == 0
            assert report[f"{w}.{metric}.change_median"] == 1.0
            assert f"{w}.{metric}" not in report
        assert report[f"{w}.trace.ldpc.bp_ms"] == 0.2
        assert report[f"{w}.trace.process.cpu_ms_per_op"] == 3.0
        assert report[f"{w}.trace.correct"] is True
    assert report["build_code.traced_peak_mb"] == 9.0
    assert report["build_code.wall_s.change_median"] == 0.25
    assert report["send_10k.identical"] and report["tier1.failed"] == 0 and report["cores"] == 2
    # the line totals are `cat <files> | wc -l` of the measured tree
    root = bench_report.ROOT
    for key, pattern in (("lines.src", "src/qsdc/*.py"), ("lines.tests", "tests/*.py")):
        text = "".join(path.read_text() for path in root.glob(pattern))
        assert report[key] == text.count("\n") > 0
    assert all(not isinstance(v, (dict, list)) for v in report.values())


def test_bench_report_sends_cold_then_warm_into_one_empty_cache(monkeypatch):
    # two identical sends; the first finds the send's cache empty, and the
    # second runs after it: wall_s is the cold figure, warm_wall_s the warm
    bench_report = _bench_report()
    for warm_delivers in (True, False):
        sends = []

        def fake_run(cmd, root=bench_report.ROOT, env=None, **kwargs):
            cache = Path(env["XDG_CACHE_HOME"])
            args = dict(zip(cmd[4::2], cmd[5::2]))
            sends.append((cmd[:4], args["--input"], args["--seed"], cache, cache.exists()))
            cache.mkdir(exist_ok=True)
            if warm_delivers or len(sends) == 1:
                shutil.copyfile(args["--input"], args["--output"])
            return subprocess.CompletedProcess(cmd, 0, stdout="", stderr=""), 0.5 / len(sends)

        monkeypatch.setattr(bench_report, "_run", fake_run)
        flat = bench_report.send_10k(7)
        assert flat == {"send_10k.wall_s": 0.5, "send_10k.exit_code": 0,
                        "send_10k.warm_wall_s": 0.25, "send_10k.warm_exit_code": 0,
                        "send_10k.identical": warm_delivers}
        (cold, warm) = sends
        assert cold[0] == [sys.executable, "-m", "qsdc.cli", "send"]
        assert cold[:4] == warm[:4] and cold[2] == "7"
        # the cache is made for the sends: absent before the first
        assert (cold[4], warm[4]) == (False, True)
        assert cold[3] != Path(os.environ.get("XDG_CACHE_HOME", "")) and not cold[3].exists()
