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
report flat.
"""

import ast
import functools
import importlib
import importlib.util
import json
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


def test_bench_report_failed_run_keeps_every_value_scalar(monkeypatch):
    # a perfbench call that fails is reported as the last line of its
    # stderr, so the report stays diffable key by key
    spec = importlib.util.spec_from_file_location("bench_report", ROOT / "tools" / "bench_report.py")
    bench_report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_report)
    monkeypatch.setattr(bench_report, "speed_probe", lambda prefix: {})
    flat = bench_report.perfbench("bogus", 1, 0, 0)
    assert list(flat) == ["bogus.error"]
    assert isinstance(flat["bogus.error"], str) and "error" in flat["bogus.error"]
