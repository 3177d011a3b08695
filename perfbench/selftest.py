"""Quick self-test of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

It checks the span self-time arithmetic on a scripted clock, the
independent capacity formulas against the 1.84e-3 bits per pulse of the
paper's operating point, that the checks flag a recovered file with one
corrupted byte and a capacity line with one wrong digit, and that
BENCHMARK.json names the metrics the code prints.  It runs one small
marginal_link operation, so it takes a few seconds.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import run
import workload
from tracing import Tracer, check_nesting, self_times, totals_by_name

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def test_span_arithmetic() -> None:
    ticks = iter([0.0, 1.0, 1.5, 4.0, 4.25, 4.5, 5.0, 10.0])
    t = Tracer(clock=lambda: next(ticks))
    with t.span("op"):  # 0 .. 10
        with t.span("a"):  # 1 .. 5
            with t.span("b"):  # 1.5 .. 4.5
                with t.span("c"):  # 4 .. 4.25
                    pass
    own = self_times(t.spans)
    expect(own == [6.0, 1.0, 2.75, 0.25], f"self times {own} of nested spans")
    self_s, wall_s = totals_by_name(t.spans, own)
    expect(wall_s["a"] == 4.0 and self_s["a"] == 1.0, "totals by name")
    expect(check_nesting(t.spans, own) == [], "well-nested spans pass")
    broken = [["op", 0.0, 2.0, -1], ["a", 1.0, 3.0, 0]]
    expect(check_nesting(broken, self_times(broken)) != [], "a child outside its parent is flagged")
    wrong_sum = [["op", 0.0, 2.0, -1], ["a", 0.5, 1.0, 0]]
    expect(check_nesting(wrong_sum, [2.0, 0.5]) != [], "self times that miss the wall time are flagged")


def test_capacity_formulas() -> None:
    # the paper's operating point, as the first acceptance criterion states it
    c_s = checks.capacity_closed_forms(q=0.00309, e=0.006, e_x=0.008, e_z=0.008, g=2.57)["c_s"]
    expect(abs(c_s - 1.84e-3) <= 0.10 * 1.84e-3, f"closed-form C_s {c_s:.4e} within 10% of 1.84e-3")
    q, e, e_x, e_z, g = 0.00309, 0.006, 0.008, 0.008, 2.57
    want = checks.capacity_closed_forms(q, e, e_x, e_z, g)
    good = "\n".join([
        f"q_bob {q:.6e}", f"g {g:.6f}", f"i_ab {want['i_ab']:.6e}", f"i_ae {want['i_ae']:.6e}",
        f"c_s {want['c_s']:.6e}", f"c_s_grid {want['c_s']:.6e}", "p_star 0.500000", "secure yes",
    ])
    expect(checks.check_capacity_output(good, q, e, e_x, e_z, g) == [], "correct capacity output passes")
    bad = good.replace(f"i_ab {want['i_ab']:.6e}", f"i_ab {want['i_ab'] * 1.00001:.6e}")
    expect(checks.check_capacity_output(bad, q, e, e_x, e_z, g) != [], "one wrong digit in i_ab is flagged")
    insecure = good.replace("secure yes", "secure no")
    expect(checks.check_capacity_output(insecure, q, e, e_x, e_z, g) != [], "a wrong secure verdict is flagged")


def test_corrupted_payload() -> None:
    workdir = Path(tempfile.mkdtemp(dir=workload.BENCH_DIR))
    try:
        session = workload.SessionWorkload("marginal_link", 1, workdir, workload.no_span)
        session.setup()
        problems, _ = session.run_op(0)
        expect(problems == [], f"one marginal_link operation passes its checks {problems}")
        payload = (workdir / "in.bin").read_bytes()
        recovered = workdir / "out.bin"
        data = bytearray(recovered.read_bytes())
        data[len(data) // 2] ^= 0x01
        recovered.write_bytes(bytes(data))
        expect(checks.check_delivered_file(recovered, payload) != [], "one corrupted byte is flagged")
        recovered.unlink()
        expect(checks.check_delivered_file(recovered, payload) != [], "a missing file is flagged")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_benchmark_json() -> None:
    spec = json.loads((workload.BENCH_DIR.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workload.WORKLOADS),
           "BENCHMARK.json, run.py and workload.py list the same workloads")
    layers = workload.layer_metrics(Tracer(), 0, 0, 0.0, 1, None)
    printed = {name: m["unit"] for name, m in layers.items()}
    printed["process.cpu_ms_per_op"] = "ms"
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == printed,
           "BENCHMARK.json per_layer names and units match the traced run")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]}
           == {"ops_per_s": "1/s", "peak_rss_mb": "MiB", "setup_s": "s"},
           "BENCHMARK.json end_to_end names and units match the untraced run")


if __name__ == "__main__":
    test_span_arithmetic()
    test_capacity_formulas()
    test_benchmark_json()
    test_corrupted_payload()
    sys.exit(1 if failures else 0)
