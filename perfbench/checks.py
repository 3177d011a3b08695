"""Correctness checks that do not copy the program's own output.

Nothing here imports qsdc.  The capacity check recomputes the closed
forms with `math.log2`; the statistical checks compare pooled counts
with the configured channel parameters; the delivery check reads the
recovered file back from disk.  Each check returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import math
from pathlib import Path

# pooled counts must lie within this many binomial standard deviations
# of the configured probability; at 5 sigma a correct program trips a
# check about once in 1.7 million
Z_SIGMA = 5.0

# printed capacity figures carry seven significant digits (%.6e)
PRINT_REL_TOL = 1e-6


def h2(x: float) -> float:
    """Binary entropy in bits."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def capacity_closed_forms(q: float, e: float, e_x: float, e_z: float, g: float) -> dict:
    """I(A:B), Eve's bound and C_s at the uniform encoding bias."""
    return {
        "i_ab": q * (1.0 - h2(e)),
        "i_ae": min(g * q, 1.0) * h2(e_x + e_z),
        "c_s": q * (1.0 - h2(e) - g * h2(e_x + e_z)),
    }


def check_capacity_output(text: str, q: float, e: float, e_x: float, e_z: float, g: float) -> list[str]:
    """Check `qsdc capacity` output against the closed forms and its own invariants."""
    try:
        kv = dict(line.split(None, 1) for line in text.strip().splitlines())
        printed = {k: float(kv[k]) for k in ("q_bob", "i_ab", "i_ae", "c_s", "c_s_grid", "p_star")}
        secure = kv["secure"]
    except (KeyError, ValueError) as exc:
        return [f"unreadable capacity output ({exc!r}): {text!r}"]
    problems = []
    want = {"q_bob": q, **capacity_closed_forms(q, e, e_x, e_z, g)}
    for key, value in want.items():
        if not math.isclose(printed[key], value, rel_tol=PRINT_REL_TOL, abs_tol=1e-15):
            problems.append(f"{key} printed {printed[key]!r}, closed form {value!r}")
    c_s = printed["c_s"]
    if printed["c_s_grid"] < c_s - PRINT_REL_TOL * abs(c_s):
        problems.append(f"c_s_grid {printed['c_s_grid']!r} below c_s {c_s!r}")
    if not 0.0 <= printed["p_star"] <= 1.0:
        problems.append(f"p_star {printed['p_star']!r} outside [0, 1]")
    if secure != ("yes" if c_s > 0 else "no"):
        problems.append(f"secure reads {secure!r} with c_s {c_s!r}")
    return problems


def check_binomial(label: str, k: int, n: int, p: float) -> list[str]:
    """k successes in n trials must lie within Z_SIGMA sigma of n*p."""
    if n <= 0:
        return [f"{label}: no samples"]
    sigma = math.sqrt(n * p * (1.0 - p))
    if abs(k - n * p) > Z_SIGMA * sigma:
        return [f"{label}: {k}/{n} = {k / n:.6g}, expected {p:.6g} +- {Z_SIGMA:g} sigma ({sigma / n:.3g})"]
    return []


def check_delivered_file(path: Path, payload: bytes) -> list[str]:
    """The recovered file, read back from disk, must equal the payload."""
    try:
        got = Path(path).read_bytes()
    except FileNotFoundError:
        return [f"no recovered file at {path}"]
    if got == payload:
        return []
    first = next((i for i, (a, b) in enumerate(zip(got, payload)) if a != b), min(len(got), len(payload)))
    return [f"recovered {len(got)} bytes differ from the {len(payload)}-byte payload at byte {first}"]
