"""Correctness gate: parse every operation's output and check the answers.

Each check returns None when the output is right and a one-line reason
otherwise.  A wrong answer counts as a failed operation, exactly like an
exception escaping `main` or an unexpected exit code.
"""

from __future__ import annotations

import csv
import io
import json
import math

VERIFY_ROWS = (
    "viability",
    "value agreement",
    "horizon bracketing",
    "cycle measure stationarity",
    "discounted measure balance",
    "certificate consistency",
    "certificate class membership",
)


def tol(M: float) -> float:
    return 1e-6 * (1.0 + abs(M))


def parse(cmd: str, stdout: str):
    """The answer an operation printed, in the form the reference stores."""
    if cmd == "solve":
        out = json.loads(stdout)
        return {
            "cost_bound": out["cost_bound"],
            "k_star": out["k_star"],
            "d_star": out["d_star"],
            "sup_over_K": out["sup_over_K"],
            "v_per": out["v_per"]["value"],
            "V_T": out["V_T"],
            "h_alpha": out["h_alpha"],
        }
    if cmd == "sweep":
        rows = list(csv.reader(io.StringIO(stdout)))
        if rows[0] != ["parameter", "value", "gap_to_dstar", "distance_to_W"]:
            raise ValueError(f"unexpected sweep header {rows[0]}")
        return [[float(v) for v in row] for row in rows[1:]]
    rows = []
    for line in stdout.splitlines():
        tag, _, rest = line.partition("  ")
        if tag in ("PASS", "FAIL"):
            name = rest.strip().split("  ")[0].strip()
            rows.append([tag, name])
    return rows


def check_solve(ans: dict) -> str | None:
    t = tol(ans["cost_bound"])
    ref = ans["d_star"]
    for name in ("k_star", "sup_over_K", "v_per"):
        if not abs(ans[name] - ref) <= t:
            return f"{name}={ans[name]!r} disagrees with d_star={ref!r}"
    for group in ("V_T", "h_alpha"):
        if not all(math.isfinite(v) for v in ans[group].values()):
            return f"non-finite {group}"
    return None


def check_sweep(op, rows: list[list[float]], solved: dict | None) -> str | None:
    argv = list(op.argv)
    kind = argv[argv.index("--sweep") + 1]
    values = sorted({float(v) for v in argv[argv.index("--values") + 1].split(",")})
    if [r[0] for r in rows] != values:
        return f"sweep rows {[r[0] for r in rows]} do not match {values}"
    if not all(math.isfinite(v) for r in rows for v in r):
        return "non-finite sweep entry"
    if any(r[3] < -1e-9 for r in rows):
        return "negative distance_to_W"
    if solved is None:
        return None
    # Cross-check against the solve of the same instance and start.
    t = tol(solved["cost_bound"])
    for param, value, gap, _ in rows:
        if not abs((value - gap) - solved["d_star"]) <= t:
            return f"sweep d_star {value - gap!r} != solve d_star {solved['d_star']!r}"
        if kind == "theta" and gap < -t:
            return f"theta={param}: value below d_star by {-gap:.3e}"
        table = {"alpha": solved["h_alpha"], "T": solved["V_T"]}.get(kind, {})
        key = str(int(param)) if kind == "T" else str(param)
        if key in table and not abs(table[key] - value) <= t:
            return f"{kind}={param}: sweep value {value!r} != solve value {table[key]!r}"
    return None


def check_verify(rows: list[list[str]]) -> str | None:
    names = [name for _, name in rows]
    if names != list(VERIFY_ROWS):
        return f"verify rows {names} differ from the expected suite"
    failing = [name for tag, name in rows if tag != "PASS"]
    return f"FAIL rows: {failing}" if failing else None


def close(a, b, t: float = 1e-6) -> bool:
    """Structural equality, numbers within t relative to max(1, |b|)."""
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(close(a[k], b[k], t) for k in a)
    if isinstance(a, list):
        return isinstance(b, list) and len(a) == len(b) and all(close(x, y, t) for x, y in zip(a, b))
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return abs(a - b) <= t * max(1.0, abs(b))


def check_reference(ans, ref) -> str | None:
    if close(ans, ref):
        return None
    return f"answer differs from the recorded reference: {json.dumps(ans)[:160]}"
