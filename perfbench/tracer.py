"""Outside-in tracer: times calls into each lrac layer without editing it.

Every function named in a layer module's `__all__` is wrapped, and every
reference to it across the loaded `lrac` modules is rebound to the
wrapper.  Rebinding all references matters: `cli` imports names directly,
while `programs` calls `simplex.solve` through the module, so patching a
single binding would miss calls.

Spans are kept in memory as [name, start, end, parent, info] and written
out when the run ends.  A span's self time is its duration minus its
children's; children never overlap since the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("problem", "builtin", "simplex", "programs", "dp", "measures", "optimality", "cli")

# LP builders in programs and the short name their metrics use.
PROGRAMS = {
    "programs.solve_primal": "primal",
    "programs.solve_dual": "dual",
    "programs.solve_q_form": "q_form",
    "programs.ergodic_inner_lp": "ergodic_inner",
    "programs.project_to_W": "project_to_W",
}
DP_TIMED = ("value_iteration_discounted", "value_iteration_avg", "rollout", "greedy_policy")
DP_COUNTED = ("value_iteration_discounted", "value_iteration_avg")

# Computed cost model of one dense pivot on an (m+1) x (N+m+1) tableau
# (see simplex.solve): the outer-product update does a multiply and a
# subtract per cell, and moves four 8-byte words per cell (write and
# read the outer-product temporary, read and write the tableau).
FLOPS_PER_CELL = 2
BYTES_PER_CELL = 32


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "lrac" or name.startswith("lrac.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"lrac.{layer}")
            for fname in mod.__all__:
                fn = getattr(mod, fname)
                if not inspect.isfunction(fn):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is fn]:
                        self._restore.append((m, attr, fn))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_lp = name == "simplex.solve"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = perf_counter()
                span[4] = {"raised": type(exc).__name__}
                raise
            finally:
                stack.pop()
            span[2] = perf_counter()
            if is_lp:
                lp = args[0] if args else kwargs["lp"]
                span[4] = {
                    "rows": lp.n_rows,
                    "cols": lp.n_vars + int(lp.free.sum()),
                    "pivots": result.iterations,
                    "status": result.status,
                }
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"], "spans": self.spans}, fh)


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from a list of spans; keys match BENCHMARK.json."""
    dur = [s[2] - s[1] for s in spans]
    own = self_times(spans)

    def under(i: int, prefix: str) -> bool:
        p = spans[i][3]
        while p >= 0:
            if spans[p][0].startswith(prefix):
                return True
            p = spans[p][3]
        return False

    m: dict[str, float] = {}
    lp = [i for i, s in enumerate(spans) if s[0] == "simplex.solve"]
    ok = [i for i in lp if spans[i][4] and "pivots" in spans[i][4]]
    pivots = sum(spans[i][4]["pivots"] for i in ok)
    cells = sum(
        spans[i][4]["pivots"] * (spans[i][4]["rows"] + 1) * (spans[i][4]["cols"] + spans[i][4]["rows"] + 1)
        for i in ok
    )
    lp_s = sum(dur[i] for i in lp)
    m["simplex.solve.calls"] = len(lp)
    m["simplex.solve.s"] = lp_s
    m["simplex.pivots"] = pivots
    m["simplex.s_per_pivot"] = lp_s / pivots if pivots else 0.0
    m["simplex.failures"] = sum(
        1 for i in lp if not spans[i][4] or spans[i][4].get("status") != "optimal"
    )
    m["simplex.kkt_residuals.s"] = sum(dur[i] for i, s in enumerate(spans) if s[0] == "simplex.kkt_residuals")
    m["simplex.flops_computed"] = FLOPS_PER_CELL * cells
    m["simplex.bytes_computed"] = BYTES_PER_CELL * cells
    m["simplex.gflops_computed_rate"] = FLOPS_PER_CELL * cells / lp_s / 1e9 if lp_s else 0.0

    m["programs.assembly_s"] = sum(own[i] for i, s in enumerate(spans) if s[0] in PROGRAMS)
    vper = [i for i, s in enumerate(spans) if s[0] == "programs.v_per"]
    m["programs.v_per.s"] = sum(dur[i] for i in vper)
    m["programs.v_per.calls"] = len(vper)
    for span_name, short in PROGRAMS.items():
        idx = [i for i, s in enumerate(spans) if s[0] == span_name]
        mine = set(idx)
        m[f"lp.{short}.calls"] = len(idx)
        m[f"lp.{short}.pivots"] = sum(spans[i][4]["pivots"] for i in ok if spans[i][3] in mine)
        m[f"lp.{short}.s"] = sum(dur[i] for i in idx)

    for fname in DP_TIMED:
        idx = [i for i, s in enumerate(spans) if s[0] == f"dp.{fname}"]
        m[f"dp.{fname}.s"] = sum(dur[i] for i in idx)
        if fname in DP_COUNTED:
            m[f"dp.{fname}.calls"] = len(idx)

    m["problem.s"] = sum(
        own[i] for i, s in enumerate(spans) if s[0].startswith("problem.") and not under(i, "builtin.")
    )
    m["builtin.s"] = sum(
        dur[i] for i, s in enumerate(spans) if s[0].startswith("builtin.") and not under(i, "builtin.")
    )
    for layer in ("measures", "optimality"):
        m[f"{layer}.s"] = sum(own[i] for i, s in enumerate(spans) if s[0].startswith(layer + "."))
    m["cli.self_s"] = sum(own[i] for i, s in enumerate(spans) if s[0].startswith("cli."))
    return m


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def self_time_by_function(spans: list[list]) -> dict[str, float]:
    """Self time summed per traced function name."""
    out: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        out[s[0]] = out.get(s[0], 0.0) + t
    return out
