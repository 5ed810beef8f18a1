#!/usr/bin/env python3
"""Benchmark for lrac: closed-loop, single-client, in-process.

    python3 perfbench/run.py --workload lp-ladder --seed 0 --seconds 25 --trace 0

Run from the repository root.  Each operation is one `lrac` command line
(`solve`, `verify` or `sweep`) passed to `lrac.cli.main`; the next starts
only after the previous one returns.  Its printed answer is parsed and
checked (see checks.py), so a wrong answer counts as a failed operation.

The number of rounds is fixed by --seconds and the workload's baseline
round time (see workloads.py), so two commits run the same operations.
With --trace 0 the run measures end-to-end metrics with tracing off.
With --trace 1 it runs fewer rounds, each twice, untraced and traced,
and reports per-layer metrics from the traced copy (see tracer.py) plus
the difference in round time as trace.overhead_s.  --seconds defaults
to BENCHMARK.json's run_seconds.  The last line of standard output is
one JSON object; the lines before it list every metric by name and unit
for people.
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
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import checks
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")

N_SETUPS = 7
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
COMMANDS = ("solve", "verify", "sweep")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_p50_s": "s",
    "verify_p50_s": "s",
    "sweep_p50_s": "s",
    "peak_rss_mb": "MB",
}
# Printed for people on every run but not part of the JSON result: tails
# rest on few samples per run, and fail_ratio is zero on every workload
# the contract times (the JSON carries attempted and failed instead).
REPORTED_ONLY = {
    "solve_tail_s": "s",
    "verify_tail_s": "s",
    "sweep_tail_s": "s",
    "fail_ratio": "ratio",
}
PER_LAYER = {
    "simplex.solve.calls": "count",
    "simplex.solve.s": "s",
    "simplex.pivots": "count",
    "simplex.s_per_pivot": "s",
    "simplex.failures": "count",
    "simplex.kkt_residuals.s": "s",
    "simplex.flops_computed": "flop",
    "simplex.bytes_computed": "B",
    "simplex.gflops_computed_rate": "GFLOP/s",
    "programs.assembly_s": "s",
    "programs.v_per.s": "s",
    "programs.v_per.calls": "count",
    **{
        f"lp.{p}.{k}": u
        for p in ("primal", "dual", "q_form", "ergodic_inner", "project_to_W")
        for k, u in (("calls", "count"), ("pivots", "count"), ("s", "s"))
    },
    "dp.value_iteration_discounted.s": "s",
    "dp.value_iteration_discounted.calls": "count",
    "dp.value_iteration_avg.s": "s",
    "dp.value_iteration_avg.calls": "count",
    "dp.rollout.s": "s",
    "dp.greedy_policy.s": "s",
    "problem.s": "s",
    "builtin.s": "s",
    "measures.s": "s",
    "optimality.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Record:
    """Outcome of one operation."""

    op: object
    round: int
    seconds: float
    rc: object
    error: str | None = None
    answer: object = None
    stdout: str | None = None


def use_thread_cap() -> None:
    """Cap BLAS/OpenMP threads at the CPUs this process may use."""
    cap = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cap


def import_lrac() -> None:
    """Import lrac from this checkout's source tree, never from elsewhere."""
    init = os.path.join(SRC, "lrac", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"lrac source not found at {init}; run from a full checkout")
    sys.path.insert(0, SRC)
    import lrac
    import lrac.cli  # noqa: F401

    if os.path.abspath(lrac.__file__) != init:
        raise SystemExit(f"imported lrac from {lrac.__file__}, expected {init}")


def prepare(workload, seed: int, n_rounds: int, workdir: str) -> list[list]:
    """Set-up: write the workload's problem files and build every round."""
    os.makedirs(workdir, exist_ok=True)
    paths = workloads.write_files(workload, seed, n_rounds, workdir)
    return [workload.round(seed, r, paths) for r in range(n_rounds)]


def time_setup(name: str, seed: int, seconds: float, workdir: str) -> float:
    """Fresh interpreter to ready, timed from outside."""
    target = os.path.join(workdir, "setup")
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--workdir", target]
    t0 = perf_counter()
    subprocess.run(argv, check=True, cwd=ROOT, env=os.environ)
    seconds = perf_counter() - t0
    shutil.rmtree(target)
    return seconds


def run_op(op, r: int) -> Record:
    main = sys.modules["lrac.cli"].main  # looked up per call so tracing sees it
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(op.argv))
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception as exc:  # counted as a failed operation, never re-raised
        rc = None
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    return Record(op=op, round=r, seconds=seconds, rc=rc, error=error, stdout=out.getvalue())


def check_round(records: list[Record], reference: dict | None) -> None:
    """Fill in each record's answer, or its error when the answer is wrong."""
    solved = {}
    for rec in records:
        if rec.error is None and rec.rc != 0:
            rec.error = f"exit code {rec.rc}, expected 0"
        if rec.error is not None:
            continue
        try:
            rec.answer = checks.parse(rec.op.cmd, rec.stdout)
        except (ValueError, KeyError, IndexError) as exc:
            rec.error = f"unparsable output: {type(exc).__name__}: {exc}"
            continue
        if rec.op.cmd == "solve":
            rec.error = checks.check_solve(rec.answer)
            solved.setdefault((rec.op.problem, rec.op.y0), rec.answer)
        elif rec.op.cmd == "verify":
            rec.error = checks.check_verify(rec.answer)
    for rec in records:
        if rec.op.cmd == "sweep" and rec.answer is not None and rec.error is None:
            rec.error = checks.check_sweep(rec.op, rec.answer, solved.get((rec.op.problem, rec.op.y0)))
    if reference is not None:
        for rec in records:
            if rec.answer is not None and rec.error is None and rec.op.key in reference:
                rec.error = checks.check_reference(rec.answer, reference[rec.op.key])
    for rec in records:
        rec.stdout = None  # answers are parsed; drop the text


def run_round(ops: list, r: int, reference: dict | None) -> list[Record]:
    records = [run_op(op, r) for op in ops]
    check_round(records, reference)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest listed percentile with at least ten samples beyond it.

    Falls back to the maximum (reported as percentile 100) when no listed
    percentile has ten samples beyond it.
    """
    s = sorted(samples)
    n = len(s)
    for p in TAIL_PERCENTILES:
        idx = max(0, math.ceil(p / 100.0 * n) - 1)
        if n - 1 - idx >= 10:
            return s[idx], p, n
    return s[-1], 100.0, n


def end_to_end(records: list[Record], round_walls: list[float], setups: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics and the human-readable lines that explain them."""
    m, notes = {}, []
    m["setup_s"] = statistics.median(setups)
    notes.append(f"setup_s: median of {len(setups)} fresh-interpreter set-ups, "
                 f"each {', '.join(f'{t:.4f}' for t in setups)} s")
    q1, q2, q3 = quartiles(round_walls)
    m["wall_s"] = q2
    notes.append(f"wall_s: median of {len(round_walls)} complete rounds, q1 {q1:.4f} s, q3 {q3:.4f} s")
    for cmd in COMMANDS:
        lat = [rec.seconds for rec in records if rec.op.cmd == cmd]
        if not lat:
            continue
        m[f"{cmd}_p50_s"] = statistics.median(lat)
        value, p, n = tail(lat)
        m[f"{cmd}_tail_s"] = value
        label = "max (no listed percentile has ten samples beyond it)" if p == 100.0 else f"p{p:g}"
        notes.append(f"{cmd}_tail_s: {label} of {n} samples; {cmd}_p50_s over the same {n}")
    failed = sum(1 for rec in records if rec.error is not None)
    m["fail_ratio"] = failed / len(records)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m, notes


def print_metrics(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:40s} {metrics[name]:.6g} {unit}")


def load_reference(workload: str, seed: int) -> dict:
    """Recorded answers for this workload that apply at this seed.

    Answers on the builtin instances hold at every seed; answers on
    random instances only at the seed they were recorded with.
    """
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    answers = ref["workloads"].get(workload, {})
    if ref["seed"] == seed:
        return answers
    return {k: v for k, v in answers.items() if k.split()[1] in workloads.FIXED_INSTANCES}


def print_failures(records: list[Record]) -> None:
    for rec in records:
        if rec.error is not None:
            print(f"FAILED op (round {rec.round}): {rec.op.key}: {rec.error}")


def result_line(records: list[Record], metrics: dict, units: dict) -> str:
    failed = sum(1 for rec in records if rec.error is not None)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    })


def measure(workload, seed: int, seconds: float, trace: bool, workdir: str) -> None:
    # Set-ups come first, so no set-up subprocess runs between the timed
    # operations.
    setups = [time_setup(workload.name, seed, seconds, workdir) for _ in range(N_SETUPS)]
    n_rounds = workload.n_rounds(seconds, traced=trace)
    rounds = prepare(workload, seed, n_rounds, os.path.join(workdir, "files"))
    reference = load_reference(workload.name, seed)
    run_op(rounds[0][0], -1)  # warm-up, not counted: lazy imports and first-call costs

    # Every round runs whatever the elapsed time, so a run's operations
    # depend on the seed and --seconds only.  Traced runs do each round
    # untraced and then traced, so the overhead is a paired difference.
    tr = tracing.Tracer()
    plain, walls, traced, traced_walls = [], [], [], []
    for r, ops in enumerate(rounds):
        recs = run_round(ops, r, reference)
        plain += recs
        walls.append(sum(rec.seconds for rec in recs))
        if trace:
            tr.install()
            try:
                recs = run_round(ops, r, reference)
            finally:
                tr.uninstall()
            traced += recs
            traced_walls.append(sum(rec.seconds for rec in recs))

    records = plain + traced
    e2e, notes = end_to_end(plain, walls, setups)
    print(f"workload {workload.name}, seed {seed}: {len(plain)} ops in {n_rounds} rounds "
          f"(closed loop, one client, {os.environ['OMP_NUM_THREADS']} BLAS threads)"
          + (", each round then repeated traced" if trace else ""))
    print_metrics("end to end (untraced)", e2e, {**END_TO_END, **REPORTED_ONLY})
    for line in notes:
        print(line)
    if trace:
        layers = tracing.layer_metrics(tr.spans)
        layers["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, walls))
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json")
        tr.write(trace_path)
        print_metrics("per layer (traced rounds)", layers, PER_LAYER)
        own = tracing.self_time_by_function(tr.spans)
        print("largest self times: " + ", ".join(
            f"{k} {v:.4f} s" for k, v in sorted(own.items(), key=lambda kv: -kv[1])[:5]))
        print(f"{len(tr.spans)} spans written to {os.path.relpath(trace_path, ROOT)}")
    print_failures(records)
    print(result_line(records, layers if trace else e2e, PER_LAYER if trace else END_TO_END))


def record_reference(seconds: float) -> int:
    """Run every round of every timed workload at seed 0; store the answers."""
    out = {"seed": 0, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        if name == "known-failures":
            continue
        workdir = os.path.join(WORK, f"reference-{os.getpid()}")
        try:
            answers = {}
            for r, ops in enumerate(prepare(workload, 0, workload.n_rounds(seconds), workdir)):
                for rec in run_round(ops, r, None):
                    if rec.error is not None:
                        raise SystemExit(f"{name}: {rec.op.key}: {rec.error}")
                    answers[rec.op.key] = rec.answer
            out["workloads"][name] = answers
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(answers)} answers", file=sys.stderr)
    write_reference(out)
    return 0


def _rounded(v):
    """Ten significant digits: far finer than the 1e-6 answer tolerance."""
    if isinstance(v, float):
        return float(f"{v:.10g}")
    if isinstance(v, dict):
        return {k: _rounded(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_rounded(x) for x in v]
    return v


def write_reference(ref: dict) -> None:
    with open(REFERENCE, "w") as fh:  # one answer per line keeps diffs readable
        fh.write(f'{{"seed": {ref["seed"]}, "workloads": {{\n')
        for i, (name, answers) in enumerate(ref["workloads"].items()):
            fh.write(("," if i else "") + json.dumps(name) + ": {\n")
            fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(_rounded(v), separators=(',', ':'))}"
                                 for k, v in sorted(answers.items())))
            fh.write("\n}\n")
        fh.write("}}\n")


def default_seconds() -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length; sets the number of rounds (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rerun seed 0 of every timed workload and rewrite reference.json")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = default_seconds()

    use_thread_cap()
    import_lrac()
    if args.record_reference:
        return record_reference(args.seconds)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        prepare(workload, args.seed, workload.n_rounds(args.seconds), args.workdir)
        return 0
    workdir = os.path.join(WORK, f"{workload.name}-{os.getpid()}")
    try:
        measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only if no other run is using it


if __name__ == "__main__":
    sys.exit(main())
