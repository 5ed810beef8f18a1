#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not part of the lrac test suite).

    python3 perfbench/selftest.py

Runs each timed workload at its smallest scale (one round) through the
real command line, and checks that every metric is printed with its
unit, that the JSON result matches BENCHMARK.json, that a bad operation
is counted as failed, that pivot and call counts repeat exactly for one
seed and change with another, that the tracer rebinds and restores every
reference, and that the benchmark refuses to run without the lrac source.
Takes about two minutes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run as bench
import workloads

TIMED = [w for w in workloads.WORKLOADS if w != "known-failures"]
COUNTS = [k for k, unit in bench.PER_LAYER.items() if unit in ("count", "flop", "B")]


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def run_cli(*args: str, cwd: str = bench.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def printed(stdout: str) -> dict[str, str]:
    """name -> unit for the human-readable metric lines."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 3 and not line.startswith("{"):
            out[parts[0]] = parts[2]
    return out


def test_benchmark_json() -> None:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER,
          "BENCHMARK.json per_layer matches run.py")
    check([w["name"] for w in spec["workloads"]] == TIMED, "BENCHMARK.json lists the timed workloads")


def test_reference_covers_seed0() -> None:
    with open(bench.REFERENCE) as fh:
        ref = json.load(fh)
    for name in TIMED:
        w = workloads.WORKLOADS[name]
        n = w.n_rounds(bench.default_seconds())
        files = {f: f for r in range(n) for f in w.files(0, r)}
        keys = {op.key for r in range(n) for op in w.round(0, r, files)}
        check(keys <= set(ref["workloads"][name]), f"reference covers every {name} op at seed 0")


def test_one_round_each() -> None:
    for name in TIMED:
        for trace, units in ((0, {**bench.END_TO_END, **bench.REPORTED_ONLY}), (1, bench.PER_LAYER)):
            proc = run_cli("--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace))
            check(proc.returncode == 0, f"{name} --trace {trace} exits 0")
            result = json.loads(proc.stdout.splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name} result keys")
            check(result["correct"] and result["failed"] == 0, f"{name} --trace {trace}: no failed ops")
            want = bench.PER_LAYER if trace else bench.END_TO_END
            check({k: v["unit"] for k, v in result["metrics"].items()} == want,
                  f"{name} --trace {trace}: JSON metrics and units")
            shown = printed(proc.stdout)
            check(all(shown.get(k) == u for k, u in units.items()),
                  f"{name} --trace {trace}: every metric printed with its unit")


def test_bad_op_counts_as_failed() -> None:
    missing = os.path.join(bench.WORK, "no-such-problem.json")
    good = workloads._op("verify", ("--problem", "threestate"), "threestate", 0)
    bad = workloads._op("verify", ("--problem", missing), "file:missing", 0)
    records = bench.run_round([good, bad], 0, None)
    check(records[1].rc == 2 and records[1].error is not None, "missing problem file exits 2 and is failed")
    metrics, _ = bench.end_to_end(records, [1.0], [1.0])
    check(metrics["fail_ratio"] == 0.5, "fail_ratio counts the injected bad op")


def traced_counts(seed: int) -> tuple[dict, set]:
    import tracer

    w = workloads.WORKLOADS["lp-ladder"]
    ops = w.round(seed, 0, {})
    tr = tracer.Tracer()
    tr.install()
    try:
        records = bench.run_round(ops, 0, None)
    finally:
        tr.uninstall()
    check(all(rec.error is None for rec in records), f"lp-ladder round 0 at seed {seed} succeeds traced")
    m = tracer.layer_metrics(tr.spans)
    return {k: m[k] for k in COUNTS if k in m}, {op.key for op in ops}


def test_exact_counts() -> None:
    a, keys_a = traced_counts(0)
    b, _ = traced_counts(0)
    check(a == b, "pivot, call and failure counts repeat exactly for one seed")
    c, keys_c = traced_counts(1)
    check(keys_a != keys_c and a["simplex.pivots"] != c["simplex.pivots"],
          "another seed changes the random instances and the pivot count")


def test_tracer_rebinds_everything() -> None:
    import lrac
    import lrac.cli
    import lrac.programs
    import lrac.simplex
    import tracer

    before = (lrac.cli.solve_dual, lrac.programs.solve_dual, lrac.solve_dual, lrac.simplex.solve)
    tr = tracer.Tracer()
    tr.install()
    try:
        wrapped = (lrac.cli.solve_dual, lrac.programs.solve_dual, lrac.solve_dual, lrac.simplex.solve)
        check(all(w is not b for w, b in zip(wrapped, before)), "tracer rebinds direct and module references")
        check(len({id(w) for w in wrapped[:3]}) == 1, "one wrapper per function")
    finally:
        tr.uninstall()
    after = (lrac.cli.solve_dual, lrac.programs.solve_dual, lrac.solve_dual, lrac.simplex.solve)
    check(after == before, "tracer restores every reference")


def test_refuses_without_source() -> None:
    bare = os.path.join(bench.WORK, f"bare-{os.getpid()}")
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(bench.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_cli("--workload", "lp-ladder", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and not last[0].startswith("{"),
              "without the lrac source: nonzero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench.use_thread_cap()
    bench.import_lrac()
    os.makedirs(bench.WORK, exist_ok=True)
    test_benchmark_json()
    test_reference_covers_seed0()
    test_tracer_rebinds_everything()
    test_bad_op_counts_as_failed()
    test_exact_counts()
    test_refuses_without_source()
    test_one_round_each()
    print("all benchmark self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
