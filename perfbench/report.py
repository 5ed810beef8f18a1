#!/usr/bin/env python3
"""Print every metric of every workload in one go.

    python3 perfbench/report.py [--seed 0] [--seconds N]

For each workload in BENCHMARK.json this runs the benchmark untraced
(end-to-end metrics) and traced (per-layer metrics and trace.overhead_s),
then runs the `known-failures` workload, whose fail_ratio shows the
operations that fail at the commit being measured.  --seconds defaults
to BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    runs = [(w["name"], trace) for w in spec["workloads"] for trace in (0, 1)]
    runs.append(("known-failures", 0))
    status = 0
    for name, trace in runs:
        print(f"\n##### {name}, trace {trace}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
            cwd=ROOT,
        )
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
