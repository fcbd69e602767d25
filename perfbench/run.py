#!/usr/bin/env python3
"""Benchmark harness for metavit.

    python3 perfbench/run.py --workload train-step --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all

Runs one closed-loop workload with a single client in this process (``all``
runs each workload in a child process of its own, so peak RSS stays per
workload). The BLAS thread count is pinned to one through environment
variables before numpy is imported, and the result records whether the
loaded OpenBLAS confirms it.

``--trace 0`` times the workload with tracing off and reports the
end-to-end metrics; only DCA and SA block calls carry a timer, which
costs two clock reads per block, and a fixed reference kernel runs
after every operation, as the unit the gated timings are given in
(``reference.py``). ``--trace 1`` alternates untraced
operations with operations that carry spans around every public layer
boundary, and reports the per-layer metrics plus the tracing overhead
between the two. The last line of standard output is one JSON object; a fuller
record, including the whole per-layer table, is written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import envinfo

REPO = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in BENCHMARK["workloads"])
BLAS_THREADS = 1  # never more than nproc


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=float(BENCHMARK["run_seconds"]))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own child process; one combined JSON line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"workload {name} failed with exit code {proc.returncode}")
            status = 1
            continue
        print("\n".join(lines[:-1]))
        one = json.loads(lines[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    if status == 0:
        print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "metavit" / "__init__.py").is_file():
        print(f"error: metavit sources not found under {REPO / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    envinfo.pin_blas_threads(BLAS_THREADS)
    sys.path.insert(0, str(REPO / "src"))
    import harness  # imports numpy, so only after pinning

    return harness.run_one(args, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
