#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

    python3 perfbench/spread.py --workload infer-224 --out a.json
    python3 perfbench/spread.py --workload infer-224 --against a.json

Runs the benchmark ten times, with seeds 1 to 10, one run at a time and
each for ``run_seconds``, and prints for every end-to-end metric its
median, its quartiles and the quartile distance as a share of the median.
The share is compared with the metric's ``bound``; ``--against FILE`` also
compares the medians with an earlier summary written by this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def run(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--out", type=Path, help="write the per-run values and summary here")
    p.add_argument("--against", type=Path, help="summary of an earlier set to compare medians with")
    args = p.parse_args(argv)

    results = []
    for seed in SEEDS:
        start = time.perf_counter()
        results.append(run(args.workload, seed))
        print(f"seed {seed}: correct={results[-1]['correct']} "
              f"failed={results[-1]['failed']}/{results[-1]['attempted']} "
              f"wall {time.perf_counter() - start:.1f} s", flush=True)
    earlier = json.loads(args.against.read_text())["medians"] if args.against else {}

    ok = all(r["correct"] for r in results)
    medians = {}
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in BENCHMARK["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = medians[name] = statistics.median(values)
        spread = stats.quartile_spread(values)
        verdict = "" if spread <= bound else "  SPREAD OVER BOUND"
        if name in earlier:
            change = (med - earlier[name]) / earlier[name]
            worse = change if metric["better"] == "lower" else -change
            verdict += f"  vs earlier {change:+.3f}" + ("  WORSE THAN BOUND" if worse > bound else "")
        ok &= "OVER" not in verdict and "WORSE" not in verdict
        print(f"{name:<20} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.4f} {bound:>6}{verdict}")
    if args.out:
        args.out.write_text(json.dumps({"workload": args.workload, "runs": results,
                                        "medians": medians}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
