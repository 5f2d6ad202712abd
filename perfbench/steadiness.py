#!/usr/bin/env python3
"""Measure run-to-run spread of the end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
                                    [--workload NAME ...]

Runs perfbench/run.py once per seed for each workload, one run at a time,
and prints, per workload and end-to-end metric, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json. A spread under a third of the bound is
marked ok; setup_s is exempt from the spread rule.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    all_ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            all_ok = all_ok and ok
            print("%-15s %-18s median %-12.6g q1 %-12.6g q3 %-12.6g "
                  "spread %.4f bound %.3f %s" %
                  (workload, m["name"], med, q1, q3, spread, m["bound"],
                   "ok" if ok else "WIDE"), flush=True)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
