#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (well under a minute).

    python3 perfbench/selftest.py

Builds the benchmark like run.py does, then for every workload checks that
  * an untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
    with their units, and no failed op;
  * a traced run prints exactly the per-layer metrics, with their units;
  * a run whose every output is perturbed before its check counts every op
    as failed.
Exits 0 when all checks pass.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's own build and result parser)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    failures = []

    def measure(workload, trace, *extra):
        done = subprocess.run(
            [binary, "--workload", workload, "--seed", "7", "--seconds", "0.2",
             "--trace", trace, "--tiny"] + list(extra),
            stdout=subprocess.PIPE, text=True, timeout=120, check=True)
        return run.parse_result(done.stdout)

    def expect(cond, what):
        if not cond:
            failures.append(what)
        print("%s %s" % ("ok  " if cond else "FAIL", what))

    for w in (w["name"] for w in bench["workloads"]):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            result = measure(w, trace)
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, "%s --trace %s prints the %s metrics"
                   % (w, trace, section))
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] > 0,
                   "%s --trace %s: every op passes its check" % (w, trace))
        result = measure(w, "0", "--perturb")
        expect(not result["correct"]
               and result["failed"] == result["attempted"] > 0
               and result["metrics"]["ok_frac"]["value"] == 0,
               "%s: perturbed outputs are counted as failed" % w)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
