#!/usr/bin/env python3
"""Build the sfcpart benchmark from this checkout and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is compiled from the sources
under src/ into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
the first run builds, later runs only bring the build up to date. The
last line of standard output is the benchmark's JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A first run builds and must end within 900 s; later runs within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure and build the benchmark; return the binary's path."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    generator = []
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "Makefile")):
        generator = ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"] + generator,
             ["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def parse_result(stdout):
    """The JSON object on the last line of `stdout`, checked for shape."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise ValueError("result keys are %s" % sorted(result))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        binary = build()
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", args.trace],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError("perfbench exited with %d" % done.returncode)
        parse_result(done.stdout)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
