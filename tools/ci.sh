#!/usr/bin/env sh
# One-command CI gate. Run from anywhere:
#
#   tools/ci.sh
#
# Exits non-zero on the first failing stage. Stages:
#   1. sfplint (its rules: docs/static_analysis.md), built in a tiny
#      bootstrap configure (-DSFCPART_LINT_TOOL_ONLY=ON), gates the run
#      before the main build;
#      the machine-readable reports land in build/lint-report.json and
#      build/lint.sarif (SARIF 2.1.0, the artifact code-review UIs ingest).
#      A second pass gates on --fix-dry-run: if sfplint could mechanically
#      repair anything (missing #pragma once, malformed suppression
#      separators), the run fails — apply `sfplint --root=. --fix` and
#      commit. A grep then fails the stage if a `lint: layering-ok` or
#      `lint: transport-discipline-ok` suppression reappears under src/:
#      the manifest matches the real include graph and run_resilient is
#      the one fabric construction site, so neither needs an excuse. Then
#      clang-tidy via tools/lint.sh (a bash script) when installed.
#   2. configure + build the default preset with the escalated warnings
#      wall as errors (SFCPART_STRICT_WARNINGS + SFCPART_WERROR) and the
#      compile-each-header-standalone check (SFCPART_CHECK_HEADERS); fail
#      if objdump finds a fused multiply-add in the GLL kernel's object
#      (it would change the kernel's rounding); then ctest --preset ci (all
#      tests, including the 'lint'-labelled repo scan and the fuzz-corpus
#      regression replays), then the 'runtime|chaos' tests three times over
#      at min(4 x nproc, 32) parallel jobs
#   3. configure + build the tsan preset, ctest --preset tsan (label
#      'runtime')
#   4. configure + build the asan-ubsan preset (which also turns on
#      SFCPART_AUDIT, so the deep validators run at every module boundary),
#      ctest --preset asan-ubsan
#   5. sfcpart trace produces both artifacts and they are non-empty JSON
#   6. seeded short chaos soak: the 'chaos'-labelled ctest binaries rerun
#      standalone with a hard per-test timeout, then the shipped CLI soaks
#      bounded batches of randomized schedules (seed fixed by
#      SFCPART_CHAOS_SEED, default 1000): SEAM advection must heal every
#      message fault in place, and rank-kill soaks of both harnesses must
#      keep the kill contract (the fault-free result on the survivors,
#      which lost exactly the killed ranks) — the partition one also serial
#      parity. Bare schedule files replay through `sfcpart chaos --replay`:
#      message faults on each harness, a rank kill on the partition
#      harness, and two kills on SEAM advection, which must recover the
#      tracer field to 1e-12; a replay also fails when a scheduled fault
#      kind injected nothing. Three negative legs must exit non-zero: a
#      replay of a drop on a frame a 2-part plan never sends (2 -> 0,
#      frame 1), a replay of a schedule with an unknown key — whose stderr
#      must name the key and show no `precondition failed` or `/src/` path
#      — and `sfcpart chaos` with a flag it does not read
#   7. distributed-partition bench smoke: bench_partition_scaling at a tiny
#      K, and again at ~8 elements per part (Ne = 12, 108 parts), must run
#      all rank counts, match the serial slicer (the bench aborts on
#      divergence), and emit a well-formed BENCH_partition_scaling.json;
#      then bench_micro's SEAM kernel rows (BM_AdvectionTendency,
#      BM_AdvectionStage — one fused SSP-RK3 stage pass — and BM_SweRhs at
#      the native lane width, BM_AdvectionKernelAtWidth and
#      BM_SweKernelsAtWidth at each width) and its curve-enumeration rows
#      (BM_ElementAt, one point query per position, and BM_ElementWalk,
#      one range walk) run once, ungated
#   8. perf guard: bench_baselines reruns in a scratch dir and its fresh
#      BENCH_baselines.json must stay within a generous tolerance of the
#      committed tools/bench_reference.json (wall-clock columns ignored);
#      regenerate the reference when a quality change is intended:
#        bench_guard --fresh=BENCH_baselines.json \
#          --reference=tools/bench_reference.json --update
#      (--update keeps the ignored wall-clock columns from the old
#      reference, so regenerations do not churn machine-dependent noise)
#   9. benchmark self-test: python3 perfbench/selftest.py runs every
#      perfbench workload at tiny sizes and fails if a metric name or unit
#      drifts from BENCHMARK.json or a per-op result check stops catching
#      a perturbed output
set -eu

cd "$(dirname "$0")/.."

echo "==> [1/9] sfplint (bootstrap configure) + repo lints"
cmake -B build-lint -S . -DSFCPART_LINT_TOOL_ONLY=ON
cmake --build build-lint -j "$(nproc 2>/dev/null || echo 4)" --target sfplint_cli
mkdir -p build
build-lint/tools/sfplint --root=. --json=build/lint-report.json \
  --sarif=build/lint.sarif
# The autofix gate: exit 1 iff the mechanical-repair plan is non-empty, so
# a fixable deviation never lingers — run `sfplint --root=. --fix` locally.
build-lint/tools/sfplint --root=. --fix-dry-run
if grep -rnE "lint: (layering|transport-discipline)-ok" src; then
  echo "ci: layering-ok / transport-discipline-ok suppressions are not allowed under src/" >&2
  exit 1
fi
if command -v clang-tidy > /dev/null 2>&1; then
  bash tools/lint.sh  # a bash script (arrays): dash would stop at once
fi

echo "==> [2/9] tier-1: configure + build (strict warnings as errors, header checks) + ctest (preset ci)"
cmake --preset default -DSFCPART_STRICT_WARNINGS=ON -DSFCPART_WERROR=ON \
  -DSFCPART_CHECK_HEADERS=ON
cmake --build --preset default -j "$(nproc 2>/dev/null || echo 4)"
# No fused multiply-add in the GLL kernel: a fused a*b+c rounds once where
# the scalar loop rounds twice, which breaks the kernel's bitwise oracle,
# the 1e-12 distributed-vs-serial SEAM agreement and the bitwise fault-free
# resilient run. Its AVX2 lanes are built for target("avx2") without "fma"
# for this reason; the grep catches a target string or flag that lets GCC
# contract `acc += D * q`.
gll_obj=build/src/seam/CMakeFiles/sfcpart_seam.dir/gll.cpp.o
test -s "$gll_obj" || { echo "ci: missing $gll_obj" >&2; exit 1; }
if objdump -d "$gll_obj" | grep -qE 'vfmadd|vfmsub|vfnmadd|vfnmsub'; then
  echo "ci: $gll_obj contains fused multiply-add instructions" >&2
  exit 1
fi
ctest --preset ci
# Oversubscribed repeat of the fabric tests: the runtime and chaos labels
# again, three times over, at up to four test processes per core (at most
# 32). Loss is found by quiescence, not by a clock, so a rank that is
# merely descheduled must never look faulty: the quiescence stress test
# asserts zero retransmits and zero recoveries at 4 x nproc rank threads,
# and a timing-dependent flake in any fabric test shows up here first.
ncpu="$(nproc 2>/dev/null || echo 4)"
jobs=$((4 * ncpu))
if [ "$jobs" -gt 32 ]; then jobs=32; fi
ctest --test-dir build -L 'runtime|chaos' -j"$jobs" --repeat until-fail:3 \
  --output-on-failure

echo "==> [3/9] tsan: runtime-labelled tests under ThreadSanitizer"
cmake --preset tsan
cmake --build --preset tsan -j "$(nproc 2>/dev/null || echo 4)"
ctest --preset tsan

echo "==> [4/9] asan-ubsan + audit: full suite under ASan/UBSan with deep validators"
cmake --preset asan-ubsan
cmake --build --preset asan-ubsan -j "$(nproc 2>/dev/null || echo 4)"
ctest --preset asan-ubsan
# The serial-parity wall, re-asserted by name under the audit validators:
# the distributed slicer must stay bit-identical to the serial one while
# every validate_plan audit fires at the module boundaries, the point
# query's transition tables agree with the generated curves, and the
# grouped metrics walk and the affine dual-graph strips match their
# sort/map and hash-map oracles while the cut-volume and CSR audits fire.
ctest --test-dir build-asan \
  -R 'ParallelPartition|SplitterSearch|CurvePosition|MetricsOracle|TopologyOracle' \
  --output-on-failure

echo "==> [5/9] trace artifacts: sfcpart trace smoke"
out="$(mktemp -d)/ci_trace"
build/tools/sfcpart trace --ne=4 --nproc=6 --steps=2 --out="$out"
for f in "$out.trace.json" "$out.metrics.json"; do
  test -s "$f" || { echo "missing or empty artifact: $f" >&2; exit 1; }
done
# The real structural validation (parse-back, well-nesting, histogram
# invariants) already ran inside ctest via obs_test; this stage proves the
# shipped CLI wires the same exporters end to end.
grep -q '"traceEvents"' "$out.trace.json"
grep -q '"counters"' "$out.metrics.json"
rm -rf "$(dirname "$out")"

echo "==> [6/9] chaos soak: seeded randomized fault schedules must heal in place"
# Wall-clock is bounded twice over: ctest kills any chaos-labelled test
# that exceeds the per-test timeout, and the CLI soak is a fixed, small
# trial count on a tiny problem (~seconds). The seed is pinned so a CI
# failure names a replayable schedule; bump SFCPART_CHAOS_SEED to rotate
# the batch without touching the repo.
ctest --test-dir build -L chaos --timeout 240 --output-on-failure
chaos_dir="$(mktemp -d)"
build/tools/sfcpart chaos --trials=20 --faults=6 \
  --seed="${SFCPART_CHAOS_SEED:-1000}" --out="$chaos_dir/chaos"
# Rank-kill leg: fail-stop deaths mid-run. A death aborts the attempt and
# the partition restarts on the surviving ranks, which must reproduce the
# exact serial plan; only schedules that can exhaust the restart ladder
# may abort. The partition-mode trial/shrink machinery enforces both
# (exit 1 otherwise).
build/tools/sfcpart chaos --partition --trials=20 --kills=1 \
  --seed="${SFCPART_CHAOS_SEED:-1000}" --out="$chaos_dir/chaos_kill"
# The same on SEAM advection: a kill re-slices the curve around the dead
# rank, and the survivors must still match the fault-free tracer field.
build/tools/sfcpart chaos --trials=10 --kills=1 \
  --seed="${SFCPART_CHAOS_SEED:-1000}" --out="$chaos_dir/chaos_seam_kill"
# Replay legs: bare schedule files through --replay — two message faults
# that heal in place on each harness (on the partition harness a corrupt
# and a drop on leaf -> root data frames, which must still yield the
# serial plan), then one kill on 4 ranks, which must restart on the three
# survivors and recover into the serial plan.
printf '%s\n' '{"seed": "7", "faults": [
  {"kind": "drop", "src": 0, "dst": 1, "nth": 1},
  {"kind": "corrupt", "src": 2, "dst": 3, "nth": 0}]}' \
  > "$chaos_dir/replay_faults.json"
build/tools/sfcpart chaos --replay="$chaos_dir/replay_faults.json"
printf '%s\n' '{"seed": "7", "faults": [
  {"kind": "corrupt", "src": 1, "dst": 0, "nth": 0},
  {"kind": "drop", "src": 3, "dst": 0, "nth": 1}]}' \
  > "$chaos_dir/replay_partition_faults.json"
build/tools/sfcpart chaos --partition --nproc=4 \
  --replay="$chaos_dir/replay_partition_faults.json"
printf '%s\n' '{"seed": "7", "faults": [], "kills": [{"rank": 1, "at_op": 3}]}' \
  > "$chaos_dir/replay_kill.json"
build/tools/sfcpart chaos --partition --nproc=4 \
  --replay="$chaos_dir/replay_kill.json"
# Negative replay leg: with 2 parts on 4 ranks, leaf 2 owns no cut, so its
# cut frame to the root is header-only and no data frame 1 exists on
# 2 -> 0. The drop never fires, and a replay that injected nothing of a
# scheduled kind must fail rather than pass vacuously.
printf '%s\n' '{"seed": "7", "faults": [
  {"kind": "drop", "src": 2, "dst": 0, "nth": 1}]}' \
  > "$chaos_dir/replay_vacuous.json"
if build/tools/sfcpart chaos --partition --nproc=4 --nparts=2 \
  --replay="$chaos_dir/replay_vacuous.json"; then
  echo "ci: a replay whose scheduled drop never fired passed" >&2
  exit 1
fi
# Negative input legs: a misspelt schedule key ("kils") and a flag the
# command does not read must each be refused, not run as a fault-free
# trial that passes vacuously. The refusal must name the key and show the
# user no contract internals (the failed expression, a source path).
printf '%s\n' '{"seed": "7", "faults": [], "kils": [{"rank": 1, "at_op": 3}]}' \
  > "$chaos_dir/replay_unknown_key.json"
if build/tools/sfcpart chaos --partition --nproc=4 \
  --replay="$chaos_dir/replay_unknown_key.json" \
  2> "$chaos_dir/unknown_key.err"; then
  echo "ci: a replay with an unknown schedule key passed" >&2
  exit 1
fi
if ! grep -q "unknown key 'kils'" "$chaos_dir/unknown_key.err" ||
  grep -qE 'precondition failed|/src/' "$chaos_dir/unknown_key.err"; then
  echo "ci: the unknown-key refusal does not read as a user error:" >&2
  cat "$chaos_dir/unknown_key.err" >&2
  exit 1
fi
# A flag is known per harness: --nparts belongs to the partition harness,
# --steps to the advection one. Each refusal is a usage error (exit 2).
for flags in "--trials=1 --faults=1 --transport=inproc" \
  "--trials=1 --nparts=3" "--partition --trials=1 --steps=9"; do
  rc=0
  build/tools/sfcpart chaos $flags || rc=$?  # $flags splits into words
  if [ "$rc" -ne 2 ]; then
    echo "ci: 'sfcpart chaos $flags' exited $rc, not 2 (unread flag)" >&2
    exit 1
  fi
done
# SEAM rank-kill replay: a kills-only schedule on the advection harness.
# Rank 2 dies in the second step; rank 0's kill lies past its first
# attempt, stays armed and fires after the restart. Two restarts, and the
# recovered tracer must match the fault-free run to 1e-12.
printf '%s\n' '{"seed": "7", "kills": [{"rank": 2, "at_op": 40},
  {"rank": 0, "at_op": 72}]}' > "$chaos_dir/seam_two_kills.json"
if ! build/tools/sfcpart chaos --ne=2 --nproc=4 --steps=8 \
  --replay="$chaos_dir/seam_two_kills.json" > "$chaos_dir/two_kills.out" ||
  ! grep -Eq '^recoveries +2$' "$chaos_dir/two_kills.out"; then
  echo "ci: the two-kill replay failed or did not restart twice:" >&2
  cat "$chaos_dir/two_kills.out" >&2
  exit 1
fi
rm -rf "$chaos_dir"

echo "==> [7/9] distributed-partition bench smoke (tiny K)"
bench_dir="$(mktemp -d)"
# Tiny problem, one repeat: proves the fabric pipeline end to end (the
# bench exits non-zero if any rank count diverges from the serial plan)
# and that the JSON artifact is well formed.
build/bench/bench_partition_scaling --ne=2 --nparts=4 --repeat=1 \
  --out="$bench_dir/BENCH_partition_scaling.json"
test -s "$bench_dir/BENCH_partition_scaling.json" || {
  echo "missing or empty artifact: BENCH_partition_scaling.json" >&2; exit 1; }
grep -q '"elements_per_sec"' "$bench_dir/BENCH_partition_scaling.json"
# The paper's many-parts regime: each rank's walk places its share of the
# 107 cuts, parity-checked on every rank count the same way.
build/bench/bench_partition_scaling --ne=12 --nparts=108 --repeat=1 \
  --out="$bench_dir/BENCH_partition_scaling.json"
# The SEAM ledger rows (element kernels, natively and at each lane width;
# the fused stage pass; one rank's halo plan; the driver's fixed cost per
# call) and the curve-enumeration rows (point query and range walk per
# position) run once, briefly
# and ungated (wall clock is machine noise here, as time_usec is in stage
# 8), so they cannot rot; bench_micro writes its BENCH_micro.json into the
# scratch dir.
repo_root="$(pwd)"
(cd "$bench_dir" && "$repo_root/build/bench/bench_micro" \
  --benchmark_filter='BM_AdvectionTendency|BM_AdvectionStage|BM_SweRhs|AtWidth|BM_RankExchangePlan|BM_SeamDriverFixedCost|BM_ElementAt|BM_ElementWalk' \
  --benchmark_min_time=0.01 > /dev/null)
rm -rf "$bench_dir"

echo "==> [8/9] perf guard: fresh BENCH_baselines.json vs committed reference"
# The quality metrics (load balance, edge cut) are deterministic, so the
# generous tolerance only has to absorb intended algorithm changes — which
# should arrive together with a regenerated tools/bench_reference.json
# (bench_guard --update; ignored wall-clock columns carry over unchanged).
# Wall-clock columns (time_usec) are ignored by default.
guard_dir="$(mktemp -d)"
(cd "$guard_dir" && "$repo_root/build/bench/bench_baselines" > /dev/null)
build/tools/bench_guard --fresh="$guard_dir/BENCH_baselines.json" \
  --reference=tools/bench_reference.json --tolerance=0.25
# Recovery smoke + guard: the bench itself exits non-zero unless every
# kill scenario recovers into the serial plan; the guard then pins the
# structural columns (parity, kills fired, ranks lost). Wall-clock and the
# restart count are ignored: whether two kills land in one attempt or in
# two depends on thread timing.
build/bench/bench_partition_recovery --repeat=1 \
  --out="$guard_dir/BENCH_partition_recovery.json" > /dev/null
build/tools/bench_guard --fresh="$guard_dir/BENCH_partition_recovery.json" \
  --reference=tools/bench_partition_recovery_reference.json \
  --tolerance=0.25 --ignore=time_usec,recoveries
rm -rf "$guard_dir"

echo "==> [9/9] benchmark self-test: perfbench metric names, units and per-op checks"
python3 perfbench/selftest.py

echo "==> CI gate passed"
