#!/usr/bin/env bash
# The full CI gate, in dependency order:
#   1. tier-1: default build + complete ctest suite (unit label first, so
#      a broken build fails in seconds instead of after the sweeps)
#   2. sanitizers: AddressSanitizer and UBSan builds + complete ctest
#      suite, plus a ThreadSanitizer build running the concurrency suites
#      (thread pool, trace cache, sweep runner, result store, run options)
#   2b. warnings: src/ built with -Wshadow -Wconversion -Werror
#      (HETSIM_WERROR=ON)
#   3. static analysis: scripts/lint.sh (clang-tidy against the pinned
#      baseline, plus the hetsim_lint memory-model linter over the shipped
#      design space), then the differential race-verifier fuzz gate
#   4. metrics smoke: one run must emit schema-valid, conservation-clean
#      metrics plus a Chrome trace file
#   5. golden diff + paper fidelity: regenerate every checked artifact and
#      hold it against refs/golden (tight tolerances) and refs/paper
#      (paper-reported values and trends), then prove the sweep engine is
#      byte-deterministic across job counts
#
# Usage: scripts/ci.sh
#
# Environment:
#   HETSIM_JOBS       worker threads per sweep: unset or 0 for all cores, or
#                     a positive integer
#   HETSIM_SKIP_ASAN  set to 1 to skip the ASan leg of gate 2
#   HETSIM_SKIP_UBSAN set to 1 to skip the UBSan leg of gate 2
#   HETSIM_SKIP_TSAN  set to 1 to skip the TSan leg of gate 2
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== gate 1: tier-1 build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS" >/dev/null
# Every ctest selection below passes --no-tests=error, so a label or
# regex that has gone stale fails the gate instead of matching nothing.
ctest --test-dir build -L unit --no-tests=error --output-on-failure \
  -j "$JOBS" | tail -3
ctest --test-dir build -L sweep --no-tests=error --output-on-failure \
  -j "$JOBS" | tail -3

echo "== gate 1b: fast-path differential + bench smoke =="
# The windowed fast path must be bit-identical to the materialized
# per-record reference (all six kernels on all five models), and the
# microbenchmark harness must complete a smoke pass. (ctest -R is
# case-sensitive: the gtest names are FastPathDifferential.* and
# FastPathExpansion.*.)
ctest --test-dir build -R 'FastPath' --no-tests=error --output-on-failure \
  -j "$JOBS" | tail -3
HETSIM_TIMING_JSON=build/bench-smoke-timing.json \
  build/bench/hetsim_bench --smoke >/dev/null

echo "== gate 1c: parallel scaling smoke (jobs=2 vs serial) =="
# A jobs=2 sweep must finish within 1.05x the serial wall — the gate that
# catches trace-generation ballooning / cache contention under parallel
# sweeps. The bench itself prints a visible SKIP notice (and enforces
# nothing) on single-core hosts, where the comparison would be noise.
HETSIM_TIMING_JSON=build/bench-smoke-timing.json \
  build/bench/hetsim_bench --smoke --phase scaling

if [ "${HETSIM_SKIP_ASAN:-0}" != "1" ]; then
  echo "== gate 2: AddressSanitizer build + tests =="
  cmake -B build-asan -S . -DHETSIM_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS" >/dev/null
  ctest --test-dir build-asan --output-on-failure -j "$JOBS" | tail -3
  # Re-run the trace-cache stress suite a few extra times under ASan: its
  # single-flight and stable-pointer invariants only break in narrow race
  # windows, so give them more chances to misalign.
  ctest --test-dir build-asan -R TraceCacheStress --no-tests=error \
    --output-on-failure --repeat until-fail:3 -j "$JOBS" | tail -3
else
  echo "== gate 2: ASan skipped (HETSIM_SKIP_ASAN=1) =="
fi

if [ "${HETSIM_SKIP_UBSAN:-0}" != "1" ]; then
  echo "== gate 2: UndefinedBehaviorSanitizer build + tests =="
  cmake -B build-ubsan -S . -DHETSIM_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$JOBS" >/dev/null
  ctest --test-dir build-ubsan --output-on-failure -j "$JOBS" | tail -3
else
  echo "== gate 2: UBSan skipped (HETSIM_SKIP_UBSAN=1) =="
fi

if [ "${HETSIM_SKIP_TSAN:-0}" != "1" ]; then
  echo "== gate 2: ThreadSanitizer build + concurrency tests =="
  # Only the concurrency-heavy suites: everything else is single-threaded
  # and already covered by ASan/UBSan, and a full TSan ctest run would
  # triple the gate's wall clock for no extra coverage.
  cmake -B build-tsan -S . -DHETSIM_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target trace_cache_stress_test \
    threadpool_test sweep_test sweep_dedup_test result_store_test \
    run_options_test >/dev/null
  ctest --test-dir build-tsan \
    -R 'TraceCache|ThreadPool|SweepRunner|ResultStore|Determinism|RunOptions' \
    --no-tests=error --output-on-failure -j "$JOBS" | tail -3
else
  echo "== gate 2: TSan skipped (HETSIM_SKIP_TSAN=1) =="
fi

echo "== gate 2b: src/ under -Wshadow -Wconversion -Werror =="
# Only the simulator's own libraries: HETSIM_WERROR is scoped to src/.
cmake -B build-werror -S . -DHETSIM_WERROR=ON >/dev/null
cmake --build build-werror -j "$JOBS" --target hetsim_common hetsim_trace \
  hetsim_cache hetsim_dram hetsim_interconnect hetsim_memory hetsim_cpu \
  hetsim_gpu hetsim_comm hetsim_obs hetsim_core hetsim_analysis \
  hetsim_energy hetsim_check >/dev/null

echo "== gate 3: static analysis =="
scripts/lint.sh build

echo "== gate 3b: differential race-verifier fuzz =="
# 1000 seeded mutation cases: every constructed ordering bug must be
# flagged with a structurally valid witness, and every verifier-clean
# program must replay race-free on every explored dynamic schedule.
build/tools/hetsim_lint --fuzz 1000 --seed 7

echo "== gate 4: metrics smoke =="
# One sweep point must emit a schema-valid metrics document that passes
# the DRAM traffic-conservation audit, plus a Chrome trace file.
SMOKE_DIR="build/obs-smoke"
rm -rf "$SMOKE_DIR"
mkdir -p "$SMOKE_DIR"
HETSIM_TRACE_EVENTS="$SMOKE_DIR" build/tools/hetsim run --system Fusion \
  --kernel reduction --metrics "$SMOKE_DIR/metrics.json" >/dev/null
build/tools/hetsim_stats validate "$SMOKE_DIR/metrics.json"
build/tools/hetsim_stats audit "$SMOKE_DIR/metrics.json"
[ -s "$SMOKE_DIR/Fusion_reduction.trace.json" ] || {
  echo "ci: missing trace-event file" >&2
  exit 1
}

echo "== gate 5: golden diff + paper fidelity + determinism =="
# Regenerate every manifest artifact into a scratch directory so the gate
# checks the tree as built, not whatever is sitting in out/. microbench is
# wall-clock noise and is deliberately not under regression check.
CHECK_OUT="build/check-out"
rm -rf "$CHECK_OUT"
mkdir -p "$CHECK_OUT"
export HETSIM_CSV_DIR="$CHECK_OUT"
for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name=$(basename "$b")
  [ "$name" = "microbench" ] && continue
  [ "$name" = "hetsim_bench" ] && continue # wall-clock output, not golden
  "$b" > "$CHECK_OUT/$name.txt" 2>/dev/null
done
for e in build/examples/*; do
  [ -f "$e" ] && [ -x "$e" ] || continue
  "$e" > "$CHECK_OUT/example_$(basename "$e").txt" 2>&1
done
unset HETSIM_CSV_DIR
build/tools/hetsim_check diff --out "$CHECK_OUT" \
  --report build/check-report.txt
build/tools/hetsim_check fidelity --out "$CHECK_OUT"
build/tools/hetsim_check determinism --jobs "${HETSIM_JOBS:-8}"

echo "ci: all gates passed"
