#!/usr/bin/env bash
# Static-analysis gate: clang-tidy over src/ (when clang-tidy is
# installed) held against the pinned baseline in refs/lint-baseline.txt
# -- any NEW warning fails; baselined ones are tolerated until paid down
# -- plus the hetsim_lint memory-model linter over every shipped
# (system x kernel) design point, which must be fully clean, plus a check
# that nothing in src/ or tools/ but src/common/RunOptions.cpp reads the
# environment.
#
# Usage: scripts/lint.sh [builddir]   (default: build)
#
# Environment:
#   HETSIM_JOBS  worker threads for hetsim_lint (default: all cores)
#   CLANG_TIDY   clang-tidy binary to use (default: clang-tidy)
set -euo pipefail
BUILD="${1:-build}"

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
  echo "lint: no build at $BUILD/ -- run: cmake -B $BUILD -S . && cmake --build $BUILD -j" >&2
  exit 1
fi

STATUS=0

echo "== environment reads =="
# Every HETSIM_* knob is parsed once, by RunOptions::fromEnvironment();
# the simulator and its tools receive the parsed value, never getenv.
if STRAY=$(grep -rn 'getenv' src tools | grep -v '^src/common/RunOptions\.cpp:'); then
  echo "lint: getenv outside src/common/RunOptions.cpp:" >&2
  echo "$STRAY" >&2
  STATUS=1
else
  echo "getenv: only in src/common/RunOptions.cpp"
fi

echo "== clang-tidy =="
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
BASELINE="refs/lint-baseline.txt"
if command -v "$CLANG_TIDY" >/dev/null 2>&1; then
  if [ ! -f "$BUILD/compile_commands.json" ]; then
    echo "lint: $BUILD/compile_commands.json missing -- reconfigure with cmake" >&2
    exit 1
  fi
  mapfile -t SOURCES < <(find src -name '*.cpp' | sort)
  # WarningsAsErrors='*' in .clang-tidy upgrades every diagnostic, so the
  # raw exit code just means "any finding"; pass/fail is decided by the
  # baseline comparison below instead.
  TIDY_LOG="$BUILD/clang-tidy.log"
  "$CLANG_TIDY" -p "$BUILD" --quiet "${SOURCES[@]}" >"$TIDY_LOG" 2>/dev/null || true
  # Normalize findings to stable keys -- repo-relative path, no line:col
  # (pure line shifts must not churn the baseline), one per line, sorted.
  grep -E '(warning|error): .*\[[a-z]' "$TIDY_LOG" \
    | sed -E 's|^.*/src/|src/|; s|^(src/[^:]+):[0-9]+(:[0-9]+)?:|\1:|' \
    | sort -u >"$BUILD/clang-tidy.current" || true
  grep -v '^#' "$BASELINE" | sed '/^[[:space:]]*$/d' \
    | sort -u >"$BUILD/clang-tidy.known" || true
  comm -13 "$BUILD/clang-tidy.known" "$BUILD/clang-tidy.current" \
    >"$BUILD/clang-tidy.new"
  if [ -s "$BUILD/clang-tidy.new" ]; then
    echo "lint: new clang-tidy findings (not in $BASELINE):" >&2
    cat "$BUILD/clang-tidy.new" >&2
    STATUS=1
  else
    echo "clang-tidy: no new findings" \
      "($(wc -l <"$BUILD/clang-tidy.current") baselined)"
  fi
else
  echo "clang-tidy not installed; skipping (the memory-model lint below still runs)"
fi

echo "== hetsim_lint: shipped design space =="
if [ ! -x "$BUILD/tools/hetsim_lint" ]; then
  cmake --build "$BUILD" -j --target hetsim_lint >/dev/null
fi
if ! "$BUILD/tools/hetsim_lint" --all --jobs "${HETSIM_JOBS:-0}"; then
  STATUS=1
fi

if [ "$STATUS" -ne 0 ]; then
  echo "lint: FAILED" >&2
else
  echo "lint: clean"
fi
exit "$STATUS"
