#!/usr/bin/env bash
# Single entry point for the repo's correctness-enforcement pipeline:
#
#   1. format gate        tools/check_format.sh (no-diff under .clang-format)
#   2. clang-tidy         over every src/**/*.cpp, using the committed
#                         .clang-tidy; any warning fails (WarningsAsErrors)
#   3. ultra-lint         the repo's own determinism analyzer
#                         (tools/ultra_lint) over src/ and tests/; built
#                         from source here, so it never SKIPs
#   4. checked build+test warnings-as-errors ASan+UBSan build of the whole
#                         tree, then the full ctest suite (the `checked`
#                         label's certificate suites included); any sanitizer
#                         report aborts the test (-fno-sanitize-recover=all)
#
# Stages whose tool is missing from the environment are reported as SKIP and
# do not fail the run (this repo builds in containers without LLVM); export
# ULTRA_REQUIRE_TIDY=1 (alias: ULTRA_REQUIRE_CLANG_TIDY=1) and
# ULTRA_REQUIRE_FORMAT=1 to harden a CI image that ships them. Usage:
#
#   tools/run_static_analysis.sh            # everything
#   tools/run_static_analysis.sh --no-build # stages 1-3 only (no ASan build)
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$PWD"
JOBS="${ULTRA_ANALYSIS_JOBS:-$(nproc)}"
RUN_BUILD=1
[[ "${1:-}" == "--no-build" ]] && RUN_BUILD=0

fail=0

# ---- 1. Formatting gate ----------------------------------------------------
if ! tools/check_format.sh; then
  fail=1
fi

# ---- 2. clang-tidy ---------------------------------------------------------
CLANG_TIDY="${CLANG_TIDY:-clang-tidy}"
if command -v "$CLANG_TIDY" >/dev/null 2>&1; then
  TIDY_BUILD_DIR="${ULTRA_TIDY_BUILD_DIR:-$ROOT/build-analysis}"
  if [[ ! -f "$TIDY_BUILD_DIR/compile_commands.json" ]]; then
    cmake -B "$TIDY_BUILD_DIR" -S "$ROOT" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
  fi
  mapfile -t tidy_sources < <(git ls-files -- 'src/**/*.cpp')
  echo "run_static_analysis: clang-tidy over ${#tidy_sources[@]} sources"
  if ! "$CLANG_TIDY" -p "$TIDY_BUILD_DIR" --quiet "${tidy_sources[@]}"; then
    echo "run_static_analysis: FAIL — clang-tidy reported findings" >&2
    fail=1
  else
    echo "run_static_analysis: clang-tidy OK"
  fi
else
  if [[ "${ULTRA_REQUIRE_TIDY:-0}" == "1" || "${ULTRA_REQUIRE_CLANG_TIDY:-0}" == "1" ]]; then
    echo "run_static_analysis: FAIL — $CLANG_TIDY not found and ULTRA_REQUIRE_TIDY=1" >&2
    fail=1
  else
    echo "run_static_analysis: SKIP clang-tidy — $CLANG_TIDY not available"
  fi
fi

# ---- 3. ultra-lint (determinism rules) --------------------------------------
# Self-contained C++ (no LLVM dependency), so unlike clang-tidy this stage is
# built from source on the spot and never SKIPs. Only a reasoned NOLINT
# accepts a finding; --audit lists each one with its reason.
# Export ULTRA_SARIF_OUT=<file> to also emit a SARIF 2.1.0 report (CI uploads
# it to code scanning).
LINT_DIR="${ULTRA_LINT_BUILD_DIR:-$ROOT/build-ultra-lint}"
cmake -B "$LINT_DIR" -S "$ROOT" -DCMAKE_BUILD_TYPE=Release >/dev/null
lint_args=(--root "$ROOT" --audit)
if [[ -n "${ULTRA_SARIF_OUT:-}" ]]; then
  lint_args+=(--sarif "$ULTRA_SARIF_OUT")
fi
if ! cmake --build "$LINT_DIR" --target ultra_lint -j "$JOBS" >/dev/null; then
  echo "run_static_analysis: FAIL — ultra_lint failed to build" >&2
  fail=1
elif ! "$LINT_DIR/tools/ultra_lint/ultra_lint" "${lint_args[@]}" src tests; then
  echo "run_static_analysis: FAIL — ultra-lint reported findings" >&2
  fail=1
else
  echo "run_static_analysis: ultra-lint OK"
fi

# ---- 4. Checked build + tests (ASan+UBSan, -Werror) ------------------------
if [[ $RUN_BUILD -eq 1 ]]; then
  CHECKED_DIR="${ULTRA_CHECKED_BUILD_DIR:-$ROOT/build-checked}"
  cmake -B "$CHECKED_DIR" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=Debug \
    -DULTRA_SANITIZE=address,undefined \
    -DULTRA_WERROR=ON >/dev/null
  echo "run_static_analysis: checked build (ASan+UBSan, -Werror, -j$JOBS)"
  if ! cmake --build "$CHECKED_DIR" -j "$JOBS"; then
    echo "run_static_analysis: FAIL — checked build failed" >&2
    fail=1
  elif ! ctest --test-dir "$CHECKED_DIR" --output-on-failure -j "$JOBS"; then
    echo "run_static_analysis: FAIL — checked tests failed" >&2
    fail=1
  else
    echo "run_static_analysis: checked build + tests OK"
  fi
fi

if [[ $fail -ne 0 ]]; then
  echo "run_static_analysis: FAILED" >&2
  exit 1
fi
echo "run_static_analysis: all stages passed"
