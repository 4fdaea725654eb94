#!/usr/bin/env bash
# Regenerate BENCH_sim.json: build the release preset and run the simulator
# transport workload (micro_core --json) at three sizes, sweeping the round
# executor over sequential and parallel {2, 4} worker threads. Each record
# follows the ultra.bench_sim.v3 schema (see bench/common.h) and carries the
# detected CPU core count plus the transport aggregation geometry; the output
# file is a JSON array ordered small -> large, sequential -> parallel, so
# trend tooling can diff across PRs. On a single-core machine the parallel
# sweep is skipped (a parallel "scaling" point measured on one core is pure
# scheduling noise) and an explicit ultra.bench_note.v1 record is appended to
# the array instead of silently omitting the rows; --force-parallel overrides
# the skip for machines that underreport their core count.
#
# Regeneration is idempotent: records are assembled in a temp file, audited
# by tools/check_bench_json.cmake (schema + duplicate {workload, protocol,
# execution, threads} rejection, plus a peak-RSS budget comparison against
# the previous array when one exists), and only then atomically moved over
# the previous array. Rerunning never appends to or corrupts an existing
# file. Serving, maintenance and the supervised rebuild are measured by
# perfbench/ and recorded in BENCH_pipeline.json (tools/record_bench.py).
#
# Usage: tools/run_bench.sh [--force-parallel] [output-path]
#                           (default output: BENCH_sim.json)
set -euo pipefail

cd "$(dirname "$0")/.."

FORCE_PARALLEL=0
OUT="BENCH_sim.json"
for arg in "$@"; do
  case "$arg" in
    --force-parallel) FORCE_PARALLEL=1 ;;
    -*) echo "run_bench.sh: unknown option '$arg'" >&2; exit 2 ;;
    *) OUT="$arg" ;;
  esac
done

cmake --preset release >/dev/null
cmake --build --preset release --target micro_core -- -j"$(nproc)" >/dev/null

BIN=build-release/bench/micro_core
[ -x "$BIN" ] || { echo "run_bench.sh: $BIN not built" >&2; exit 1; }

TMP="$OUT.tmp"
trap 'rm -f "$TMP"' EXIT

# workload sizes: "n m repeats" (repeats shrink as n grows)
SIZES=(
  "10000   100000   10"
  "100000  1000000  3"
  "1000000 10000000 1"
)
# executor sweep: "--exec ... [--threads T]" per record. Parallel points are
# only meaningful with >1 core to schedule onto, unless forced.
CORES="$(nproc)"
EXECS=("--exec sequential")
NOTES=()
if [ "$CORES" -gt 1 ] || [ "$FORCE_PARALLEL" -eq 1 ]; then
  EXECS+=("--exec parallel --threads 2" "--exec parallel --threads 4")
  if [ "$CORES" -le 1 ]; then
    echo "run_bench.sh: --force-parallel on a $CORES-core machine;" \
         "parallel rows measure scheduling noise, not scaling" >&2
  fi
else
  echo "run_bench.sh: 1 CPU core detected; skipping the parallel sweep" \
       "(--force-parallel overrides)" >&2
  NOTES+=("{\"schema\": \"ultra.bench_note.v1\", \"note\": \"SKIPPED (1 core)\", \"skipped\": \"parallel_sweep\", \"cpu_cores\": $CORES}")
fi

{
  echo "["
  first=1
  for size in "${SIZES[@]}"; do
    read -r n m repeats <<<"$size"
    for exec_args in "${EXECS[@]}"; do
      [ "$first" -eq 1 ] && first=0 || echo ","
      # shellcheck disable=SC2086
      "$BIN" --json --n "$n" --m "$m" --seed 1 --repeats "$repeats" \
             $exec_args | tr -d '\n'
    done
  done
  for note in ${NOTES[@]+"${NOTES[@]}"}; do
    [ "$first" -eq 1 ] && first=0 || echo ","
    printf '%s' "$note"
  done
  echo
  echo "]"
} > "$TMP"

# Audit the fresh array before it replaces the previous one; when a previous
# array exists it doubles as the peak-RSS budget baseline.
BASELINE_ARGS=()
[ -f "$OUT" ] && BASELINE_ARGS=("-DBENCH_BASELINE=$OUT")
cmake -DBENCH_JSON="$TMP" ${BASELINE_ARGS[@]+"${BASELINE_ARGS[@]}"} \
      -P tools/check_bench_json.cmake
mv "$TMP" "$OUT"
trap - EXIT

echo "wrote $OUT:"
cat "$OUT"
