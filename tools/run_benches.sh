#!/usr/bin/env bash
# Runs every paper bench and collects per-bench metrics: text output plus
# a BENCH_sim.json record per bench (simulated cycles, wall seconds,
# sim-cycles/sec, job count) emitted by BenchRun's --json flag. All
# benches share one persistent PerfDatabase cache inside the output
# directory, so the second run of the suite (or a later bench reusing an
# earlier bench's microbenchmarks) skips re-simulation. That cache is
# also the suite's one crash-safe store: its journal fsyncs every
# measurement before a bench sees it, so a bench killed mid-sweep and
# run again serves everything it had measured from the journal.
#
# Usage: tools/run_benches.sh [--check] [--resume] [build-dir] [out-dir]
#   build-dir defaults to <repo>/build, out-dir to <build-dir>/bench_out.
#   --check   start from a fresh perf cache (the committed baselines were
#             collected that way, and a warm cache changes sim_cycles),
#             then gate every *_sim.json record against bench/baselines/
#             with tools/perfdiff -- non-zero exit on any regression.
#   --resume  continue an interrupted collection in the same out-dir:
#             benches recorded in <out-dir>/completed.list are skipped
#             entirely, and each remaining bench is re-run against the
#             shared cache, whose journal serves every measurement the
#             interrupted run acknowledged. Incompatible with --check,
#             which requires a cold, uninterrupted collection.
#
# An interrupted run (SIGINT/SIGTERM, or any bench failure) still leaves
# <out-dir>/manifest.json describing which benches completed, so callers
# can tell a partial suite from a finished one without parsing logs.
#
# Environment:
#   JOBS   worker threads per bench (default 0 = hardware concurrency)
set -Eeuo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CHECK=0
RESUME=0
ARGS=()
for A in "$@"; do
  case "$A" in
    --check) CHECK=1 ;;
    --resume) RESUME=1 ;;
    -*)
      echo "error: unknown option '$A'" >&2
      echo "usage: tools/run_benches.sh [--check] [--resume]" \
           "[build-dir] [out-dir]" >&2
      exit 2
      ;;
    *) ARGS+=("$A") ;;
  esac
done
if [ "$CHECK" = 1 ] && [ "$RESUME" = 1 ]; then
  # The baseline gate only means something for a cold end-to-end run; a
  # resumed one inherits warm-cache sim_cycles from the first attempt.
  echo "error: --resume cannot be combined with --check" >&2
  exit 2
fi
BUILD="${ARGS[0]:-$ROOT/build}"
OUT="${ARGS[1]:-$BUILD/bench_out}"
JOBS="${JOBS:-0}"
# Validate up front: a typo'd JOBS would otherwise fail 15 benches in
# (strict flag parsing rejects it per bench, but late and noisily).
if ! [[ "$JOBS" =~ ^[0-9]+$ ]]; then
  echo "error: JOBS must be a non-negative integer, got '$JOBS'" >&2
  exit 2
fi

BENCHES=(
  table1_architecture
  table2_math_throughput
  fig2_ffma_lds_mix
  fig3_register_blocking
  fig4_active_threads
  fig5_sgemm_variants
  fig6_sgemm_nn_fermi
  fig7_sgemm_nn_kepler
  fig8_register_conflicts
  fig9_register_allocation
  upper_bound_analysis
  ablation_optimizations
  k20x_projection
  model_validation
  issue_headroom_generations
)

mkdir -p "$OUT"
CACHE="$OUT/perf_cache.gpdb"
DONE_LIST="$OUT/completed.list"
if [ "$CHECK" = 1 ]; then
  rm -f "$CACHE"
fi
if [ "$RESUME" = 0 ]; then
  # A fresh (non-resume) collection owes nothing to a previous one in
  # the same directory: stale completion state must not skip benches.
  rm -f "$DONE_LIST" "$OUT/manifest.json"
fi
touch "$DONE_LIST"

bench_done() {
  grep -Fxq "$1" "$DONE_LIST"
}

# Run a bench in the background and wait for it. Bash only delivers a
# trapped signal once the current foreground child exits, so invoking
# the bench directly would postpone the SIGINT/SIGTERM manifest flush
# until the bench finished (minutes, for the SGEMM sweeps). Waiting on
# a background child keeps the trap responsive; on_signal forwards the
# signal to the child explicitly.
CHILD=0
run_logged() {
  "$@" &
  CHILD=$!
  local ST=0
  wait "$CHILD" || ST=$?
  CHILD=0
  return "$ST"
}

# Flush a machine-readable record of how far the suite got. Called on
# normal exit and from the signal trap, so a killed collection still
# leaves an accurate manifest for the operator (and for --resume).
write_manifest() {
  local STATUS="$1"
  local TMP="$OUT/manifest.json.tmp"
  {
    echo "{"
    echo "  \"status\": \"$STATUS\","
    echo "  \"check\": $CHECK,"
    echo "  \"resume\": $RESUME,"
    echo "  \"completed\": ["
    local FIRST=1
    while IFS= read -r NAME; do
      [ -n "$NAME" ] || continue
      if [ "$FIRST" = 1 ]; then FIRST=0; else echo ","; fi
      printf '    "%s"' "$NAME"
    done < "$DONE_LIST"
    [ "$FIRST" = 1 ] || echo
    echo "  ]"
    echo "}"
  } > "$TMP"
  mv "$TMP" "$OUT/manifest.json"
}

on_signal() {
  local SIG="$1"
  trap - INT TERM
  if [ "$CHILD" -ne 0 ]; then
    kill -s "$SIG" "$CHILD" 2>/dev/null || true
    wait "$CHILD" 2>/dev/null || true
  fi
  echo >&2
  echo "interrupted (SIG$SIG): flushing partial manifest to" \
       "$OUT/manifest.json; rerun with --resume to continue" >&2
  write_manifest "interrupted"
  # Re-raise so the caller observes the conventional 128+N exit status.
  kill -s "$SIG" $$
}
trap 'on_signal INT' INT
trap 'on_signal TERM' TERM
trap 'write_manifest "failed"' ERR

for BENCH in "${BENCHES[@]}"; do
  BIN="$BUILD/bench/$BENCH"
  if [ ! -x "$BIN" ]; then
    # A missing binary means the build is stale or broken -- fail loudly
    # instead of silently producing a partial suite.
    echo "error: bench '$BENCH' is missing or not executable at $BIN" >&2
    echo "       (build it with: cmake --build $BUILD)" >&2
    write_manifest "failed"
    exit 1
  fi
  if bench_done "$BENCH"; then
    echo "== $BENCH (already completed, skipping)" >&2
    continue
  fi
  echo "== $BENCH" >&2
  STATUS=0
  run_logged "$BIN" --jobs "$JOBS" --cache "$CACHE" \
      --json "$OUT/${BENCH}_sim.json" > "$OUT/$BENCH.txt" || STATUS=$?
  if [ "$STATUS" -ne 0 ]; then
    echo "error: bench '$BENCH' failed with exit status $STATUS" \
         "(partial output in $OUT/$BENCH.txt)" >&2
    write_manifest "failed"
    exit "$STATUS"
  fi
  echo "$BENCH" >> "$DONE_LIST"
done

# Scheduled-kernel variants: the two benches whose kernels honour
# --schedule are re-run under the list scheduler so the drip-vs-list
# comparison is part of every suite collection.
for BENCH in upper_bound_analysis ablation_optimizations; do
  if bench_done "${BENCH}_sched"; then
    echo "== $BENCH --schedule list (already completed, skipping)" >&2
    continue
  fi
  echo "== $BENCH --schedule list" >&2
  STATUS=0
  run_logged "$BUILD/bench/$BENCH" --jobs "$JOBS" --cache "$CACHE" \
      --schedule list \
      --json "$OUT/${BENCH}_sched_sim.json" \
      > "$OUT/${BENCH}_sched.txt" || STATUS=$?
  if [ "$STATUS" -ne 0 ]; then
    echo "error: bench '$BENCH --schedule list' failed with exit status" \
         "$STATUS (partial output in $OUT/${BENCH}_sched.txt)" >&2
    write_manifest "failed"
    exit "$STATUS"
  fi
  echo "${BENCH}_sched" >> "$DONE_LIST"
done

echo >&2
echo "metrics ($OUT/*_sim.json):" >&2
cat "$OUT"/*_sim.json

if [ "$CHECK" = 1 ]; then
  # The committed smoke baseline is a *cold-cache* upper_bound_analysis
  # record (what CI's bench-smoke job replays); the suite's own record
  # ran against the shared warm cache, so collect the smoke variant
  # separately or the directory gate below fails on the missing file.
  echo "== upper_bound_analysis --no-cache (smoke record)" >&2
  STATUS=0
  run_logged "$BUILD/bench/upper_bound_analysis" --jobs "$JOBS" \
      --no-cache --json "$OUT/smoke_upper_bound_analysis.json" \
      > "$OUT/smoke_upper_bound_analysis.txt" || STATUS=$?
  if [ "$STATUS" -ne 0 ]; then
    echo "error: smoke record collection failed with exit status" \
         "$STATUS" >&2
    write_manifest "failed"
    exit "$STATUS"
  fi
  # One probe-enabled record so the committed baseline gates the
  # versioned "probes" object too (--probe implies a cold cache, so the
  # record is as deterministic as the smoke one). The explicit --require
  # makes the gate fail even if both records silently lost the object.
  echo "== upper_bound_analysis --probe (probe record)" >&2
  STATUS=0
  run_logged "$BUILD/bench/upper_bound_analysis" --jobs "$JOBS" \
      --no-cache --probe "$ROOT/probes/gmem_bytes.probe" \
      --json "$OUT/probe_upper_bound_analysis.json" \
      > "$OUT/probe_upper_bound_analysis.txt" || STATUS=$?
  if [ "$STATUS" -ne 0 ]; then
    echo "error: probe record collection failed with exit status" \
         "$STATUS" >&2
    write_manifest "failed"
    exit "$STATUS"
  fi
  echo >&2
  echo "== perfdiff against $ROOT/bench/baselines" >&2
  "$BUILD/tools/perfdiff" --baselines "$ROOT/bench/baselines" \
    --current "$OUT"
  "$BUILD/tools/perfdiff" \
    "$ROOT/bench/baselines/probe_upper_bound_analysis.json" \
    "$OUT/probe_upper_bound_analysis.json" --require probes
fi

write_manifest "completed"
