#!/usr/bin/env bash
# Configure, build and run the test suite under sanitizers: first the
# whole suite under AddressSanitizer + UndefinedBehaviorSanitizer, then
# the threaded suites under ThreadSanitizer. The guarded-execution
# contract ("any input runs, is rejected, or traps -- never crashes") is
# only as strong as the memory-safety checking behind it, so the fuzz
# and fault-injection suites should be exercised under sanitizers
# whenever the executor, simulator or decoders change; the parallel
# launch path (LaunchConfig::Jobs) additionally needs TSan whenever the
# thread pool, overlay merge, or PerfDatabase locking changes.
#
# Usage: tools/check_sanitizers.sh [--asan-only] [build-dir] [ctest args...]
#   build-dir defaults to <repo>/build-sanitize; the TSan build goes to
#   <build-dir>-tsan. --asan-only skips the TSan stage, which needs a
#   second full build tree.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
ASAN_ONLY=0
if [ "${1:-}" = "--asan-only" ]; then
  ASAN_ONLY=1
  shift
fi
BUILD="${1:-$ROOT/build-sanitize}"
shift $(( $# > 0 ? 1 : 0 ))

cmake -S "$ROOT" -B "$BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPUPERF_SANITIZE=ON
cmake --build "$BUILD" -j"$(nproc)"

# halt_on_error: treat any sanitizer report as a hard failure.
ASAN_OPTIONS=halt_on_error=1 \
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ctest --test-dir "$BUILD" --output-on-failure "$@"

if [ "$ASAN_ONLY" = 1 ]; then
  exit 0
fi

# ThreadSanitizer pass: TSan is mutually exclusive with ASan, so it
# needs its own build tree. Only the suites that spawn threads are run
# -- the serial suites cannot race and TSan slows them ~10x. The
# scheduler suite is threaded through its Jobs=2 padded-verify case, so
# it rides along; the profile suite exercises the per-SM profile merge
# under the parallel launcher; the journal and sweep-supervisor suites
# cover the journaled PerfDatabase and the sweep engine, whose
# checkpoint appends run on pool worker threads; the bench-run suite
# runs a bench's sweep through the pool and its exit path; the probe
# suite merges per-SM probe clones under the parallel launcher and the
# process-wide engine behind its mutex.
TSAN_BUILD="$BUILD-tsan"
cmake -S "$ROOT" -B "$TSAN_BUILD" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPUPERF_TSAN=ON
cmake --build "$TSAN_BUILD" -j"$(nproc)"

TSAN_OPTIONS=halt_on_error=1 \
  ctest --test-dir "$TSAN_BUILD" --output-on-failure \
    -R '(support|parallel_sim|perf_cache|perf_journal|sweep_supervisor|bench_run|stats|scheduler|profile|probe)_test|trace_smoke' "$@"
