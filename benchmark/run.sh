#!/usr/bin/env bash
# Host-performance benchmark: builds ../src and hostbench into build-bench/
# (at the repository root), then runs workloads.
#
# One run, printing one JSON object as the last line of stdout:
#   bash benchmark/run.sh --workload NAME [--seed S] [--seconds T] [--trace 0|1]
#
# A full measurement -- self-test, --runs runs of every workload (each in
# its own process, the order rotated between runs), then one traced run
# of each; records land in --out (default build-bench/results):
#   bash benchmark/run.sh [--runs N] [--seed S] [--seconds T] [--out DIR]
#
# Exit status: 0 ok, 1 a build, self-test or operation failed or a traced
# run's sim_digest differs from the untraced runs', 2 usage.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-bench"

usage() {
  sed -n '4,12p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

workload="" seed=1 seconds=20 trace=0 runs=5 out="$build/results" suite_flag=0
while (($#)); do
  case "$1" in
    --workload | --seed | --seconds | --trace | --runs | --out)
      (($# >= 2)) || { echo "run.sh: $1 requires a value" >&2; usage; }
      case "$1" in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        --runs) runs=$2; suite_flag=1 ;;
        --out) out=$2; suite_flag=1 ;;
      esac
      shift 2 ;;
    *) echo "run.sh: unknown option '$1'" >&2; usage ;;
  esac
done
if [[ -n $workload ]] && ((suite_flag)); then
  echo "run.sh: --runs and --out are for a full measurement, not --workload" >&2
  usage
fi
if [[ ! $runs =~ ^[1-9][0-9]*$ ]]; then
  echo "run.sh: --runs: '$runs' is not a positive integer" >&2
  usage
fi

# Re-configuring an up-to-date tree is quick, and it recovers from an
# earlier configure that failed; the build tool decides what is stale.
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j4 >&2

if [[ -n $workload ]]; then
  exec "$build/hostbench" --workload "$workload" --seed "$seed" \
    --seconds "$seconds" --trace "$trace"
fi

"$build/selftest" >&2
mkdir -p "$out"
mapfile -t names < <("$build/hostbench" --list)
status=0
check() { # check RECORD: fail unless every operation succeeded
  if ! grep -q '"correct":true,"attempted":[0-9]*,"failed":0,' "$1"; then
    echo "run.sh: failed operations in $1" >&2
    status=1
  fi
}
for ((r = 0; r < runs; r++)); do
  for ((i = 0; i < ${#names[@]}; i++)); do
    w=${names[(i + r) % ${#names[@]}]}
    echo "== $w, run $((r + 1)) of $runs" >&2
    "$build/hostbench" --workload "$w" --seed "$seed" --seconds "$seconds" \
      --out "$out/$w-run$r.json" >/dev/null
    check "$out/$w-run$r.json"
  done
done
for w in "${names[@]}"; do
  echo "== $w, traced" >&2
  "$build/hostbench" --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace 1 --out "$out/$w-traced.json" \
    --trace-out "$out/$w-traced.trace.json" >/dev/null
  check "$out/$w-traced.json"
  digests=$(sed -n 's/.*"sim_digest":"\([0-9a-f]*\)".*/\1/p' \
    "$out/$w"-run*.json "$out/$w-traced.json" | sort -u | wc -l)
  if ((digests != 1)); then
    echo "run.sh: $w: sim_digest differs between runs" >&2
    status=1
  fi
done
echo "records in $out; compare two sets with:" >&2
echo "  $build/hostbench --compare DIR_A DIR_B" >&2
exit $status
