#!/usr/bin/env bash
# Checks every rendered observation byte against the committed
# expectations in tests/expected/, the same checks CI's probe-smoke job
# runs:
#   - gpukgen generates the BR=6 SGEMM for GTX680 and GTX580 at 192x192x64
#     and prints each kernel's gpurun launch arguments;
#   - gpurun --probe on the GTX680 kernel, diffed against
#     probe_smoke_gtx680.txt;
#   - gpurun with --metrics, --trace, --profile and --probe on the GTX680
#     and the GTX580 kernel, checked against observe_smoke_gtx680.sha256
#     and observe_smoke_gtx580.sha256;
#   - gpurun --schedule list --profile on the GTX680 kernel, checked
#     against profile_list_gtx680.sha256.
# Every run uses --jobs 2: the outputs must be byte-identical for every
# --jobs value, so the exact checks pin that too.
#
# Usage: tools/check_observe_smoke.sh
#   Needs build/tools/gpurun and build/tools/gpukgen (cmake -B build -S .
#   && cmake --build build --target gpurun gpukgen). Runs from the
#   repository root whatever the caller's directory: the hash files name
#   relative build/ paths, and gpurun's stdout echoes them, so the outputs
#   must land at exactly these paths.
#
# Exit status: 0 every byte matches, 1 a run failed or an output differs.
set -euo pipefail

cd "$(dirname "$0")/.."

for tool in gpurun gpukgen; do
  if [[ ! -x build/tools/$tool ]]; then
    echo "check_observe_smoke.sh: build/tools/$tool is missing;" \
      "build it with cmake -B build -S . &&" \
      "cmake --build build --target gpurun gpukgen" >&2
    exit 1
  fi
done

echo "== generate the GTX680 kernel and its launch shape"
build/tools/gpukgen build/smoke.gpub --machine GTX680 \
  --variant nn --mnk 192,192,64 --launch > build/smoke_args.txt

echo "== probes on the GTX680 kernel, diffed against the expectation"
# shellcheck disable=SC2046 # the launch arguments are meant to split
build/tools/gpurun build/smoke.gpub $(cat build/smoke_args.txt) \
  --probe probes/gmem_bytes.probe --jobs 2 \
  > build/probe_smoke.txt
diff tests/expected/probe_smoke_gtx680.txt build/probe_smoke.txt

echo "== every observer on the GTX680 kernel, checked against the hashes"
# Trace, profile, probes and --metrics together. The trace is ~12.5 MB,
# so only hashes are committed.
# shellcheck disable=SC2046
build/tools/gpurun build/smoke.gpub $(cat build/smoke_args.txt) \
  --metrics --trace build/observe_trace.json \
  --profile build/observe_profile.json \
  --probe probes/gmem_bytes.probe --jobs 2 \
  > build/observe_smoke.txt
sha256sum -c tests/expected/observe_smoke_gtx680.sha256

echo "== every observer on the GTX580 kernel, checked against the hashes"
# Its slots are lost mostly to dispatch_limit where the GTX680 run's are
# lost to scoreboard, and its per-track ring evicts 70788 events, so
# this also pins dropped_events.
build/tools/gpukgen build/smoke_gtx580.gpub --machine GTX580 \
  --variant nn --mnk 192,192,64 --launch > build/smoke_gtx580_args.txt
# shellcheck disable=SC2046
build/tools/gpurun build/smoke_gtx580.gpub \
  $(cat build/smoke_gtx580_args.txt) \
  --metrics --trace build/observe_trace_gtx580.json \
  --profile build/observe_profile_gtx580.json \
  --probe probes/gmem_bytes.probe --jobs 2 \
  > build/observe_smoke_gtx580.txt
sha256sum -c tests/expected/observe_smoke_gtx580.sha256

echo "== list-scheduled GTX680 kernel profile, checked against the hash"
# The list half of the EXPERIMENTS.md drip-vs-list profiling recipe: the
# drip record is pinned above, this pins the record of the same kernel
# after bank rotation and list scheduling.
# shellcheck disable=SC2046
build/tools/gpurun build/smoke.gpub $(cat build/smoke_args.txt) \
  --schedule list --profile build/profile_list.json --jobs 2 \
  > build/profile_list.txt
sha256sum -c tests/expected/profile_list_gtx680.sha256

echo "every observation output matches"
