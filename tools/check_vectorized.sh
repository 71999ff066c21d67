#!/usr/bin/env bash
# Checks that the two FMA loops the project relies on for speed were
# vectorized: the x86-64-v3 target_clones of ffmaRow (the simulator's
# FFMA lane loop, in libgpuperf_sim.a) and of referenceSgemm (the host
# reference, in libgpuperf_sgemm.a) must each hold a packed
# single-precision FMA (vfmadd...ps) on ymm registers. A compiler or flag
# change that leaves either loop scalar still computes the same bits, so
# only the disassembly shows it.
#
# Usage: tools/check_vectorized.sh BUILD_DIR
#   BUILD_DIR is a configured and built tree (cmake -B build -S . &&
#   cmake --build build). Skips, exit 0, on a host that is not x86-64.
#
# Exit status: 0 both vectorized (or skipped), 1 a clone is missing or
# scalar, 2 usage.
set -euo pipefail

if (($# != 1)); then
  sed -n '10,12p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi
BUILD=$1

if [[ $(uname -m) != x86_64 ]]; then
  echo "check_vectorized: skipped, host is $(uname -m), not x86_64"
  exit 0
fi

status=0
# check LIBRARY FUNCTION: FUNCTION's x86-64-v3 clone in LIBRARY must
# contain a vfmadd*ps with a ymm operand.
check() {
  local lib=$BUILD/$1 fn=$2
  if [[ ! -f $lib ]]; then
    echo "check_vectorized: $lib not found (build the tree first)" >&2
    status=1
    return
  fi
  local found
  found=$(objdump -d --no-show-raw-insn -C "$lib" | awk -v fn="$fn" '
    /^[0-9a-f]+ <.*>:$/ { in_fn = index($0, fn) && index($0, "arch_x86_64_v3"); seen += in_fn; next }
    in_fn && /vfmadd[0-9]+ps/ && /%ymm/ { packed++ }
    END { printf "%d %d", seen, packed }')
  local seen=${found% *} packed=${found#* }
  if ((seen == 0)); then
    echo "check_vectorized: FAIL: no x86-64-v3 clone of $fn in $1" >&2
    status=1
  elif ((packed == 0)); then
    echo "check_vectorized: FAIL: the x86-64-v3 clone of $fn in $1 has" \
      "no packed ymm FMA" >&2
    status=1
  else
    echo "check_vectorized: ok: $fn (x86-64-v3) has $packed packed ymm FMAs"
  fi
}

check src/sim/libgpuperf_sim.a 'gpuperf::ffmaRow('
check src/sgemm/libgpuperf_sgemm.a 'gpuperf::referenceSgemm('
exit $status
