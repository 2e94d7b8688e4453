#!/usr/bin/env bash
# Asserts the five analytic column kernels in src/core/batch_eval.cpp
# (staff_dedicated, staff_consolidated, staff_fleet, derive_utility,
# derive_power)
# actually auto-vectorize under the Release flags. The two staffing kernels'
# column loops live in the classes that stage them (DedicatedStaffing,
# ConsolidatedStaffing), which staff_dedicated, staff_consolidated and
# staff_deployments all run. Compiles the one file
# with -fopt-info-vec and requires at least one "loop vectorized" report
# inside each kernel's line range — so a refactor that quietly reintroduces
# control flow or aliasing into a hot loop fails here, not in a bench
# regression three PRs later. Informational (not asserted): the SLP reports
# from the multi-lane Erlang walk in src/queueing/erlang_kernel.cpp.
set -euo pipefail
cd "$(dirname "$0")/.."

CXX="${CXX:-g++}"
SRC=src/core/batch_eval.cpp
FLAGS=(-std=c++20 -O3 -DNDEBUG -fno-math-errno -fno-trapping-math -I src)

if ! "${CXX}" --version 2>/dev/null | grep -qiE 'g\+\+|gcc|clang'; then
  echo "check_vectorize SKIPPED: ${CXX} is not gcc or clang"
  exit 0
fi

if "${CXX}" --version | grep -qi clang; then
  REPORT=$("${CXX}" "${FLAGS[@]}" -c "${SRC}" -o /dev/null \
    -Rpass=loop-vectorize 2>&1 | grep -E "${SRC}.*vectorized" || true)
else
  REPORT=$("${CXX}" "${FLAGS[@]}" -c "${SRC}" -o /dev/null \
    -fopt-info-vec 2>&1 | grep -E "${SRC}.*loop vectorized" || true)
fi

# Line ranges of the five kernels: each starts at its definition and ends at
# the next kernel (or EOF). grep -n keeps this robust against edits.
mapfile -t STARTS < <(grep -n \
  -e '^class DedicatedStaffing' -e '^class ConsolidatedStaffing' \
  -e '^void staff_fleet' \
  -e '^void derive_utility' -e '^void derive_power' \
  "${SRC}" | cut -d: -f1)
NAMES=(staff_dedicated staff_consolidated staff_fleet derive_utility \
       derive_power)
if [[ "${#STARTS[@]}" -ne 5 ]]; then
  echo "check_vectorize FAILED: expected 5 kernel definitions in ${SRC}," \
       "found ${#STARTS[@]}"
  exit 1
fi

FAILED=0
for i in 0 1 2 3 4; do
  LO="${STARTS[$i]}"
  if [[ "$i" -lt 4 ]]; then HI="${STARTS[$((i + 1))]}"; else HI=1000000; fi
  COUNT=$(echo "${REPORT}" | awk -F: -v lo="${LO}" -v hi="${HI}" \
    'NF > 1 && $2 >= lo && $2 < hi' | wc -l)
  if [[ "${COUNT}" -gt 0 ]]; then
    echo "OK   ${NAMES[$i]}: ${COUNT} vectorized loop(s)"
  else
    echo "FAIL ${NAMES[$i]}: no vectorized loop reported in" \
         "lines [${LO}, ${HI})"
    FAILED=1
  fi
done

echo
echo "-- informational: multi-lane Erlang walk (SLP packs, not asserted) --"
"${CXX}" "${FLAGS[@]}" -c src/queueing/erlang_kernel.cpp -o /dev/null \
  -fopt-info-vec 2>&1 | grep -cE 'vectorized' | \
  xargs -I{} echo "erlang_kernel.cpp: {} vectorization report(s)" || true

if [[ "${FAILED}" -ne 0 ]]; then
  echo
  echo "check_vectorize FAILED: a column kernel lost its vectorized loop"
  exit 1
fi
echo
echo "check_vectorize PASSED"
