#!/usr/bin/env bash
# Performance hygiene for the discrete-event engine: Release build, then
# micro_engine at full size, which regenerates BENCH_engine.json at the
# repo root and exits non-zero below its speedup floor or on any
# steady-state allocation. `./build/bench/micro_perf` (google-benchmark)
# times the engine and queueing hot loops on demand. The planner's four
# paths (one scenario, a batch grid, a streamed store, a sharded sweep) are
# measured by vmbench: `python3 vmbench/run.py` (see BENCHMARK.json and
# vmbench/README.md).
#
# The numbers are wall-clock sensitive: run on an idle machine. Pass extra
# micro_engine flags through, e.g. `scripts/bench.sh --fire-reps 10`.
set -euo pipefail
cd "$(dirname "$0")/.."

CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)"
echo "== bench: detected ${CORES} core(s) =="

echo "== bench: release build =="
cmake --preset default
cmake --build --preset default -j

echo
echo "== bench: micro_engine (slot-map calendar) =="
./build/bench/micro_engine --json BENCH_engine.json "$@"

echo
echo "bench PASSED (BENCH_engine.json updated)"
