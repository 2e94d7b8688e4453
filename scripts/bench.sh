#!/usr/bin/env bash
# Performance hygiene: Release build, then the microbenchmarks at full
# size. micro_engine regenerates BENCH_engine.json at the repo root (the
# checked-in numbers CI and DESIGN.md refer to); micro_sweep checks that
# the thread-pool sweep matches the serial one; micro_batch regenerates
# BENCH_batch.json;
# micro_streaming regenerates BENCH_streaming.json (out-of-core sweep with
# checkpoint/resume). All exit non-zero when they miss their targets.
#
# The numbers are wall-clock sensitive: run on an idle machine. Multi-worker
# rows recorded on a box with fewer cores than workers are marked
# "unreliable" in BENCH_batch.json rather than suppressed. Pass extra flags
# through, e.g. `scripts/bench.sh --fire-reps 10`.
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
echo "== bench: micro_sweep (serial vs thread-pool planner sweep) =="
./build/bench/micro_sweep

echo
echo "== bench: micro_batch (columnar ScenarioBatch evaluator) =="
# Gate the multi-lane rows against the previously recorded file before
# overwriting it: a regeneration that silently lost >10% of batch_1thread
# plans/sec fails here. The bench skips the check (with a notice) when the
# recorded baseline came from a different machine or grid.
./build/bench/micro_batch --json BENCH_batch.json \
  --baseline-json BENCH_batch.json --min-baseline-speedup 0.9 \
  --git-rev "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

echo
echo "== bench: micro_shard_driver (multi-process sharded sweep) =="
# Same gate-then-overwrite pattern as micro_batch: the 1-process streaming
# throughput must hold >= 0.9x of the recorded BENCH_shard.json before the
# file is regenerated. The 2-worker fleet must reach 1.6x of 1-process on
# machines with >= 2 cores (skipped with a notice elsewhere; rows with more
# workers than cores are recorded but marked unreliable). The fs-overhead
# gate bounds the crash-consistent util::fs layer's hot-path cost: the
# streaming_1proc row must stay within 2% of the recording (also skipped
# with a notice on a foreign machine/grid). The lease-sweep rows run a
# healthy 2-worker lease-only fleet at several --lease-ms values.
./build/bench/micro_shard_driver --json BENCH_shard.json \
  --baseline-json BENCH_shard.json --min-baseline-speedup 0.9 \
  --min-2worker-speedup 1.6 --max-fs-overhead-pct 2 \
  --store build/bench/micro_shard.store \
  --git-rev "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

echo
echo "== bench: micro_streaming (out-of-core sweep, 10^6 scenarios) =="
./build/bench/micro_streaming --scenarios 1000000 --shard 8192 \
  --json BENCH_streaming.json \
  --store build/bench/micro_streaming.store \
  --git-rev "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"

echo
echo "bench PASSED (BENCH_engine.json, BENCH_batch.json, BENCH_shard.json, BENCH_streaming.json updated)"
