#!/usr/bin/env bash
# Tier-1 verification: the standard Release build + full test suite, then an
# asan+ubsan build running the concurrency-sensitive suites (thread pool,
# parallel_for, engine cancellation/compaction, metrics, Erlang kernel,
# sweeps) under the sanitizers.
set -euo pipefail
cd "$(dirname "$0")/.."

# Global per-test watchdog: a hung cancellation/deadline test (the exact
# failure mode the run-control suites guard against) must fail, not wedge CI.
CTEST_TIMEOUT=300

echo "== tier-1: release build + full ctest =="
cmake --preset default
cmake --build --preset default -j
ctest --preset default -j --timeout "${CTEST_TIMEOUT}"

echo
echo "== tier-1: fault-injection suite under a pinned seed =="
# The run-control/fault/streaming suites read VMCONS_FAULT_SEED; pinning it
# here means a red fault run in CI replays bit-identically at a desk. The
# StreamingSweep suite includes the kill-and-resume smoke: a sweep killed by
# an injected shard fault resumes from its checkpoint manifest bit-identical
# to a clean run. FsFault*/CrashRecovery* is the filesystem half: torn
# manifest lines, ENOSPC mid-shard, and injected crashes at every op of the
# store-write/checkpoint/claim/commit/merge paths, each required to recover
# bit-identical to a clean 1-process streaming sweep.
VMCONS_FAULT_SEED=20090806 ./build/tests/vmcons_tests \
  --gtest_filter='RunControl*:FaultInject*:StreamingSweep*:ShardedSweep*:ClaimLedger*:ManifestLock*:FsFault*:CrashRecovery*'

echo
echo "== tier-1: bench smoke (correctness only, ~1s each) =="
# Tiny workloads: checks the benchmarks still run and their invariants hold
# (zero steady-state allocations, sweep reports identical across configs).
# Speedup thresholds are disabled — real numbers come from scripts/bench.sh.
./build/bench/micro_engine --events 50000 --cancels 20000 --reps 2 \
  --fire-reps 2 --horizon 20 --min-speedup 0 --json /dev/null
./build/bench/micro_sweep --losses 2 --scales 2 --servers 2000 \
  --min-speedup 0
./build/bench/micro_batch --losses 2 --scales 2 --servers 2000 \
  --min-speedup 0 --json /dev/null
# Parallel-scaling gate: batch_parallel must beat batch_1thread by 1.5x on
# machines with >= 4 hardware threads (the bench skips the check, with a
# notice, on smaller machines where scaling cannot show). The grid is
# bigger than the smoke above so the parallel path has real work to split.
./build/bench/micro_batch --losses 8 --scales 8 --servers 2000 \
  --min-speedup 0 --min-parallel-speedup 1.5 --json /dev/null
# Multi-lane regression gate: a full-size run must hold >= 0.6x of the
# recorded BENCH_batch.json batch_1thread plans/sec, so a change that
# quietly serializes the lane-batched Erlang walk (~0.2x) fails tier-1
# loudly. The threshold is looser than bench.sh's 0.9x because tier-1 runs
# this mid-sequence on a hot box: an *unchanged* binary measures
# 0.69x-0.96x of a cold-box baseline here (burstable-vCPU sustained-load
# dip), so 0.9x flakes on box state rather than code. The bench skips the
# check with a notice when the recorded baseline is from a different
# machine (core count / lane width) or grid shape.
./build/bench/micro_batch --min-speedup 0 --json /dev/null \
  --baseline-json BENCH_batch.json --min-baseline-speedup 0.6
# Out-of-core streaming smoke: store write/read round trip, a cancelled run
# resuming checksum-identical, and a loose resident-memory ceiling.
./build/bench/micro_streaming --scenarios 4000 --shard 512 \
  --max-rss-mb 64 --json /dev/null --store build/bench/tier1_streaming.store
# Multi-process sharded driver smoke: every worker-count row must merge
# bit-identical to the 1-process streaming reference (checked inside the
# bench, including the checkpointed run and the lease-only lease-sweep
# rows), gated against the recorded BENCH_shard.json streaming_1proc
# throughput (skipped with a notice on a different machine or grid — this
# smoke always runs a different grid than bench.sh records, so the
# fs-overhead gate is enforced by scripts/bench.sh, not here).
./build/bench/micro_shard_driver --losses 4 --scales 4 --shard 4 --reps 1 \
  --lease-sweep-ms 500 \
  --json /dev/null --store build/bench/tier1_shard.store \
  --baseline-json BENCH_shard.json --min-baseline-speedup 0

echo
echo "== tier-1: vmbench selftest =="
# vmbench compiles against the library's public API (point_inputs,
# ScenarioBatch::append, write_sweep_store, ...), so an API break must fail
# here, not first in a benchmark run. Builds into the git-ignored
# .bench_build/ and writes nothing under vmbench/.
python3 vmbench/run.py --selftest

echo
echo "== tier-1: multi-process kill-and-reclaim drill =="
# Two worker processes over a small store; one is killed mid-shard (_exit
# after its claim lands, the kill -9 window), a relaunched worker reclaims
# the dead pid's lease, and the merged result must be bit-identical to a
# 1-process StreamingSweep. Exercises the whole claim-ledger protocol with
# real processes, not threads.
./build/tools/vmcons_sweep_worker --mode selftest --workers 2 --kill-one
# Same drill under lease-only staleness: the dead-pid probe is disabled, so
# the relaunched worker may reclaim the killed worker's shard only by
# waiting out its lease — the host-portable mode for ledgers on shared
# filesystems, where a remote pid number means nothing. Short lease keeps
# the wait bounded.
./build/tools/vmcons_sweep_worker --mode selftest --workers 2 --kill-one \
  --lease-only --lease-ms 500

echo
echo "== tier-1: commit-point discipline (static check) =="
# Every rename in persistence code must be fs::commit_file's (write temp,
# fsync, rename, fsync dir), and persistence files must not write through
# unchecked ofstreams. Greps, so it fails in seconds, not in a postmortem.
./scripts/check_commit_points.sh

echo
echo "== tier-1: auto-vectorization check on the column kernels =="
./scripts/check_vectorize.sh

echo
echo "== tier-1: asan+ubsan build + concurrency tests =="
cmake --preset asan
cmake --build --preset asan -j
ctest --preset asan-concurrency -j --timeout "${CTEST_TIMEOUT}"

echo
echo "tier-1 PASSED"
