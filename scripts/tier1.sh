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
# Both ctest calls name a job count: given a bare -j, ctest 3.25 runs the
# tests about one at a time (20.5 s against 8.0 s at -j4 on 4 cores).

echo "== tier-1: release build + full ctest =="
cmake --preset default
cmake --build --preset default -j
ctest --preset default -j"$(nproc)" --timeout "${CTEST_TIMEOUT}"

echo
echo "== tier-1: fault-injection suite under a pinned seed =="
# The run-control/fault/streaming suites read VMCONS_FAULT_SEED; pinning it
# here means a red fault run in CI replays bit-identically at a desk. The
# StreamingSweep suite includes the kill-and-resume smoke: a sweep killed by
# an injected shard fault resumes from its checkpoint manifest bit-identical
# to a clean run. FsFault*/CrashRecovery* is the filesystem half: torn
# manifest lines, ENOSPC mid-shard, and injected crashes at every op of the
# store-write/checkpoint/claim/commit/merge paths, each required to recover
# bit-identical to a clean 1-process streaming sweep. SweepLoadCoherent*
# draws batch.cell faults at sweep_all's evaluation positions.
VMCONS_FAULT_SEED=20090806 ./build/tests/vmcons_tests \
  --gtest_filter='RunControl*:FaultInject*:StreamingSweep*:ShardedSweep*:ClaimLedger*:ManifestLock*:FsFault*:CrashRecovery*:SweepLoadCoherent*'

echo
echo "== tier-1: micro_engine smoke (correctness only, ~1s) =="
# Tiny workload: the slot-map calendar still runs and allocates nothing in
# steady state. The speedup floor is disabled here; scripts/bench.sh gates
# it at full size. The batch, streaming and sharded paths are measured by
# vmbench (BENCHMARK.json), their identity and resume properties by the
# gtest suites above.
./build/bench/micro_engine --events 50000 --cancels 20000 --reps 2 \
  --fire-reps 2 --horizon 20 --min-speedup 0 --json /dev/null

echo
echo "== tier-1: vmbench selftest =="
# vmbench compiles against the library's public API (point_inputs,
# ScenarioBatch::append, write_sweep_store, ...), so an API break must fail
# here, not first in a benchmark run. Builds into the git-ignored
# .bench_build/ and writes nothing under vmbench/.
python3 vmbench/run.py --selftest

echo
echo "== tier-1: multi-process kill-and-reclaim drill =="
# A first worker process runs alone over a small store and is killed
# mid-shard (_exit as its second claim lands, the kill -9 window, with its
# first shard's commit possibly still in flight; the drill fails unless it
# exits 137). Two worker processes started after that death must reclaim
# the dead pid's leases (the drill fails unless their WorkerReports count at
# least one reclaim), and the merged result must be bit-identical to a
# 1-process StreamingSweep. Exercises the whole claim-ledger protocol with
# real processes, not threads.
./build/tools/vmcons_sweep_worker --mode selftest --workers 2 --kill-one
# Same drill under lease-only staleness: the dead-pid probe is disabled, so
# the workers started after the kill may reclaim its shard only by
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
ctest --preset asan-concurrency -j"$(nproc)" --timeout "${CTEST_TIMEOUT}"
# parallel_for's caller and helpers share one chunk cursor and the caller
# joins every helper before returning; repeating the pool suites in shuffled
# order under the sanitizers shakes out races in that claim and join.
./build-asan/tests/vmcons_tests \
  --gtest_filter='ParallelFor*:ParallelMap*:ThreadPool*:RunControl.ParallelFor*' \
  --gtest_repeat=50 --gtest_shuffle
# sweep_all builds, evaluates and assembles each shard inside its chunk, so
# shards write disjoint cells of one outcome concurrently; the sweep suites
# (Sweep* includes SweepLoadCoherent*) repeat under the sanitizers too,
# ~11 s on 4 cores.
./build-asan/tests/vmcons_tests --gtest_filter='Sweep*' \
  --gtest_repeat=50 --gtest_shuffle
# solve() keeps a per-thread staging batch that it clears and refills; the
# BatchModel suite (concurrent solves, a solve after a throwing one)
# repeats shuffled under the sanitizers so state that leaks between calls
# or threads shows up.
./build-asan/tests/vmcons_tests --gtest_filter='BatchModel*' \
  --gtest_repeat=20 --gtest_shuffle

echo
echo "tier-1 PASSED"
