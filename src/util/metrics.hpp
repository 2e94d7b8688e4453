// Lightweight counter/timer registry for planner and simulator telemetry.
//
// The planner's value proposition is cheap offline what-if analysis, so the
// library instruments its own hot paths: Erlang evaluations, kernel cache
// hits, sweep wall-time, events executed. Counters are monotonic relaxed
// atomics (an increment is one uncontended atomic add); registration is
// mutex-guarded and names are stable for the registry's lifetime, so a
// Counter& obtained once can be bumped forever without further lookups.
//
// This is telemetry, not program state: values only ever accumulate, and no
// control flow depends on them, which is why a process-wide registry()
// instance is acceptable under the no-global-mutable-state rule.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace vmcons::metrics {

// Canonical names of the batch-evaluation and Erlang-kernel metrics, shared
// by the instrumented code, its tests, and anything parsing print_metrics
// output. Kept here (not in core/queueing) so a typo'd name is a compile
// error, not a silently separate counter.
namespace names {
inline constexpr const char* kBatchEvaluations = "batch.evaluations";
inline constexpr const char* kBatchScenarios = "batch.scenarios";
inline constexpr const char* kBatchShards = "batch.shards";
inline constexpr const char* kBatchKernelHits = "batch.kernel_hits";
inline constexpr const char* kBatchKernelMisses = "batch.kernel_misses";
inline constexpr const char* kBatchWall = "batch.wall";
/// Retired: timed the end-of-batch merge of the shared Erlang memo, which
/// no longer exists. Nothing feeds it; the name stays for readers that
/// still report it, and reads 0.
inline constexpr const char* kBatchLockWait = "batch.lock_wait";
/// Scenario cells isolated as CellFailures under FailurePolicy::kQuarantine.
inline constexpr const char* kBatchQuarantined = "batch.quarantined";
/// Batches aborted by a RunControl CancelToken before every cell was handled.
inline constexpr const char* kBatchCancelled = "batch.cancelled";
/// Batches aborted by an expired RunControl Deadline.
inline constexpr const char* kBatchDeadlineExceeded =
    "batch.deadline_exceeded";

/// Shards serialized into / deserialized out of a ScenarioStore file.
inline constexpr const char* kStoreShardsWritten = "store.shards_written";
inline constexpr const char* kStoreShardsRead = "store.shards_read";
/// Payload bytes written to / read from scenario stores (footers excluded).
inline constexpr const char* kStoreBytesWritten = "store.bytes_written";
inline constexpr const char* kStoreBytesRead = "store.bytes_read";
/// StreamingSweep shards skipped because a checkpoint manifest already
/// recorded them as complete, vs shards evaluated (and committed) this run.
inline constexpr const char* kSweepShardsResumed = "sweep.shards_resumed";
inline constexpr const char* kSweepShardsCompleted = "sweep.shards_completed";

/// ShardedSweepDriver: shards this worker claimed, evaluated, and committed.
inline constexpr const char* kDriverShardsEvaluated =
    "driver.shards_evaluated";
/// Claims taken over from a dead or lease-expired peer.
inline constexpr const char* kDriverLeasesReclaimed =
    "driver.leases_reclaimed";
/// Claim attempts that found the shard already held by a live peer.
inline constexpr const char* kDriverClaimConflicts = "driver.claim_conflicts";
/// Result files folded by the merger, and wall time spent merging.
inline constexpr const char* kDriverShardsMerged = "driver.shards_merged";
inline constexpr const char* kDriverMergeWall = "driver.merge_wall";

/// util::fs layer: fsync(2) calls issued (file + directory), durable
/// commit_file completions, bytes written through write_all, and transient
/// EIO attempts absorbed by the bounded retry loop.
inline constexpr const char* kFsFsyncs = "fs.fsyncs";
inline constexpr const char* kFsCommits = "fs.commits";
inline constexpr const char* kFsBytesWritten = "fs.bytes_written";
inline constexpr const char* kFsEioRetries = "fs.eio_retries";

inline constexpr const char* kErlangEvaluations = "erlang.evaluations";
inline constexpr const char* kErlangCacheHits = "erlang.cache_hits";
inline constexpr const char* kErlangSteps = "erlang.steps";
/// Retired with the shared Erlang memo's snapshot, arena and merge tiers:
/// nothing feeds these three, and they read 0. The names stay for readers
/// that still report them.
inline constexpr const char* kErlangSnapshotHits = "erlang.snapshot_hits";
inline constexpr const char* kErlangArenaExtensions =
    "erlang.arena_extensions";
inline constexpr const char* kErlangMerges = "erlang.merges";
}  // namespace names

/// Monotonic event counter. Thread-safe; increments are relaxed atomics.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Accumulates wall-clock time across (possibly concurrent) measured scopes.
class Timer {
 public:
  void add_nanos(std::uint64_t nanos) noexcept {
    nanos_.fetch_add(nanos, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t total_nanos() const noexcept {
    return nanos_.load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double total_millis() const noexcept {
    return static_cast<double>(total_nanos()) / 1e6;
  }
  void reset() noexcept {
    nanos_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> nanos_{0};
  std::atomic<std::uint64_t> count_{0};
};

/// RAII stopwatch: adds the elapsed wall time to a Timer on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Timer& timer) noexcept
      : timer_(timer), start_(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    timer_.add_nanos(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  }

 private:
  Timer& timer_;
  std::chrono::steady_clock::time_point start_;
};

/// Name-keyed registry of counters and timers. counter()/timer() return
/// references that stay valid for the registry's lifetime.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Timer& timer(const std::string& name);

  /// Snapshot of every metric as (name, value) rows, sorted by name.
  /// Timers render as two rows: `<name>.ms` and `<name>.calls`.
  struct Row {
    std::string name;
    double value = 0.0;
  };
  std::vector<Row> snapshot() const;

  /// Text dump, one `name = value` line per metric, sorted by name.
  void dump(std::ostream& out) const;

  /// Resets every counter and timer to zero (names stay registered).
  /// Intended for benches that measure phases; not for concurrent use with
  /// in-flight increments.
  void reset();

 private:
  mutable std::mutex mutex_;
  // node-based maps: references into the mapped values never invalidate.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Timer>> timers_;
};

/// The process-wide registry the library's own instrumentation reports to.
Registry& registry();

/// Machine-readable dump of a snapshot: a flat JSON object
/// `{"metrics": {"<name>": <value>, ...}}`, names sorted. This is the wire
/// format worker processes use to ship their counters to the sharded-sweep
/// merger (one file per worker), and the format parse_json reads back.
void to_json(std::ostream& out, const std::vector<Registry::Row>& rows);

/// registry()'s current snapshot as a JSON string (see to_json).
std::string to_json_string();

/// Parses the exact shape to_json emits back into rows. Throws IoError
/// naming the defect on anything else — a truncated or hand-edited worker
/// metrics file must fail the merge loudly, not sum garbage.
std::vector<Registry::Row> parse_json(const std::string& text);

}  // namespace vmcons::metrics
