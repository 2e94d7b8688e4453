// Incremental, memoized Erlang-B kernel for parameter sweeps.
//
// The free functions in erlang.hpp restart the E_n(rho) recurrence from
// E_0 = 1 on every call, which is fine for one-off queries but wasteful on
// the planner's what-if grids: a sweep over target loss B at fixed workload
// evaluates the same rho at many staffing levels, and erlang_b_capacity
// bisects ~200 times at O(n) each. ErlangKernel removes both costs:
//
//  * per-rho prefix cache — the recurrence state E_0..E_k is kept per
//    distinct rho, so a query at n <= k is a lookup and a query at n > k
//    resumes the recursion at k instead of 0. erlang_b_servers(rho, B)
//    binary-searches the cached prefix (E_n is strictly decreasing in n)
//    before extending it, so sweeping B over a fixed workload costs one
//    recursion total, not one per point.
//  * Newton capacity inverse — erlang_b_capacity uses the closed-form
//    derivative dE/drho = E * (n/rho - 1 + E), converging in ~5-8
//    evaluations instead of ~200 bisection steps (a guarded bracket makes
//    it as robust as bisection).
//  * log-domain evaluation — log_erlang_b runs the recurrence on
//    log(1/E_n), which neither overflows nor underflows, for the
//    n >> rho regime where E_n itself drops below DBL_MIN.
//
// Concurrency model — two-tier, contention-free memoization:
//
//  * Snapshot tier. An immutable map rho -> prefix(E_0..E_k), published as
//    one atomically-swapped std::shared_ptr. Readers load the pointer and
//    binary-search/index the prefix with no lock; a query answered here
//    ("snapshot hit") involves zero synchronization beyond that one atomic
//    shared_ptr load.
//  * Arena tier. A query the snapshot cannot answer resumes the recurrence
//    in the calling thread's private extension arena: each worker owns a
//    per-rho {base prefix, private extension} pair and extends it without
//    seeing any other thread. The only lock an arena operation takes is the
//    arena's own (uncontended except while a merge reads it).
//  * Merge epochs. publish() folds the longest prefix per rho across every
//    arena into a fresh snapshot and swaps it in. Epochs end (a) when an
//    arena crosses a size watermark, (b) when a BatchEvaluator batch
//    completes, or (c) on an explicit publish() call. Because the
//    recurrence is deterministic with a fixed order of operations, a prefix
//    extended by any thread from any published base is bit-identical to
//    every other extension of the same rho — merging is a pure
//    longest-prefix union and never changes an answer.
//
// Results are bit-identical to the erlang.hpp free functions (same
// recurrence, same order of operations), so replacing one with the other —
// or changing the worker count — never perturbs a plan.
//
// clear() is safe to call concurrently with queries, but counters and
// cached prefixes touched by in-flight queries may survive it; call it
// quiescently when exact stats matter. clear() frees the calling thread's
// arena; other threads' orphaned arenas are retained until the kernel is
// destroyed. Each thread's map from kernel generation to arena drops the
// entries of destroyed or cleared kernels the next time that thread
// registers an arena, so it stays bounded by the live kernels it uses.
//
// Instrumentation: evaluations, recursion steps, cache hits, snapshot
// hits, arena extensions, and merges are reported both per-kernel
// (stats()) and to the process-wide metrics registry under the
// metrics::names::kErlang* canonical names.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/metrics.hpp"

namespace vmcons::queueing {

/// One E_n(rho) evaluation request for ErlangKernel::eval_many.
struct BlockingQuery {
  std::uint64_t servers = 0;
  double rho = 0.0;
};

/// One staffing (minimum-n) request for ErlangKernel::servers_for_many.
struct StaffingQuery {
  double rho = 0.0;
  double target_blocking = 0.0;
};

/// Block schedule of the multi-lane recurrence engine behind the batch
/// walks of ErlangKernel and ErlangWalk. A staffing (target-mode) lane runs
/// kLaneFirstBlock steps first and doubles its block each round up to
/// kLaneBlock, so a 30-server walk does not pay for a full block of
/// discarded steps; a count-mode lane runs exactly the steps it needs, in
/// blocks of at most kLaneBlock. Public for the block-boundary tests.
inline constexpr std::size_t kLaneFirstBlock = 16;
inline constexpr std::size_t kLaneBlock = 256;

class ErlangKernel {
 public:
  struct Stats {
    std::uint64_t evaluations = 0;  ///< public queries answered
    std::uint64_t cache_hits = 0;   ///< answered from snapshot or arena
    std::uint64_t steps = 0;        ///< recurrence steps actually executed
    std::uint64_t snapshot_hits = 0;      ///< hits served lock-free
    std::uint64_t arena_extensions = 0;   ///< private recurrence resumptions
    std::uint64_t merges = 0;             ///< snapshots published
    double hit_rate() const noexcept {
      return evaluations > 0
                 ? static_cast<double>(cache_hits) /
                       static_cast<double>(evaluations)
                 : 0.0;
    }
  };

  /// `max_states` caps the number of distinct rho values whose recursion
  /// prefixes are retained in a published snapshot (least-recently-merged
  /// eviction beyond it; arenas are bounded by the merge watermark).
  explicit ErlangKernel(std::size_t max_states = 64);
  ~ErlangKernel();

  ErlangKernel(const ErlangKernel&) = delete;
  ErlangKernel& operator=(const ErlangKernel&) = delete;

  /// Erlang-B blocking E_n(rho); identical contract and bit-identical
  /// results to queueing::erlang_b.
  double erlang_b(std::uint64_t servers, double rho);

  /// log E_n(rho), evaluated wholly in the log domain: finite and accurate
  /// even where E_n underflows double (large n - rho). rho = 0 with
  /// servers >= 1 returns -infinity.
  double log_erlang_b(std::uint64_t servers, double rho);

  /// Minimum n with E_n(rho) <= target_blocking; identical contract and
  /// results to queueing::erlang_b_servers.
  std::uint64_t erlang_b_servers(double rho, double target_blocking);

  /// Largest rho with E_n(rho) <= target_blocking. Same contract as
  /// queueing::erlang_b_capacity; agrees with it to the bisection's own
  /// tolerance (~1e-12 relative) while costing far fewer evaluations.
  double erlang_b_capacity(std::uint64_t servers, double target_blocking);

  /// Batched erlang_b: out[i] = E_{queries[i].servers}(queries[i].rho), each
  /// bit-identical to the scalar call. The span is sorted by (rho, servers)
  /// and walked against one snapshot load, so every per-rho recursion prefix
  /// is visited once and only ever extended — a monotone, lock-free walk.
  void eval_many(std::span<const BlockingQuery> queries,
                 std::span<double> out);

  /// Batched erlang_b_servers: out[i] = min n with E_n <= target, processed
  /// sorted by (rho, descending target) against one snapshot load; same
  /// monotone-walk guarantee and bit-identical per-query results.
  void servers_for_many(std::span<const StaffingQuery> queries,
                        std::span<std::uint64_t> out);

  /// Ends the current merge epoch: folds the longest prefix per rho across
  /// every thread's arena into a new snapshot and publishes it atomically.
  /// The calling thread's arena is drained; other arenas self-clean on
  /// their owner's next query. Answers are unaffected (merged prefixes are
  /// bit-identical to the arena values they replace).
  void publish();

  /// Counters since construction (or the last clear()).
  Stats stats() const;

  /// Drops all published and arena state and zeroes the per-kernel
  /// counters. See the header comment for concurrent-use caveats.
  void clear();

  /// Process-wide kernel used by the default sweep path.
  static ErlangKernel& shared();

  /// Entries in the calling thread's generation -> arena map: live kernel
  /// generations it has queried, plus stale ones awaiting its next
  /// registration. For leak tests.
  static std::size_t thread_arena_entries();

  /// Arenas this kernel holds: one per thread that queried the current
  /// generation, plus orphans of other threads from earlier ones. For leak
  /// tests.
  std::size_t arena_count() const;

 private:
  using Prefix = std::vector<double>;  ///< prefix[k] = E_k(rho); [0] = 1
  using PrefixPtr = std::shared_ptr<const Prefix>;

  struct SnapshotEntry {
    PrefixPtr prefix;
    std::uint64_t touched = 0;  ///< merge version that last grew this rho
  };
  /// Immutable once published; replaced wholesale by publish().
  struct Snapshot {
    std::unordered_map<std::uint64_t, SnapshotEntry> states;  // key: rho bits
    std::uint64_t version = 0;
    std::size_t doubles = 0;  ///< sum of prefix sizes, for the budget
  };
  using SnapshotPtr = std::shared_ptr<const Snapshot>;

  struct Arena;  // private to erlang_kernel.cpp
  /// A thread's handle on its arena for one kernel generation: the raw
  /// pointer serves the owner's lock-free lookups, the weak reference lets
  /// the thread prune entries whose kernel was destroyed or cleared.
  struct ArenaRef {
    Arena* arena = nullptr;
    std::weak_ptr<Arena> alive;
  };

  /// Per-walk counter deltas, flushed to the atomics once per public call
  /// instead of once per query.
  struct Tally {
    std::uint64_t evaluations = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t snapshot_hits = 0;
    std::uint64_t steps = 0;
    std::uint64_t arena_extensions = 0;
  };

  SnapshotPtr load_snapshot() const;
  /// The calling thread's arena for this kernel generation, registering it
  /// (under mutex_) on first use.
  Arena& local_arena();
  /// Registered arena or nullptr; never registers (safe under mutex_).
  Arena* registered_local_arena() const;
  static std::unordered_map<std::uint64_t, ArenaRef>& thread_arena_map();

  /// Single-query bodies shared by the scalar entry points and the sorted
  /// batch walks. Require rho > 0; lock only the local arena, on miss.
  double eval_one(const Snapshot& snapshot, std::uint64_t servers, double rho,
                  Tally& tally);
  std::uint64_t staff_one(const Snapshot& snapshot, double rho,
                          double target_blocking, Tally& tally);
  void flush(const Tally& tally);
  /// publish() iff the local arena crossed the merge watermark.
  void maybe_publish();

  std::atomic<SnapshotPtr> snapshot_;
  mutable std::mutex mutex_;  ///< arena registration, merges, clear()
  std::vector<std::shared_ptr<Arena>> arenas_;
  std::atomic<std::uint64_t> serial_;  ///< globally unique kernel generation
  std::size_t max_states_;

  std::atomic<std::uint64_t> evaluations_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> snapshot_hits_{0};
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> arena_extensions_{0};
  std::atomic<std::uint64_t> merges_{0};

  // Process-wide mirrors of the per-kernel counters.
  metrics::Counter& evaluations_metric_;
  metrics::Counter& cache_hits_metric_;
  metrics::Counter& steps_metric_;
  metrics::Counter& snapshot_hits_metric_;
  metrics::Counter& arena_extensions_metric_;
  metrics::Counter& merges_metric_;
};

/// Call-local Erlang-B walk: how the batch kernels answer their staged
/// queries when no ErlangKernel is set (UtilityAnalyticModel::solve() and
/// ConsolidationPlanner::plan() without a kernel, BatchOptions::memoize =
/// false). One walk lives for one staffing pass: servers_for_many walks
/// each distinct rho's recurrence, in lanes, to its answer, and a later
/// eval_many at the granted N resumes from there instead of restarting
/// from E_0. There is no snapshot, arena, lock, registry counter or
/// thread-local state; the erlang.hpp free functions stay the reference
/// every answer is bit-identical to.
///
/// Each rho keeps only its resume point, the farthest (n, E_n) walked, so
/// memory is one entry per distinct rho. A query behind the resume point
/// the call started from is walked again from E_0.
class ErlangWalk {
 public:
  /// Same contract, validation and results as
  /// ErlangKernel::servers_for_many; throws NumericError where
  /// queueing::erlang_b_servers would.
  void servers_for_many(std::span<const StaffingQuery> queries,
                        std::span<std::uint64_t> out);

  /// Same contract, validation and results as ErlangKernel::eval_many.
  void eval_many(std::span<const BlockingQuery> queries,
                 std::span<double> out);

 private:
  /// E_{index}(rho) = value, the farthest point of rho's recurrence walked.
  struct ResumePoint {
    std::uint64_t index = 0;
    double value = 1.0;
  };

  std::unordered_map<std::uint64_t, ResumePoint> resume_;  // key: rho bits
};

}  // namespace vmcons::queueing
