// Batched Erlang-B walks for parameter sweeps.
//
// The free functions in erlang.hpp restart the E_n(rho) recurrence from
// E_0 = 1 on every call, which is fine for one-off queries but wasteful on
// the planner's what-if grids: a staffing pass asks for thousands of
// (rho, B) answers that share few distinct loads, and erlang_b_capacity
// bisects ~200 times at O(n) each. This header removes both costs:
//
//  * ErlangWalk — the batch path. One walk lives for one staffing pass
//    (a core::batch_kernels staff_* call). Each call groups its span by
//    offered load and advances each distinct load's recurrence once, in
//    lanes (kRecurrenceLanes independent chains in lockstep), to the
//    tightest target or deepest n the span asks of it. A load asked at
//    more than one point keeps its values E_0..E_k for the walk's lifetime
//    and answers every query from them; a load asked at one point keeps
//    only its resume point.
//  * Newton capacity inverse — ErlangKernel::erlang_b_capacity uses the
//    closed-form derivative dE/drho = E * (n/rho - 1 + E), converging in
//    ~5-8 evaluations instead of ~200 bisection steps (a guarded bracket
//    makes it as robust as bisection).
//  * log-domain evaluation — log_erlang_b runs the recurrence on
//    log(1/E_n), which neither overflows nor underflows, for the
//    n >> rho regime where E_n itself drops below DBL_MIN.
//
// Results are bit-identical to the erlang.hpp free functions (same
// recurrence, same order of operations), so replacing one with the other —
// or changing the worker count — never perturbs a plan.
//
// Concurrency: nothing is shared. A walk belongs to the one thread that
// runs its staffing pass, so pool workers never lock or wait on each
// other. ErlangKernel holds no recurrence state at all, only relaxed
// atomic counters: every entry point answers through a walk of its own,
// and any number of threads may use one kernel at once.
//
// Instrumentation: evaluations, recurrence steps and cache hits (answers a
// call gives without a step: read from values or a resume point an earlier
// call of the walk left, or E_0 itself) are reported per kernel (stats())
// and to the process-wide metrics registry under the
// metrics::names::kErlang* canonical names.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

namespace vmcons::queueing {

/// One E_n(rho) evaluation request for ErlangWalk::eval_many.
struct BlockingQuery {
  std::uint64_t servers = 0;
  double rho = 0.0;
};

/// One staffing (minimum-n) request for ErlangWalk::servers_for_many.
struct StaffingQuery {
  double rho = 0.0;
  double target_blocking = 0.0;
};

/// Block schedule of the multi-lane recurrence engine behind ErlangWalk. A
/// staffing (target-mode) lane runs kLaneFirstBlock steps first and doubles
/// its block each round up to kLaneBlock, so a 30-server walk does not pay
/// for a full block of discarded steps; a count-mode lane runs exactly the
/// steps it needs, in blocks of at most kLaneBlock. Public for the
/// block-boundary tests.
inline constexpr std::size_t kLaneFirstBlock = 16;
inline constexpr std::size_t kLaneBlock = 256;

/// Work counted by an ErlangWalk, flushed to counters by its owner.
struct ErlangTally {
  std::uint64_t evaluations = 0;  ///< queries with rho > 0 answered
  std::uint64_t cache_hits = 0;   ///< answered without a step in their call
  std::uint64_t steps = 0;        ///< recurrence steps executed

  /// Adds these counts to the registry's kErlang* counters.
  void report() const;
};

/// Call-local Erlang-B walk: how the batch kernels answer their staged
/// queries. One walk lives for one staffing pass — servers_for_many, then
/// eval_many at the granted M or N, for one staffing kernel or (in
/// solve()) for both — and is touched by one thread only; there
/// is no lock, registry counter or thread-local state. The erlang.hpp free
/// functions stay the reference every answer is bit-identical to.
///
/// Each call groups its span by the bits of the offered load (-0.0 and
/// +0.0 both answer as rho = 0) and plans one lane task per load, which
/// stops at the tightest target or the deepest n the span asks of it:
///  * A load asked at more than one point (distinct targets or depths)
///    keeps its values E_0..E_k, appended by the lane engine, and answers
///    every query from them: staffing by binary search, blocking by index.
///    Once kept, the values are extended by later calls, never dropped.
///  * A load asked at one point keeps only its resume point, the farthest
///    (n, E_n) walked, so single-point spans (plan() and solve() stage
///    mostly these) keep one entry per load and no value vector.
///  * A query behind a bare resume point is walked again from E_0.
///  * Loads too deep to keep (a convergence guard or depth near the
///    2^21-value cap, so ~2e6 erlangs) asked at more than one point
///    answer through the free functions instead.
///
/// Loads live in one flat open-addressing table over the rho bits, which a
/// call grows at most once, before it plans, to fit the loads its span
/// adds. A span of up to 16 queries groups and plans in inline storage, so
/// solve()'s walk allocates its table once and nothing else.
class ErlangWalk {
 public:
  /// out[i] = min n with E_n(queries[i].rho) <= queries[i].target_blocking.
  /// Same contract and validation as queueing::erlang_b_servers, which it
  /// is bit-identical to; throws NumericError where that would.
  void servers_for_many(std::span<const StaffingQuery> queries,
                        std::span<std::uint64_t> out);

  /// out[i] = E_{queries[i].servers}(queries[i].rho), bit-identical to
  /// queueing::erlang_b.
  void eval_many(std::span<const BlockingQuery> queries,
                 std::span<double> out);

  /// Counts since construction.
  const ErlangTally& tally() const noexcept { return tally_; }

  /// Loads whose values this walk keeps. For tests.
  std::size_t kept_loads() const noexcept;

 private:
  /// One offered load's recurrence: the farthest point walked, plus its
  /// values once the load has been asked at more than one point.
  struct Load {
    std::uint64_t key = 0;    ///< rho bits; 0 (+0.0, never kept) = empty slot
    std::uint64_t index = 0;  ///< E_{index}(rho) = value, the farthest walked
    double value = 1.0;
    std::vector<double> values;  ///< E_0..E_k when kept; k <= index
  };

  /// Grows the table, if it must, so that every key of `keys` it lacks can
  /// be inserted without growing it again: one allocation per call at most,
  /// and none once the walk holds a call's loads. References from load_of
  /// stay valid until the next reserve_loads.
  void reserve_loads(std::span<const std::uint64_t> keys);
  /// The load of `key` (not 0), inserted if absent; never grows the table.
  Load& load_of(std::uint64_t key);
  /// The load of `key`, or nullptr.
  const Load* find(std::uint64_t key) const;

  /// Open addressing over the rho bits with linear probing, at most half
  /// full, so a probe ends at an empty slot.
  std::vector<Load> loads_;
  std::size_t occupied_ = 0;
  ErlangTally tally_;
};

/// The scalar entry points under one counter set. Every query answers
/// through an ErlangWalk of its own, so the kernel keeps no recurrence
/// state between calls; its answers are bit-identical to the free
/// functions. Spans go to an ErlangWalk directly. BatchOptions::kernel and
/// the batch_kernels::staff_* parameter use a kernel as a counter sink:
/// each staffing pass adds its walk's tally here through record().
class ErlangKernel {
 public:
  struct Stats {
    std::uint64_t evaluations = 0;  ///< public queries answered
    std::uint64_t cache_hits = 0;   ///< answered without a step in their call
    std::uint64_t steps = 0;        ///< recurrence steps actually executed
    /// Always 0: kept so existing readers of Stats still compile.
    std::uint64_t snapshot_hits = 0;
    std::uint64_t arena_extensions = 0;  ///< always 0, as snapshot_hits
    std::uint64_t merges = 0;            ///< always 0, as snapshot_hits
    double hit_rate() const noexcept {
      return evaluations > 0
                 ? static_cast<double>(cache_hits) /
                       static_cast<double>(evaluations)
                 : 0.0;
    }
  };

  ErlangKernel() = default;
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

  /// Adds `tally` to this kernel's counters and to the registry's.
  void record(const ErlangTally& tally);

  /// Counters since construction (or the last clear()).
  Stats stats() const;

  /// Zeroes the counters.
  void clear();

 private:
  std::atomic<std::uint64_t> evaluations_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> steps_{0};
};

}  // namespace vmcons::queueing
