// Batch evaluation of the utility analytic model over columnar scenarios.
//
// The Fig. 4 staffing algorithm, the Eq. 8-11 utilization derivation, and
// the Eq. 12-14 power derivation are implemented as four stateless,
// span-based kernels over a ScenarioBatch. Each kernel stages its Erlang-B
// work: it first gathers every query in its scenario range into one flat
// list, answers them through the kernel's batched entry points (which sort
// by offered load so the memoized recursion prefixes are walked
// monotonically), then scatters the answers back into ModelResults. The
// scalar UtilityAnalyticModel::solve() runs the same four kernels on a
// batch of one, so batch and scalar results are bit-identical by
// construction — there is exactly one implementation of the math.
//
// BatchEvaluator shards a batch over a thread pool (each shard is a
// contiguous scenario range, so output is independent of the worker count).
// Each shard stages and sorts its own query spans and walks them against
// the kernel's lock-free snapshot tier plus its worker's private extension
// arena — no cross-shard lock. Batch completion is a merge-epoch boundary:
// the evaluator calls ErlangKernel::publish() so the next batch starts with
// every prefix in the snapshot tier. batch.* metrics report evaluations,
// scenarios, shards, kernel cache hits/misses attributable to the batch,
// and the end-of-batch merge cost (batch.lock_wait).
// Fault tolerance (see util/run_control.hpp): BatchOptions carries a
// RunControl and a FailurePolicy. Under kQuarantine a throwing scenario is
// isolated — the shard that contained it falls back to cell-at-a-time
// evaluation (each cell is a batch of one, so healthy cells stay
// bit-identical to a clean run), and the failure is recorded as a
// structured CellFailure instead of aborting the batch. Cancellation and
// deadlines are checked between shards (and between parallel_for chunks),
// so abort latency is bounded by one shard's work.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/scenario_batch.hpp"
#include "util/run_control.hpp"

namespace vmcons {
class ThreadPool;
namespace queueing {
class ErlangKernel;
}  // namespace queueing
}  // namespace vmcons

namespace vmcons::core {

/// What a BatchEvaluator does with a scenario whose evaluation throws.
enum class FailurePolicy {
  /// Propagate the first failure as an exception (the pre-quarantine
  /// behavior). Right for interactive plans, where one scenario is the
  /// whole job and a wrong input should be loud.
  kFailFast,
  /// Record the failure as a CellFailure, keep every other cell. Right for
  /// large sweeps, where one degenerate corner must not destroy a
  /// multi-million-cell run.
  kQuarantine,
};

/// One scenario that failed under FailurePolicy::kQuarantine.
struct CellFailure {
  std::size_t scenario_index = 0;
  ErrorCode code = ErrorCode::kUnknown;
  std::string message;
};

/// Everything a fault-tolerant batch evaluation produced. `results[i]` is
/// meaningful iff `evaluated[i]`; failed cells keep a default ModelResult
/// and appear in `failures` (sorted by scenario index); cells that were
/// never reached because of a stop are neither evaluated nor failed.
struct BatchOutcome {
  std::vector<ModelResult> results;
  std::vector<CellFailure> failures;
  std::vector<std::uint8_t> evaluated;  ///< 1 per successfully solved cell
  bool cancelled = false;               ///< aborted by the CancelToken
  bool deadline_exceeded = false;       ///< aborted by the Deadline

  std::size_t evaluated_count() const noexcept {
    std::size_t n = 0;
    for (const std::uint8_t e : evaluated) {
      n += e;
    }
    return n;
  }
  /// Every cell solved: no failures, no abort.
  bool complete() const noexcept {
    return failures.empty() && !cancelled && !deadline_exceeded;
  }
};

/// Execution knobs for BatchEvaluator.
struct BatchOptions {
  /// Fan shards out over a thread pool (results stay in scenario order and
  /// bit-identical to a serial run).
  bool parallel = true;
  /// Route Erlang-B evaluations through a memoized incremental kernel;
  /// false answers each staffing pass with a call-local ErlangWalk.
  bool memoize = true;
  /// Kernel override (implies memoize); nullptr uses the process-wide
  /// ErlangKernel::shared() when memoize is set.
  queueing::ErlangKernel* kernel = nullptr;
  /// Scenarios per shard; 0 auto-sizes to ~4 shards per active worker.
  std::size_t shard_size = 0;
  /// Minimum scenarios each worker must be able to claim before the batch
  /// fans out over the pool at all. Tiny batches pay more in pool dispatch
  /// and per-shard staging than the parallelism returns (the 1-core bench
  /// showed 8 injected workers at 0.6x of 1), so below the threshold the
  /// batch runs serially on the calling thread and the shard auto-size
  /// targets only the workers that can earn their keep. 0 disables the
  /// threshold. Results are bit-identical either way — sharding never
  /// changes answers, only who computes them.
  std::size_t min_scenarios_per_worker = 32;
  /// Pool to shard over; nullptr uses ThreadPool::shared(). Benches inject
  /// fixed-size pools here to measure thread scaling reproducibly.
  ThreadPool* pool = nullptr;
  /// Failure handling; see FailurePolicy.
  FailurePolicy policy = FailurePolicy::kFailFast;
  /// Cooperative cancellation + deadline; the embedded token shares state
  /// with the caller's copy, so the caller can abort a running batch.
  RunControl control;
};

/// Evaluates whole ScenarioBatches; the batch-first face of the model.
class BatchEvaluator {
 public:
  explicit BatchEvaluator(BatchOptions options = {}) : options_(options) {}

  /// One ModelResult per scenario, in scenario order. Bit-identical to
  /// calling UtilityAnalyticModel::solve() per scenario. Throws
  /// CancelledError / DeadlineExceededError if the RunControl aborted the
  /// batch; under kFailFast the first cell failure propagates, under
  /// kQuarantine failed cells silently keep default results (use
  /// evaluate_all when the failure report matters).
  std::vector<ModelResult> evaluate(const ScenarioBatch& batch) const;

  /// The fault-tolerant face: never throws for per-cell failures or stops;
  /// everything is reported in the BatchOutcome. Under kFailFast a cell
  /// failure still propagates as an exception.
  BatchOutcome evaluate_all(const ScenarioBatch& batch) const;

  const BatchOptions& options() const { return options_; }

 private:
  BatchOptions options_;
};

// --- The stateless span kernels shared by the scalar and batch paths -----
// Each runs one stage of the model for scenarios [begin, end) of `batch`,
// writing into results[s - begin]. `kernel` may be nullptr (a call-local
// queueing::ErlangWalk per staffing kernel call). Call order per scenario
// range: staff_dedicated, staff_consolidated, staff_fleet, derive_utility,
// derive_power.
namespace batch_kernels {

/// Fig. 4 per-service staffing: per-resource Erlang-B sizing, max over
/// resources, sum over services (M), plus per-service blocking at the
/// granted staffing.
void staff_dedicated(const ScenarioBatch& batch, std::size_t begin,
                     std::size_t end, queueing::ErlangKernel* kernel,
                     std::span<ModelResult> results);

/// Merged-stream staffing (Eq. 4-5): per-resource effective service rate,
/// Erlang-B sizing, max over resources (N), and the worst-resource blocking
/// at N.
void staff_consolidated(const ScenarioBatch& batch, std::size_t begin,
                        std::size_t end, queueing::ErlangKernel* kernel,
                        std::span<ModelResult> results);

/// Heterogeneous fleet allocation: maps the reference-unit answers M and N
/// (written by the two staffing kernels) onto per-class physical counts for
/// every scenario in the range that carries fleet-class rows. Classes are
/// filled fastest first (greedy on ServerClass::speed()), which yields the
/// minimal physical count and keeps totals monotone when a class is added;
/// ties break on reference-equivalents per peak watt, then name, then
/// declaration order, so the plan is deterministic. Scenarios without a
/// fleet are untouched (their FleetPlan stays unplanned).
void staff_fleet(const ScenarioBatch& batch, std::size_t begin,
                 std::size_t end, std::span<ModelResult> results);

/// Eq. 8-11: offered bottleneck work per server for both deployments.
void derive_utility(const ScenarioBatch& batch, std::size_t begin,
                    std::size_t end, std::span<ModelResult> results);

/// Eq. 12-14: linear power model applied over the shard's utilization span,
/// plus the power/infrastructure saving ratios.
void derive_power(const ScenarioBatch& batch, std::size_t begin,
                  std::size_t end, std::span<ModelResult> results);

}  // namespace batch_kernels

}  // namespace vmcons::core
