#include "core/batch_eval.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <vector>

#include "queueing/erlang_kernel.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"
#include "util/metrics.hpp"
#include "util/parallel_for.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace vmcons::core {
namespace {

// Inline capacities of the kernels' util::Scratch arrays, each sized once
// from counts the range already holds. A batch of one — solve() — of up to
// kInlineRows services and kInlineClasses fleet classes stages every array
// inline and allocates only what its ModelResult owns; a larger range
// allocates each array once.
constexpr std::size_t kInlineRows = 4;
constexpr std::size_t kInlineClasses = 8;
// Staffing or blocking queries of one such scenario: one per demanded
// (service, resource) pair, plus one per merged resource.
constexpr std::size_t kInlineQueries = (kInlineRows + 1) * dc::kResourceCount;

using StaffingList = util::Scratch<queueing::StaffingQuery, kInlineQueries>;
using BlockingList = util::Scratch<queueing::BlockingQuery, kInlineQueries>;

/// Answers the staged query lists of one staff_* call through one
/// ErlangWalk that lives as long as the dispatch, so each rho's blocking
/// query resumes its staffing walk, and a rho asked at several targets or
/// depths answers them all from one walk. Per-query results are
/// bit-identical to the queueing::erlang_b* free functions. On destruction the walk's tally goes
/// to the erlang.* and batch.kernel_* counters, and to `kernel` if set.
///
/// Fault-injection sites erlang.eval / staffing.inverse fire here, one draw
/// per staged query, with the index derived from the query's own bit
/// pattern — so an armed fault poisons the same (rho, target) no matter
/// which shard or thread answers it.
struct ErlangDispatch {
  explicit ErlangDispatch(queueing::ErlangKernel* sink) : kernel(sink) {}
  ErlangDispatch(const ErlangDispatch&) = delete;
  ErlangDispatch& operator=(const ErlangDispatch&) = delete;

  ~ErlangDispatch() {
    const queueing::ErlangTally& tally = walk.tally();
    if (kernel != nullptr) {
      kernel->record(tally);
    } else {
      tally.report();
    }
    static metrics::Counter& hits =
        metrics::registry().counter(metrics::names::kBatchKernelHits);
    static metrics::Counter& misses =
        metrics::registry().counter(metrics::names::kBatchKernelMisses);
    hits.add(tally.cache_hits);
    misses.add(tally.evaluations - tally.cache_hits);
  }

  queueing::ErlangKernel* kernel = nullptr;
  queueing::ErlangWalk walk;

  void servers_for_many(std::span<const queueing::StaffingQuery> queries,
                        std::span<std::uint64_t> out) {
    if (queries.empty()) {
      return;
    }
    if (util::FaultInjector::enabled()) {
      const util::FaultInjector& injector = util::FaultInjector::global();
      for (const queueing::StaffingQuery& query : queries) {
        injector.check(util::fault_sites::kStaffingInverse,
                       util::fault_index(query.rho, query.target_blocking));
      }
    }
    walk.servers_for_many(queries, out);
  }

  void eval_many(std::span<const queueing::BlockingQuery> queries,
                 std::span<double> out) {
    if (queries.empty()) {
      return;
    }
    if (util::FaultInjector::enabled()) {
      const util::FaultInjector& injector = util::FaultInjector::global();
      for (const queueing::BlockingQuery& query : queries) {
        injector.check(util::fault_sites::kErlangEval,
                       util::fault_index(query.rho, 0.0, query.servers));
      }
    }
    walk.eval_many(queries, out);
  }
};

/// Dedicated staffing (Fig. 4 per service) split at its two Erlang calls:
/// stage_staffing appends the staffing queries, grant reads their answers,
/// writes M and appends the blocking queries at each service's staffing,
/// and write_blocking reads those answers. Each stage reads back exactly
/// the answers its predecessor staged, from the offset it recorded, so the
/// stages run unchanged whether the query lists hold this kernel's queries
/// alone or another kernel's as well.
class DedicatedStaffing {
 public:
  DedicatedStaffing(const ScenarioBatch& batch, std::size_t begin,
                    std::size_t end, std::span<ModelResult> results)
      : batch_(batch),
        begin_(begin),
        end_(end),
        results_(results),
        row0_(batch.services_begin(begin)),
        rows_(batch.services_end(end - 1) - row0_),
        rho_cols_(dc::kResourceCount * rows_) {
    rho_cols_.resize(dc::kResourceCount * rows_);
    // Per-resource offered-load columns over the range's contiguous row
    // range. The divisions are hoisted out of the per-scenario query loop
    // into one branch-free stream per resource: divide by a safe stand-in,
    // then blend, so undemanded rows (mu <= 0) come out exactly 0.0 without
    // a branch in the loop body. Demanded rows perform the very same
    // arrival/mu division the fused loop did, hence bit-identical.
    const auto arrival = batch.arrival_rate();
    for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
      const double* __restrict__ arr = arrival.data() + row0_;
      const double* __restrict__ mu_col =
          batch.native_rate(static_cast<dc::Resource>(r)).data() + row0_;
      double* __restrict__ rho = rho_cols_.data() + r * rows_;
      // Two passes on purpose: fusing the safe-divide with the mask gives
      // the compiler two selects on one predicate, which it re-branches
      // around the divide instead of if-converting ("control flow in
      // loop"). Split, each loop is a single blend stream and both
      // vectorize.
      for (std::size_t i = 0; i < rows_; ++i) {
        rho[i] = arr[i] / (mu_col[i] > 0.0 ? mu_col[i] : 1.0);
      }
      for (std::size_t i = 0; i < rows_; ++i) {
        rho[i] = mu_col[i] > 0.0 ? rho[i] : 0.0;
      }
    }
  }

  /// Most staffing queries the range stages, and as many blocking queries:
  /// one per demanded (service, resource) pair.
  std::size_t query_bound() const { return dc::kResourceCount * rows_; }

  /// Every staffing query of the range, in deterministic (scenario,
  /// service, resource) order.
  void stage_staffing(StaffingList& staffing) {
    staffing_first_ = staffing.size();
    for (std::size_t s = begin_; s < end_; ++s) {
      const double b = batch_.target_loss(s);
      for (std::size_t row = batch_.services_begin(s);
           row < batch_.services_end(s); ++row) {
        for (const dc::Resource resource : dc::all_resources()) {
          if (batch_.native_rate(resource)[row] > 0.0) {
            staffing.push_back({rho_of(resource, row), b});
          }
        }
      }
    }
  }

  /// Consumes the answers in staging order, building the per-service plans
  /// (servers = max over resources, M = sum over services), and stages the
  /// blocking queries at each granted staffing.
  void grant(std::span<const std::uint64_t> staffed, BlockingList& blocking) {
    blocking_first_ = blocking.size();
    std::size_t cursor = staffing_first_;
    for (std::size_t s = begin_; s < end_; ++s) {
      ModelResult& result = results_[s - begin_];
      result.dedicated.reserve(batch_.services_end(s) -
                               batch_.services_begin(s));
      for (std::size_t row = batch_.services_begin(s);
           row < batch_.services_end(s); ++row) {
        ServicePlan plan;
        plan.name = batch_.service_name(row);
        for (const dc::Resource resource : dc::all_resources()) {
          const double rho = rho_of(resource, row);
          plan.offered_load[resource] = rho;
          const std::uint64_t n = rho > 0.0 ? staffed[cursor++] : 0;
          plan.servers_per_resource[static_cast<std::size_t>(resource)] = n;
          plan.servers = std::max(plan.servers, n);
        }
        for (const dc::Resource resource : dc::all_resources()) {
          if (plan.offered_load[resource] > 0.0) {
            blocking.push_back({plan.servers, plan.offered_load[resource]});
          }
        }
        result.dedicated_servers += plan.servers;
        result.dedicated.push_back(std::move(plan));
      }
    }
  }

  /// Per-service blocking is the worst demanded resource.
  void write_blocking(std::span<const double> blocked) {
    std::size_t cursor = blocking_first_;
    for (std::size_t s = begin_; s < end_; ++s) {
      for (ServicePlan& plan : results_[s - begin_].dedicated) {
        double worst = 0.0;
        for (const dc::Resource resource : dc::all_resources()) {
          if (plan.offered_load[resource] > 0.0) {
            worst = std::max(worst, blocked[cursor++]);
          }
        }
        plan.blocking = worst;
      }
    }
  }

 private:
  double rho_of(dc::Resource resource, std::size_t row) const {
    return rho_cols_[static_cast<std::size_t>(resource) * rows_ +
                     (row - row0_)];
  }

  const ScenarioBatch& batch_;
  std::size_t begin_;
  std::size_t end_;
  std::span<ModelResult> results_;
  std::size_t row0_;
  std::size_t rows_;
  util::Scratch<double, dc::kResourceCount * kInlineRows> rho_cols_;
  std::size_t staffing_first_ = 0;
  std::size_t blocking_first_ = 0;
};

/// Merged-stream staffing (Eq. 4-5) in the same three stages as
/// DedicatedStaffing.
class ConsolidatedStaffing {
 public:
  ConsolidatedStaffing(const ScenarioBatch& batch, std::size_t begin,
                       std::size_t end, std::span<ModelResult> results)
      : batch_(batch),
        begin_(begin),
        end_(end),
        results_(results),
        row0_(batch.services_begin(begin)),
        rows_(batch.services_end(end - 1) - row0_),
        merge_cols_(2 * dc::kResourceCount * rows_) {
    merge_cols_.resize(2 * dc::kResourceCount * rows_);
    // Masked per-row merge terms of Eq. 4/5 as contiguous columns, the
    // columnar twin of UtilityAnalyticModel::consolidated_offered_load.
    // Undemanded rows (mu <= 0) contribute exact +0.0; arrival rates and
    // weighted capacities are non-negative, so x + 0.0 is a bit-level
    // identity on every partial sum and accumulating the masked columns in
    // row order is bit-identical to the fused loop that skipped those rows.
    const auto arrival = batch.arrival_rate();
    for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
      const dc::Resource resource = static_cast<dc::Resource>(r);
      const double* __restrict__ arr = arrival.data() + row0_;
      const double* __restrict__ mu_col =
          batch.native_rate(resource).data() + row0_;
      const double* __restrict__ imp = batch.impact(resource).data() + row0_;
      double* __restrict__ lam = merge_cols_.data() + (2 * r) * rows_;
      double* __restrict__ wcap = merge_cols_.data() + (2 * r + 1) * rows_;
      for (std::size_t i = 0; i < rows_; ++i) {
        const double mu = mu_col[i];
        lam[i] = mu > 0.0 ? arr[i] : 0.0;
        // sum_i lambda_i * mu_ij * a_ij, same operand order as the fused loop
        wcap[i] = mu > 0.0 ? arr[i] * mu * imp[i] : 0.0;
      }
    }
  }

  /// Most staffing queries the range stages, and as many blocking queries:
  /// one per demanded (scenario, resource) pair.
  std::size_t query_bound() const {
    return dc::kResourceCount * (end_ - begin_);
  }

  /// Merged offered loads per (scenario, resource) — forward sums of the
  /// staged columns — and the staffing queries for every demanded resource.
  void stage_staffing(StaffingList& staffing) {
    staffing_first_ = staffing.size();
    for (std::size_t s = begin_; s < end_; ++s) {
      ModelResult& result = results_[s - begin_];
      const double b = batch_.target_loss(s);
      for (const dc::Resource resource : dc::all_resources()) {
        const std::size_t r = static_cast<std::size_t>(resource);
        auto& plan = result.consolidated[r];
        plan.resource = resource;
        const double* __restrict__ lam = merge_cols_.data() + (2 * r) * rows_;
        const double* __restrict__ wcap =
            merge_cols_.data() + (2 * r + 1) * rows_;
        double merged_lambda = 0.0;
        double weighted_capacity = 0.0;
        for (std::size_t row = batch_.services_begin(s);
             row < batch_.services_end(s); ++row) {
          merged_lambda += lam[row - row0_];
          weighted_capacity += wcap[row - row0_];
        }
        // rho' = lambda / mu' with mu' = weighted_capacity / lambda (Eq. 4).
        plan.offered_load =
            merged_lambda <= 0.0
                ? 0.0
                : merged_lambda * merged_lambda / weighted_capacity;
        plan.merged_arrival_rate = merged_lambda;
        plan.demanded = plan.offered_load > 0.0;
        if (plan.demanded) {
          plan.effective_service_rate = merged_lambda / plan.offered_load;
          staffing.push_back({plan.offered_load, b});
        }
      }
    }
  }

  /// N = max over resources; stages the blocking queries at N.
  void grant(std::span<const std::uint64_t> staffed, BlockingList& blocking) {
    blocking_first_ = blocking.size();
    std::size_t cursor = staffing_first_;
    for (std::size_t s = begin_; s < end_; ++s) {
      ModelResult& result = results_[s - begin_];
      for (const dc::Resource resource : dc::all_resources()) {
        auto& plan = result.consolidated[static_cast<std::size_t>(resource)];
        if (plan.demanded) {
          plan.servers = staffed[cursor++];
          result.consolidated_servers =
              std::max(result.consolidated_servers, plan.servers);
        }
      }
      for (const dc::Resource resource : dc::all_resources()) {
        const auto& plan =
            result.consolidated[static_cast<std::size_t>(resource)];
        if (plan.demanded) {
          blocking.push_back({result.consolidated_servers, plan.offered_load});
        }
      }
    }
  }

  /// Consolidated blocking is the worst demanded resource at N.
  void write_blocking(std::span<const double> blocked) {
    std::size_t cursor = blocking_first_;
    for (std::size_t s = begin_; s < end_; ++s) {
      ModelResult& result = results_[s - begin_];
      double worst = 0.0;
      for (const dc::Resource resource : dc::all_resources()) {
        if (result.consolidated[static_cast<std::size_t>(resource)].demanded) {
          worst = std::max(worst, blocked[cursor++]);
        }
      }
      result.consolidated_blocking = worst;
    }
  }

 private:
  const ScenarioBatch& batch_;
  std::size_t begin_;
  std::size_t end_;
  std::span<ModelResult> results_;
  std::size_t row0_;
  std::size_t rows_;
  util::Scratch<double, 2 * dc::kResourceCount * kInlineRows> merge_cols_;
  std::size_t staffing_first_ = 0;
  std::size_t blocking_first_ = 0;
};

/// Runs the staffing kernels' three stages interleaved on one walk: every
/// kernel's staffing queries in one servers_for_many, then every kernel's
/// blocking queries in one eval_many. The folds run left to right, so the
/// query lists hold the kernels' queries in argument order. Every answer
/// depends only on its own load's recurrence, so the results are
/// bit-identical to one walk per kernel. The query and answer lists are
/// sized once, from the kernels' query bounds.
template <typename... Staffing>
void staff_on_one_walk(queueing::ErlangKernel* kernel,
                       Staffing&... staffing_kernels) {
  const std::size_t bound = (staffing_kernels.query_bound() + ...);
  ErlangDispatch erlang(kernel);
  StaffingList staffing(bound);
  (staffing_kernels.stage_staffing(staffing), ...);
  util::Scratch<std::uint64_t, kInlineQueries> staffed(bound);
  staffed.resize(staffing.size());
  erlang.servers_for_many(staffing, staffed);

  BlockingList blocking(bound);
  (staffing_kernels.grant(staffed, blocking), ...);
  util::Scratch<double, kInlineQueries> blocked(bound);
  blocked.resize(blocking.size());
  erlang.eval_many(blocking, blocked);
  (staffing_kernels.write_blocking(blocked), ...);
}

}  // namespace

namespace batch_kernels {

void staff_dedicated(const ScenarioBatch& batch, std::size_t begin,
                     std::size_t end, queueing::ErlangKernel* kernel,
                     std::span<ModelResult> results) {
  DedicatedStaffing dedicated(batch, begin, end, results);
  staff_on_one_walk(kernel, dedicated);
}

void staff_consolidated(const ScenarioBatch& batch, std::size_t begin,
                        std::size_t end, queueing::ErlangKernel* kernel,
                        std::span<ModelResult> results) {
  ConsolidatedStaffing consolidated(batch, begin, end, results);
  staff_on_one_walk(kernel, consolidated);
}

void staff_deployments(const ScenarioBatch& batch, std::size_t begin,
                       std::size_t end, queueing::ErlangKernel* kernel,
                       std::span<ModelResult> results) {
  DedicatedStaffing dedicated(batch, begin, end, results);
  ConsolidatedStaffing consolidated(batch, begin, end, results);
  staff_on_one_walk(kernel, dedicated, consolidated);
}

void staff_fleet(const ScenarioBatch& batch, std::size_t begin,
                 std::size_t end, std::span<ModelResult> results) {
  if (begin == end) {
    return;
  }
  const std::size_t c0 = batch.classes_begin(begin);
  const std::size_t crows = batch.classes_end(end - 1) - c0;
  if (crows == 0) {
    return;  // no scenario in the range carries a fleet
  }

  // Stage 0: fill-priority tie-break column — reference-equivalents per
  // peak watt — as one dense divide stream over the shard's class rows.
  // max_watts is validated >= base_watts > 0, so the divide is safe.
  util::Scratch<double, kInlineClasses> efficiency(crows);
  efficiency.resize(crows);
  {
    const double* __restrict__ speed = batch.class_speed().data() + c0;
    const double* __restrict__ peak = batch.class_max_watts().data() + c0;
    double* __restrict__ eff = efficiency.data();
    for (std::size_t i = 0; i < crows; ++i) {
      eff[i] = speed[i] / peak[i];
    }
  }

  const auto available = batch.class_available();
  const auto speeds = batch.class_speed();
  util::Scratch<std::size_t, kInlineClasses> order(crows);
  for (std::size_t s = begin; s < end; ++s) {
    const std::size_t cb = batch.classes_begin(s);
    const std::size_t ce = batch.classes_end(s);
    if (cb == ce) {
      continue;  // homogeneous scenario: FleetPlan stays unplanned
    }
    ModelResult& result = results[s - begin];
    FleetPlan& plan = result.fleet;
    plan.planned = true;
    const std::size_t classes = ce - cb;
    plan.classes.resize(classes);
    for (std::size_t local = 0; local < classes; ++local) {
      ClassAllocation& alloc = plan.classes[local];
      alloc.name = batch.class_name(cb + local);
      alloc.speed = speeds[cb + local];
      alloc.available = available[cb + local];
    }

    // Fill order: fastest class first. Greedy on speed is exactly "take the
    // fastest remaining server, one at a time", so the physical count is
    // minimal and adding a class never increases a feasible total. A
    // per-watt-first order would NOT be monotone: a slightly slower but
    // thriftier class can displace part of a fast class's coverage and
    // force an extra machine. Efficiency only breaks exact speed ties;
    // name and declaration order make the plan fully deterministic.
    order.resize(classes);
    for (std::size_t i = 0; i < classes; ++i) {
      order[i] = i;
    }
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (speeds[cb + a] != speeds[cb + b]) {
                  return speeds[cb + a] > speeds[cb + b];
                }
                if (efficiency[cb + a - c0] != efficiency[cb + b - c0]) {
                  return efficiency[cb + a - c0] > efficiency[cb + b - c0];
                }
                if (batch.class_name(cb + a) != batch.class_name(cb + b)) {
                  return batch.class_name(cb + a) < batch.class_name(cb + b);
                }
                return a < b;
              });

    // Cover `target` reference-equivalents from the ordered classes. Counts
    // cast exactly: targets are Erlang staffing answers (far below 2^53)
    // and kUnbounded rounds to 2^64, which only ever relaxes the min.
    const auto allocate = [&](std::uint64_t target,
                              std::uint64_t ClassAllocation::*granted,
                              bool& feasible, double& shortfall) {
      double remaining = static_cast<double>(target);
      for (const std::size_t local : order) {
        if (remaining <= 0.0) {
          break;  // later classes keep their zero-initialized grant
        }
        ClassAllocation& alloc = plan.classes[local];
        const double want = std::ceil(remaining / alloc.speed);
        // Branch keeps the uint64 cast in range: `want` is only converted
        // when it is provably below the available count (and so below 2^64).
        std::uint64_t take = alloc.available;
        if (want < static_cast<double>(alloc.available)) {
          take = static_cast<std::uint64_t>(want);
        }
        alloc.*granted = take;
        remaining -= static_cast<double>(take) * alloc.speed;
      }
      feasible = remaining <= 0.0;
      shortfall = std::max(0.0, remaining);
    };
    allocate(result.dedicated_servers, &ClassAllocation::dedicated_servers,
             plan.dedicated_feasible, plan.dedicated_shortfall);
    allocate(result.consolidated_servers,
             &ClassAllocation::consolidated_servers,
             plan.consolidated_feasible, plan.consolidated_shortfall);
  }
}

void derive_utility(const ScenarioBatch& batch, std::size_t begin,
                    std::size_t end, std::span<ModelResult> results) {
  const auto arrival = batch.arrival_rate();
  const auto bottleneck = batch.bottleneck_rate();
  const auto effective = batch.effective_rate();
  if (begin == end) {
    return;
  }

  // Pass 1: per-row work terms over the shard's contiguous row range. The
  // loops are branch-free streams over dense columns, so the compiler can
  // vectorize the divisions; summing the staged terms afterwards in row
  // order is the same operation order as the fused loop, hence
  // bit-identical.
  const std::size_t row0 = batch.services_begin(begin);
  const std::size_t row_end = batch.services_end(end - 1);
  const std::size_t rows = row_end - row0;
  util::Scratch<double, kInlineRows> dedicated_terms(rows);
  util::Scratch<double, kInlineRows> consolidated_terms(rows);
  dedicated_terms.resize(rows);
  consolidated_terms.resize(rows);
  {
    const double* __restrict__ arr = arrival.data() + row0;
    const double* __restrict__ bot = bottleneck.data() + row0;
    const double* __restrict__ eff = effective.data() + row0;
    double* __restrict__ ded = dedicated_terms.data();
    double* __restrict__ con = consolidated_terms.data();
    for (std::size_t r = 0; r < rows; ++r) {
      ded[r] = arr[r] / bot[r];
    }
    for (std::size_t r = 0; r < rows; ++r) {
      con[r] = arr[r] / eff[r];
    }
  }

  // Pass 2: per-scenario forward sums and the Eq. 8-11 ratios.
  for (std::size_t s = begin; s < end; ++s) {
    ModelResult& result = results[s - begin];
    double dedicated_work = 0.0;
    double consolidated_work = 0.0;
    for (std::size_t row = batch.services_begin(s);
         row < batch.services_end(s); ++row) {
      dedicated_work += dedicated_terms[row - row0];
      consolidated_work += consolidated_terms[row - row0];
    }
    if (result.dedicated_servers > 0) {
      result.dedicated_utilization =
          dedicated_work / static_cast<double>(result.dedicated_servers);
    }
    if (result.consolidated_servers > 0) {
      result.consolidated_utilization =
          consolidated_work / static_cast<double>(result.consolidated_servers);
    }
    if (result.dedicated_utilization > 0.0) {
      result.utilization_improvement =
          result.consolidated_utilization / result.dedicated_utilization;
    }
  }
}

void derive_power(const ScenarioBatch& batch, std::size_t begin,
                  std::size_t end, std::span<ModelResult> results) {
  const std::size_t count = end - begin;
  // One scratch block, both deployments staged before any scatter: the
  // clamp loops are branch-free min-streams and watts_many runs over dense
  // columns, so all four passes vectorize. A batch of one stages inline.
  util::Scratch<double, 4> scratch(count * 4);
  scratch.resize(count * 4);
  const std::span<double> dedicated_clamped(scratch.data(), count);
  const std::span<double> consolidated_clamped(scratch.data() + count, count);
  const std::span<double> dedicated_watts(scratch.data() + 2 * count, count);
  const std::span<double> consolidated_watts(scratch.data() + 3 * count,
                                             count);

  {
    // Gather pass: strided reads out of the result structs into the dense
    // clamp columns, no stores anywhere else (restrict), so the min-streams
    // stay branch-free and pack.
    const ModelResult* __restrict__ res = results.data();
    double* __restrict__ ded = dedicated_clamped.data();
    double* __restrict__ con = consolidated_clamped.data();
    for (std::size_t k = 0; k < count; ++k) {
      ded[k] = std::min(1.0, res[k].dedicated_utilization);
    }
    for (std::size_t k = 0; k < count; ++k) {
      con[k] = std::min(1.0, res[k].consolidated_utilization);
    }
  }
  dc::watts_many(batch.dedicated_power().subspan(begin, count),
                 dedicated_clamped, dedicated_watts);
  dc::watts_many(batch.consolidated_power().subspan(begin, count),
                 consolidated_clamped, consolidated_watts);

  // Single fused finalize: per-server watts scaled to fleets, then the
  // Eq. 12-14 saving ratios.
  for (std::size_t k = 0; k < count; ++k) {
    ModelResult& result = results[k];
    result.dedicated_power_watts =
        static_cast<double>(result.dedicated_servers) * dedicated_watts[k];
    result.consolidated_power_watts =
        static_cast<double>(result.consolidated_servers) *
        consolidated_watts[k];
    if (result.dedicated_power_watts > 0.0) {
      result.power_ratio =
          result.consolidated_power_watts / result.dedicated_power_watts;
      result.power_saving = 1.0 - result.power_ratio;
    }
    if (result.dedicated_servers > 0) {
      result.infrastructure_saving =
          1.0 - static_cast<double>(result.consolidated_servers) /
                    static_cast<double>(result.dedicated_servers);
    }
  }

  // Heterogeneous tail: scenarios with fleet-class rows re-derive P_M/P_N
  // from per-class wattages. The class-major watts passes keep the exact
  // operand grouping of PowerModel::watts — native `base + (max-base)*u`
  // for the dedicated deployment, Xen idle/dynamic scaling for the
  // consolidated one — so a single-class fleet whose wattage pair matches
  // the scenario's reproduces the homogeneous answer bit for bit.
  if (begin == end) {
    return;
  }
  const std::size_t c0 = batch.classes_begin(begin);
  const std::size_t crows = batch.classes_end(end - 1) - c0;
  if (crows == 0) {
    return;
  }
  util::Scratch<double, 4 * kInlineClasses> class_scratch(crows * 4);
  class_scratch.resize(crows * 4);
  double* const u_ded = class_scratch.data();
  double* const u_con = class_scratch.data() + crows;
  double* const w_ded = class_scratch.data() + 2 * crows;
  double* const w_con = class_scratch.data() + 3 * crows;
  // Broadcast each scenario's clamped utilizations across its class rows so
  // the watts passes below run over dense, scenario-free columns.
  for (std::size_t s = begin; s < end; ++s) {
    const double ded = dedicated_clamped[s - begin];
    const double con = consolidated_clamped[s - begin];
    for (std::size_t row = batch.classes_begin(s); row < batch.classes_end(s);
         ++row) {
      u_ded[row - c0] = ded;
      u_con[row - c0] = con;
    }
  }
  {
    const double* __restrict__ base = batch.class_base_watts().data() + c0;
    const double* __restrict__ peak = batch.class_max_watts().data() + c0;
    const double* __restrict__ ud = u_ded;
    const double* __restrict__ uc = u_con;
    double* __restrict__ wd = w_ded;
    double* __restrict__ wc = w_con;
    for (std::size_t i = 0; i < crows; ++i) {
      wd[i] = base[i] + (peak[i] - base[i]) * ud[i];
    }
    for (std::size_t i = 0; i < crows; ++i) {
      wc[i] = base[i] * dc::PowerModel::kXenIdleFactor +
              ((peak[i] - base[i]) * dc::PowerModel::kXenDynamicFactor) *
                  uc[i];
    }
  }

  // Fleet finalize: per-class watts scaled by the granted counts, summed
  // into the scenario's P_M/P_N, and the Eq. 14 ratios recomputed from the
  // per-class sums. The homogeneous fields written above are overwritten
  // only for scenarios that actually planned a fleet.
  for (std::size_t s = begin; s < end; ++s) {
    const std::size_t cb = batch.classes_begin(s);
    const std::size_t ce = batch.classes_end(s);
    if (cb == ce) {
      continue;
    }
    ModelResult& result = results[s - begin];
    double p_m = 0.0;
    double p_n = 0.0;
    for (std::size_t local = 0; local < ce - cb; ++local) {
      ClassAllocation& alloc = result.fleet.classes[local];
      alloc.dedicated_power_watts =
          static_cast<double>(alloc.dedicated_servers) * w_ded[cb - c0 + local];
      alloc.consolidated_power_watts =
          static_cast<double>(alloc.consolidated_servers) *
          w_con[cb - c0 + local];
      p_m += alloc.dedicated_power_watts;
      p_n += alloc.consolidated_power_watts;
    }
    result.dedicated_power_watts = p_m;
    result.consolidated_power_watts = p_n;
    result.power_ratio = 0.0;
    result.power_saving = 0.0;
    if (p_m > 0.0) {
      result.power_ratio = p_n / p_m;
      result.power_saving = 1.0 - result.power_ratio;
    }
  }
}

}  // namespace batch_kernels

std::vector<ModelResult> BatchEvaluator::evaluate(
    const ScenarioBatch& batch) const {
  BatchOutcome outcome = evaluate_all(batch);
  if (outcome.cancelled) {
    throw CancelledError("batch evaluation cancelled after " +
                         std::to_string(outcome.evaluated_count()) + " of " +
                         std::to_string(batch.size()) + " scenarios");
  }
  if (outcome.deadline_exceeded) {
    throw DeadlineExceededError("batch evaluation deadline exceeded after " +
                                std::to_string(outcome.evaluated_count()) +
                                " of " + std::to_string(batch.size()) +
                                " scenarios");
  }
  return std::move(outcome.results);
}

BatchOutcome BatchEvaluator::evaluate_all(const ScenarioBatch& batch) const {
  const std::size_t count = batch.size();
  BatchOutcome outcome;
  outcome.results.resize(count);
  outcome.evaluated.assign(count, 0);
  run_shards(
      count,
      [&](std::size_t first, std::size_t last, const EvaluateShard& evaluate) {
        evaluate(batch, first,
                 std::span(outcome.results).subspan(first, last - first),
                 std::span(outcome.evaluated).subspan(first, last - first));
      },
      outcome);
  return outcome;
}

void BatchEvaluator::run_shards(std::size_t count, const ShardFn& shard_fn,
                                BatchOutcome& outcome) const {
  if (count == 0) {
    return;
  }
  queueing::ErlangKernel* const kernel = options_.kernel;

  auto& registry = metrics::registry();
  metrics::ScopedTimer wall(registry.timer(metrics::names::kBatchWall));
  registry.counter(metrics::names::kBatchEvaluations).add();
  registry.counter(metrics::names::kBatchScenarios).add(count);

  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::shared();
  // Workers that can claim at least min_scenarios_per_worker scenarios;
  // a tiny batch caps this at 1 and skips pool dispatch entirely.
  const std::size_t workers = std::max<std::size_t>(1, pool.size());
  std::size_t active_workers = workers;
  if (options_.min_scenarios_per_worker > 0) {
    active_workers = std::clamp<std::size_t>(
        count / options_.min_scenarios_per_worker, std::size_t{1}, workers);
  }
  std::size_t shard = options_.shard_size;
  if (shard == 0) {
    // ~4 shards per active worker: enough slack to balance heterogeneous
    // scenario costs. Each shard walks its own recurrences, so a load split
    // across shards is walked once per shard: a caller that wants each load
    // walked once lays the batch out load-coherently (sweep_all does), so
    // every cell of a load lands in one shard.
    shard = std::max<std::size_t>(
        1, (count + active_workers * 4 - 1) / (active_workers * 4));
  }
  const std::size_t shard_count = (count + shard - 1) / shard;
  registry.counter(metrics::names::kBatchShards).add(shard_count);

  const RunControl& control = options_.control;
  const bool quarantine = options_.policy == FailurePolicy::kQuarantine;
  std::mutex failures_mutex;  // shards append failures; sorted afterwards
  std::atomic<std::size_t> handled{0};  // cells evaluated or quarantined

  // One walk per staffing kernel, not staff_deployments: a shard fills its
  // lanes already, and a shared walk would hold both kernels' kept values.
  const auto evaluate_range = [kernel](const ScenarioBatch& batch,
                                       std::size_t first, std::size_t last,
                                       std::span<ModelResult> out) {
    batch_kernels::staff_dedicated(batch, first, last, kernel, out);
    batch_kernels::staff_consolidated(batch, first, last, kernel, out);
    batch_kernels::staff_fleet(batch, first, last, out);
    batch_kernels::derive_utility(batch, first, last, out);
    batch_kernels::derive_power(batch, first, last, out);
  };

  const auto run_shard = [&](std::size_t index) {
    const std::size_t first = index * shard;
    const std::size_t last = std::min(count, first + shard);
    if (control.stop_requested()) {
      return;
    }
    // Faults are drawn at positions (first + j), whatever batch the shard
    // callback evaluates them in.
    const EvaluateShard evaluate = [&, index, first, last](
                                       const ScenarioBatch& batch,
                                       std::size_t begin,
                                       std::span<ModelResult> out,
                                       std::span<std::uint8_t> evaluated) {
      const std::size_t n = last - first;
      try {
        if (util::FaultInjector::enabled()) {
          const util::FaultInjector& injector = util::FaultInjector::global();
          injector.check(util::fault_sites::kBatchShard, index);
          for (std::size_t s = first; s < last; ++s) {
            injector.check(util::fault_sites::kBatchCell, s);
          }
        }
        evaluate_range(batch, begin, begin + n, out);
        std::fill(evaluated.begin(), evaluated.end(), std::uint8_t{1});
        handled.fetch_add(n, std::memory_order_relaxed);
      } catch (...) {
        if (!quarantine) {
          throw;  // kFailFast: parallel_for joins all shards, then rethrows
        }
        // Quarantine fallback: isolate the failing cell(s) by re-running
        // this shard cell-at-a-time. Each cell is a batch of one — the same
        // span kernels over the range [s, s+1) — so healthy cells produce
        // bit-identical results to the staged whole-shard walk: every
        // answer depends only on its own load's recurrence.
        for (std::size_t j = 0; j < n; ++j) {
          if (control.stop_requested()) {
            return;
          }
          ModelResult& slot = out[j];
          slot = ModelResult{};  // discard partial fast-path writes
          try {
            if (util::FaultInjector::enabled()) {
              util::FaultInjector::global().check(
                  util::fault_sites::kBatchCell, first + j);
            }
            evaluate_range(batch, begin + j, begin + j + 1,
                           std::span<ModelResult>(&slot, 1));
            evaluated[j] = 1;
          } catch (const Error& error) {
            slot = ModelResult{};
            const std::lock_guard<std::mutex> lock(failures_mutex);
            outcome.failures.push_back({first + j, error.code(), error.what()});
          } catch (const std::exception& error) {
            slot = ModelResult{};
            const std::lock_guard<std::mutex> lock(failures_mutex);
            outcome.failures.push_back(
                {first + j, ErrorCode::kUnknown, error.what()});
          }
          handled.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    shard_fn(first, last, evaluate);
  };
  if (options_.parallel && shard_count > 1 && active_workers > 1) {
    parallel_for(shard_count, run_shard, pool, 0, &control);
  } else {
    for (std::size_t i = 0; i < shard_count; ++i) {
      if (control.stop_requested()) {
        break;
      }
      run_shard(i);
    }
  }

  // Shards append failures in completion order; report them in position
  // order so the record is deterministic regardless of the worker count.
  std::sort(outcome.failures.begin(), outcome.failures.end(),
            [](const CellFailure& a, const CellFailure& b) {
              return a.scenario_index < b.scenario_index;
            });
  registry.counter(metrics::names::kBatchQuarantined)
      .add(outcome.failures.size());

  // A stop only counts as an abort if it actually left cells unhandled;
  // a deadline expiring as the last shard retires is not an abort.
  if (handled.load(std::memory_order_relaxed) < count) {
    switch (control.stop_reason()) {
      case StopReason::kCancelled:
        outcome.cancelled = true;
        registry.counter(metrics::names::kBatchCancelled).add();
        break;
      case StopReason::kDeadlineExceeded:
        outcome.deadline_exceeded = true;
        registry.counter(metrics::names::kBatchDeadlineExceeded).add();
        break;
      case StopReason::kNone:
        break;  // unreachable: only a stop skips cells without recording
    }
  }
}

}  // namespace vmcons::core
