// Heap allocations of a warm scalar plan() and solve(), pinned to literals.
//
// A warm call is one made after a first call on the same thread. The
// planner runs the model one scenario at a time wherever a decision loops
// (admission bisection, multitier, robust), so its fixed cost per call is
// the cost of those loops. The counts below are exact for libstdc++ with
// short (SSO) service and class names; a change that moves one of them
// either re-pins it on purpose or has added a per-call allocation.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <thread>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/model.hpp"
#include "core/planner.hpp"
#include "core/scenario_batch.hpp"
#include "datacenter/server_class.hpp"
#include "datacenter/service_spec.hpp"
#include "heap_counter.hpp"
#include "util/metrics.hpp"

namespace vmcons::core {
namespace {

using testing::allocations_of;

/// The case study (Section IV-C2): web and DB at four dedicated servers
/// each, homogeneous servers.
ConsolidationPlanner case_study_planner() {
  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  web.arrival_rate = intensive_workload(web, 4, 0.01);
  db.arrival_rate = intensive_workload(db, 4, 0.01);
  ConsolidationPlanner planner;
  planner.set_target_loss(0.01).add_service(web).add_service(db);
  return planner;
}

/// The shape of vmbench's single_plan stream: the case-study services at
/// ~10^3 dedicated servers, a VM-count override and a 3-class fleet with
/// one unbounded class.
ConsolidationPlanner vmbench_shaped_planner() {
  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  web.arrival_rate = 420.0 * 1000.0 * 0.6;
  db.arrival_rate = 100.0 * 1000.0 * 0.4;
  dc::Fleet fleet;
  fleet.add(dc::ServerClass::reference("old-gen"));
  dc::ServerClass mid;
  mid.name = "mid-gen";
  dc::ServerClass fast;
  fast.name = "new-gen";
  for (const dc::Resource resource : dc::all_resources()) {
    mid.capacity[resource] = 1.5;
    fast.capacity[resource] = 2.0;
  }
  mid.power = dc::PowerModel{280.0, 340.0};
  mid.count = 300;
  fast.power = dc::PowerModel{310.0, 390.0};
  fast.count = 40;
  fleet.add(mid);
  fleet.add(fast);
  ConsolidationPlanner planner;
  planner.set_target_loss(0.002).set_vms_per_server(3);
  planner.add_service(web).add_service(db);
  planner.set_fleet(std::move(fleet));
  return planner;
}

/// Allocations of one warm plan() and one warm solve() of its inputs.
struct CallCounts {
  std::uint64_t plan = 0;
  std::uint64_t solve = 0;
};

CallCounts warm_call_counts(const ConsolidationPlanner& planner) {
  const UtilityAnalyticModel model(planner.point_inputs({}));
  planner.plan();  // warm-up: first call on this thread
  model.solve();
  CallCounts counts;
  counts.plan = allocations_of([&] { planner.plan(); });
  counts.solve = allocations_of([&] { model.solve(); });
  return counts;
}

/// Allocations of each layer of one warm solve(), run by hand over a
/// ScenarioBatch of one that the caller keeps, as solve() keeps its own.
struct LayerCounts {
  std::uint64_t staging = 0;  ///< clear() and append() of the batch of one
  std::uint64_t staff_deployments = 0;
  std::uint64_t staff_fleet = 0;
  std::uint64_t derive_utility = 0;
  std::uint64_t derive_power = 0;
};

LayerCounts warm_layer_counts(const ConsolidationPlanner& planner) {
  const ModelInputs inputs = planner.point_inputs({});
  ScenarioBatch batch;
  LayerCounts counts;
  for (int pass = 0; pass < 2; ++pass) {  // pass 0 warms the batch
    ModelResult result;
    const std::span<ModelResult> out(&result, 1);
    counts.staging = allocations_of([&] {
      batch.clear();
      batch.append(inputs);
    });
    counts.staff_deployments = allocations_of([&] {
      batch_kernels::staff_deployments(batch, 0, 1, nullptr, out);
    });
    counts.staff_fleet = allocations_of(
        [&] { batch_kernels::staff_fleet(batch, 0, 1, out); });
    counts.derive_utility = allocations_of(
        [&] { batch_kernels::derive_utility(batch, 0, 1, out); });
    counts.derive_power = allocations_of(
        [&] { batch_kernels::derive_power(batch, 0, 1, out); });
  }
  return counts;
}

TEST(PlanAllocations, WarmCaseStudyPlanAndSolve) {
  const CallCounts counts = warm_call_counts(case_study_planner());
  // solve(): the result's per-service plans and the Erlang walk's load
  // table. plan() adds its inputs' service list and the report's arrival
  // rates.
  EXPECT_EQ(counts.solve, 2u);
  EXPECT_EQ(counts.plan, 4u);
}

TEST(PlanAllocations, WarmVmbenchShapedPlanAndSolve) {
  const CallCounts counts = warm_call_counts(vmbench_shaped_planner());
  // As the case study, plus the result's fleet allocation and, in plan(),
  // the inputs' fleet classes.
  EXPECT_EQ(counts.solve, 3u);
  EXPECT_EQ(counts.plan, 6u);
}

TEST(PlanAllocations, WarmVmbenchShapedSolvePerLayer) {
  const LayerCounts counts = warm_layer_counts(vmbench_shaped_planner());
  EXPECT_EQ(counts.staging, 0u);
  // The per-service plans and the walk's load table.
  EXPECT_EQ(counts.staff_deployments, 2u);
  EXPECT_EQ(counts.staff_fleet, 1u);  // the per-class allocation
  EXPECT_EQ(counts.derive_utility, 0u);
  EXPECT_EQ(counts.derive_power, 0u);
}

/// The Erlang and batch-kernel registry counters, in one snapshot.
std::array<std::uint64_t, 5> walk_counters() {
  auto& registry = metrics::registry();
  return {registry.counter(metrics::names::kErlangEvaluations).value(),
          registry.counter(metrics::names::kErlangSteps).value(),
          registry.counter(metrics::names::kErlangCacheHits).value(),
          registry.counter(metrics::names::kBatchKernelHits).value(),
          registry.counter(metrics::names::kBatchKernelMisses).value()};
}

TEST(PlanAllocations, WalkCountersAdvanceAlikeOnFirstAndHundredthPlan) {
  // plan() keeps per-thread state between calls; no walk state may ride
  // along with it. On a fresh thread, the 1st and the 100th call must
  // advance every counter by the same amount — the amount a fresh walk
  // of this scenario takes.
  const ConsolidationPlanner planner = vmbench_shaped_planner();
  std::vector<std::array<std::uint64_t, 5>> deltas;
  std::thread([&] {
    for (int call = 0; call < 100; ++call) {
      const auto before = walk_counters();
      planner.plan();
      const auto after = walk_counters();
      std::array<std::uint64_t, 5> delta{};
      for (std::size_t i = 0; i < delta.size(); ++i) {
        delta[i] = after[i] - before[i];
      }
      deltas.push_back(delta);
    }
  }).join();
  ASSERT_EQ(deltas.size(), 100u);
  EXPECT_EQ(deltas.front(), deltas.back());
  // erlang.evaluations, erlang.steps, erlang.cache_hits,
  // batch.kernel_hits, batch.kernel_misses per plan().
  const std::array<std::uint64_t, 5> expected{10, 3358, 3, 3, 7};
  EXPECT_EQ(deltas.front(), expected);
}

}  // namespace
}  // namespace vmcons::core
