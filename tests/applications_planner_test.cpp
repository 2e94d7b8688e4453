// Tests for the model's application modes (Section III-B4) and the
// high-level ConsolidationPlanner.
#include <gtest/gtest.h>

#include "core/applications.hpp"
#include "core/planner.hpp"
#include "util/error.hpp"

namespace vmcons::core {
namespace {

ModelInputs case_study(double target_loss = 0.01) {
  ModelInputs inputs;
  inputs.target_loss = target_loss;
  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  web.arrival_rate = intensive_workload(web, 3, target_loss);
  db.arrival_rate = intensive_workload(db, 3, target_loss);
  inputs.services = {web, db};
  return inputs;
}

/// A uniform-capacity fleet class with the default wattage pair.
dc::ServerClass uniform_class(std::string name, double capacity,
                              std::uint64_t count) {
  dc::ServerClass server_class;
  server_class.name = std::move(name);
  for (const dc::Resource resource : dc::all_resources()) {
    server_class.capacity[resource] = capacity;
  }
  server_class.count = count;
  return server_class;
}

TEST(Applications, ConsolidationAtEqualServersImprovesQos) {
  // With M = N = 6, consolidation (even with overheads) multiplexes two
  // streams over six servers instead of 3 + 3: loss drops, ratio > 1.
  const QosBound bound = allocation_qos_bound(case_study(), {3, 3});
  EXPECT_EQ(bound.servers, 6u);
  EXPECT_LT(bound.consolidated_loss, bound.dedicated_loss);
  EXPECT_GT(bound.improvement, 1.0);
}

TEST(Applications, IdealVirtualizationBoundDominates) {
  const ModelInputs inputs = case_study();
  const QosBound real = allocation_qos_bound(inputs, {3, 3});
  const QosBound ideal = virtualization_qos_bound(inputs, {3, 3});
  // Removing virtualization overhead can only lower consolidated loss.
  EXPECT_LE(ideal.consolidated_loss, real.consolidated_loss);
  EXPECT_GE(ideal.improvement, real.improvement);
}

TEST(Applications, ScoreIsRelativeToBound) {
  const QosBound bound = allocation_qos_bound(case_study(), {3, 3});
  EXPECT_NEAR(allocation_algorithm_score(bound, bound.improvement), 1.0, 1e-12);
  EXPECT_LT(allocation_algorithm_score(bound, bound.improvement * 0.9), 1.0);
  EXPECT_THROW(allocation_algorithm_score(bound, 0.0), InvalidArgument);
}

TEST(Applications, ValidatesServerCounts) {
  EXPECT_THROW(allocation_qos_bound(case_study(), {0, 0}), InvalidArgument);
  EXPECT_THROW(allocation_qos_bound(case_study(), {3}), InvalidArgument);
}

TEST(Planner, MatchesDirectModelWhenHomogeneous) {
  const ModelInputs inputs = case_study();
  ConsolidationPlanner planner;
  planner.set_target_loss(inputs.target_loss);
  for (const auto& service : inputs.services) {
    planner.add_service(service);
  }
  const PlanReport report = planner.plan();
  const ModelResult direct = UtilityAnalyticModel(inputs).solve();
  EXPECT_EQ(report.model.dedicated_servers, direct.dedicated_servers);
  EXPECT_EQ(report.model.consolidated_servers, direct.consolidated_servers);
  // No fleet set: the plan stays in reference units, no class allocation.
  EXPECT_FALSE(report.model.fleet.planned);
  EXPECT_TRUE(report.model.fleet.classes.empty());
}

TEST(Planner, HeterogeneousInventoryCoversRequirement) {
  ConsolidationPlanner planner;
  planner.set_target_loss(0.01);
  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  web.arrival_rate = intensive_workload(web, 3, 0.01);
  db.arrival_rate = intensive_workload(db, 3, 0.01);
  planner.add_service(web).add_service(db);
  // The paper's example: dual quad-core = 1.0, single quad-core = 0.5,
  // declared slowest first so the fill order is the planner's, not ours.
  dc::Fleet fleet;
  fleet.add(uniform_class("single-quad", 0.5, 8));
  fleet.add(uniform_class("dual-quad", 1.0, 2));
  planner.set_fleet(fleet);

  const PlanReport report = planner.plan();
  const FleetPlan& plan = report.model.fleet;
  // N = 3 normalized: 2 dual-quads + 2 single-quads = 3.0 capacity.
  ASSERT_TRUE(plan.planned);
  ASSERT_TRUE(plan.consolidated_feasible);
  ASSERT_EQ(plan.classes.size(), 2u);
  double capacity = 0.0;
  for (const ClassAllocation& alloc : plan.classes) {
    capacity += alloc.speed * static_cast<double>(alloc.consolidated_servers);
  }
  EXPECT_GE(capacity, 3.0);
  // Large servers are picked first: every dual-quad, then the remainder.
  EXPECT_EQ(plan.classes[1].name, "dual-quad");
  EXPECT_EQ(plan.classes[1].consolidated_servers, 2u);
  EXPECT_EQ(plan.classes[0].consolidated_servers, 2u);
}

TEST(Planner, InfeasibleInventoryIsReported) {
  ConsolidationPlanner planner;
  planner.set_target_loss(0.01);
  dc::ServiceSpec web = dc::paper_web_service();
  web.arrival_rate = intensive_workload(web, 4, 0.01);
  planner.add_service(web);
  dc::Fleet fleet;
  fleet.add(uniform_class("tiny", 0.25, 2));
  planner.set_fleet(fleet);
  const PlanReport report = planner.plan();
  const FleetPlan& plan = report.model.fleet;
  EXPECT_FALSE(plan.consolidated_feasible);
  EXPECT_GT(plan.consolidated_shortfall, 0.0);
}

TEST(Planner, WorkloadScalingGrowsThePlan) {
  ConsolidationPlanner planner;
  planner.set_target_loss(0.01);
  dc::ServiceSpec web = dc::paper_web_service();
  web.arrival_rate = intensive_workload(web, 3, 0.01);
  planner.add_service(web);
  const PlanReport base = planner.plan();
  planner.scale_workloads(4.0);
  const PlanReport scaled = planner.plan();
  EXPECT_GT(scaled.model.dedicated_servers, base.model.dedicated_servers);
  EXPECT_NEAR(scaled.arrival_rates[0], base.arrival_rates[0] * 4.0, 1e-9);
}

TEST(Planner, SweepTargetLossIsMonotone) {
  ConsolidationPlanner planner;
  planner.set_target_loss(0.01);
  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  web.arrival_rate = intensive_workload(web, 4, 0.01);
  db.arrival_rate = intensive_workload(db, 4, 0.01);
  planner.add_service(web).add_service(db);

  const auto reports = planner.sweep_target_loss({0.001, 0.01, 0.1});
  ASSERT_EQ(reports.size(), 3u);
  EXPECT_GE(reports[0].model.consolidated_servers,
            reports[1].model.consolidated_servers);
  EXPECT_GE(reports[1].model.consolidated_servers,
            reports[2].model.consolidated_servers);
}

TEST(Planner, ValidatesArguments) {
  ConsolidationPlanner planner;
  EXPECT_THROW(planner.set_target_loss(0.0), InvalidArgument);
  EXPECT_THROW(planner.set_vms_per_server(0), InvalidArgument);
  EXPECT_THROW(planner.scale_workloads(-1.0), InvalidArgument);
  EXPECT_THROW(dc::Fleet().add(uniform_class("bad", 0.0, 1)),
               InvalidArgument);
  EXPECT_THROW(planner.plan(), InvalidArgument);  // no services
}

}  // namespace
}  // namespace vmcons::core
