// Tests for the SweepGrid what-if API: deterministic index-derived
// enumeration, parallel output identical to a serial run,
// and sweep_target_loss staying a faithful wrapper.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace vmcons::core {
namespace {

ConsolidationPlanner case_study_planner() {
  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  web.arrival_rate = intensive_workload(web, 3, 0.01);
  db.arrival_rate = intensive_workload(db, 3, 0.01);
  ConsolidationPlanner planner;
  planner.set_target_loss(0.01).add_service(web).add_service(db);
  return planner;
}

void expect_same_report(const PlanReport& a, const PlanReport& b) {
  EXPECT_EQ(a.model.dedicated_servers, b.model.dedicated_servers);
  EXPECT_EQ(a.model.consolidated_servers, b.model.consolidated_servers);
  EXPECT_DOUBLE_EQ(a.model.consolidated_blocking,
                   b.model.consolidated_blocking);
  EXPECT_DOUBLE_EQ(a.model.power_saving, b.model.power_saving);
  EXPECT_DOUBLE_EQ(a.model.dedicated_utilization,
                   b.model.dedicated_utilization);
  ASSERT_EQ(a.arrival_rates.size(), b.arrival_rates.size());
  for (std::size_t i = 0; i < a.arrival_rates.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.arrival_rates[i], b.arrival_rates[i]);
  }
}

TEST(SweepGrid, SizeIsProductOfNonEmptyAxes) {
  SweepGrid grid;
  EXPECT_EQ(grid.size(), 1u);  // all axes inherit -> one point
  grid.target_losses({0.01, 0.001});
  EXPECT_EQ(grid.size(), 2u);
  grid.workload_scales({1.0, 2.0, 4.0});
  EXPECT_EQ(grid.size(), 6u);
  grid.vms_per_server({2, 4});
  EXPECT_EQ(grid.size(), 12u);
  grid.fleet_mixes({{4, 0}, {0, 4}});
  EXPECT_EQ(grid.size(), 24u);
}

TEST(SweepGrid, FleetMixesValidateShape) {
  SweepGrid grid;
  EXPECT_THROW(grid.fleet_mixes({{}}), InvalidArgument);  // empty mix
  EXPECT_THROW(grid.fleet_mixes({{1, 2}, {3}}), InvalidArgument);  // ragged
  grid.fleet_mixes({{1, 2}, {3, 4}});
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.point(1).fleet_mix->at(1), 4u);
}

TEST(SweepGrid, PointDecomposesIndexLossFastest) {
  SweepGrid grid;
  grid.target_losses({0.05, 0.01}).workload_scales({1.0, 2.0}).vms_per_server(
      {3});
  ASSERT_EQ(grid.size(), 4u);
  const auto points = grid.points();
  // Index layout: loss varies fastest, then vms, then scale.
  EXPECT_DOUBLE_EQ(*points[0].target_loss, 0.05);
  EXPECT_DOUBLE_EQ(*points[1].target_loss, 0.01);
  EXPECT_DOUBLE_EQ(*points[0].workload_scale, 1.0);
  EXPECT_DOUBLE_EQ(*points[2].workload_scale, 2.0);
  EXPECT_EQ(*points[3].vms_per_server, 3u);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
  }
}

TEST(SweepGrid, EmptyAxesInheritPlannerSettings) {
  SweepGrid grid;
  const SweepPoint point = grid.point(0);
  EXPECT_FALSE(point.target_loss.has_value());
  EXPECT_FALSE(point.workload_scale.has_value());
  EXPECT_FALSE(point.vms_per_server.has_value());
}

TEST(SweepGrid, ValidatesAxisValues) {
  SweepGrid grid;
  EXPECT_THROW(grid.target_losses({0.5, 1.5}), InvalidArgument);
  EXPECT_THROW(grid.workload_scales({0.0}), InvalidArgument);
  EXPECT_THROW(grid.vms_per_server({0}), InvalidArgument);
  EXPECT_THROW(grid.point(1), InvalidArgument);
}

TEST(SweepGrid, SizeOverflowFailsLoudlyWithAxisContext) {
  // 2^21 x 2^21 x 2^21 x 2 = 2^64 wraps std::size_t to 0; a silent wrap would
  // make a grid request iterate the wrong cell count. The axis vectors are
  // large but the values are valid, so only the product is at fault.
  SweepGrid grid;
  grid.target_losses(std::vector<double>(std::size_t{1} << 21, 0.01))
      .vms_per_server(std::vector<unsigned>(std::size_t{1} << 21, 2))
      .workload_scales(std::vector<double>(std::size_t{1} << 21, 1.0))
      .fleet_mixes(
          std::vector<std::vector<std::uint64_t>>(std::size_t{1} << 1, {1}));
  try {
    grid.size();
    FAIL() << "expected NumericError";
  } catch (const NumericError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kNumericError);
    const std::string what = error.what();
    EXPECT_NE(what.find("overflows"), std::string::npos);
    EXPECT_NE(what.find("2097152 target losses"), std::string::npos);
    EXPECT_NE(what.find("2097152 VMs-per-server"), std::string::npos);
    EXPECT_NE(what.find("2097152 workload scales"), std::string::npos);
    EXPECT_NE(what.find("2 fleet mixes"), std::string::npos);
  }
  // point() and points() route through size(), so they fail the same way.
  EXPECT_THROW(grid.point(0), NumericError);
}

TEST(Sweep, ParallelMemoizedMatchesSerialCold) {
  const ConsolidationPlanner planner = case_study_planner();
  SweepGrid grid;
  grid.target_losses({0.05, 0.01, 0.001, 0.0001})
      .workload_scales({0.5, 1.0, 2.0, 4.0});

  SweepOptions serial_cold;
  serial_cold.parallel = false;
  const auto expected = planner.sweep(grid, serial_cold);

  queueing::ErlangKernel kernel;
  SweepOptions parallel_warm;
  parallel_warm.kernel = &kernel;
  const auto actual = planner.sweep(grid, parallel_warm);

  ASSERT_EQ(actual.size(), expected.size());
  ASSERT_EQ(actual.size(), grid.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].point.index, i);
    expect_same_report(actual[i].report, expected[i].report);
  }
  EXPECT_GT(kernel.stats().evaluations, 0u);
}

TEST(Sweep, RerunningWithTheSameKernelIsDeterministic) {
  const ConsolidationPlanner planner = case_study_planner();
  SweepGrid grid;
  grid.target_losses({0.02, 0.005}).workload_scales({1.0, 3.0});
  queueing::ErlangKernel kernel;
  SweepOptions options;
  options.kernel = &kernel;
  const auto first = planner.sweep(grid, options);
  const auto second = planner.sweep(grid, options);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_same_report(first[i].report, second[i].report);
  }
  EXPECT_GT(kernel.stats().cache_hits, 0u);
}

TEST(Sweep, VmsPerServerAxisIsApplied) {
  const ConsolidationPlanner planner = case_study_planner();
  SweepGrid grid;
  grid.vms_per_server({2, 8});
  const auto cells = planner.sweep(grid);
  ASSERT_EQ(cells.size(), 2u);
  // Denser packing degrades the effective service rate (impact curves), so
  // the 8-VM plan can never need fewer servers than the 2-VM plan.
  EXPECT_GE(cells[1].report.model.consolidated_servers,
            cells[0].report.model.consolidated_servers);
}

TEST(Sweep, RecordsMetrics) {
  const auto before =
      metrics::registry().counter("sweep.points").value();
  const ConsolidationPlanner planner = case_study_planner();
  SweepGrid grid;
  grid.target_losses({0.01, 0.001});
  planner.sweep(grid);
  EXPECT_EQ(metrics::registry().counter("sweep.points").value(), before + 2);
  EXPECT_GT(metrics::registry().timer("sweep.wall").count(), 0u);
}

TEST(SweepTargetLoss, MatchesPerPointPlans) {
  const ConsolidationPlanner planner = case_study_planner();
  const std::vector<double> losses{0.05, 0.01, 0.001};
  const auto reports = planner.sweep_target_loss(losses);
  ASSERT_EQ(reports.size(), losses.size());
  for (std::size_t i = 0; i < losses.size(); ++i) {
    ConsolidationPlanner point = planner;
    point.set_target_loss(losses[i]);
    expect_same_report(reports[i], point.plan());
  }
}

}  // namespace
}  // namespace vmcons::core
