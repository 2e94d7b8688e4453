// Tests for the SweepGrid what-if API: deterministic index-derived
// enumeration, parallel output identical to a serial run, sweep_all's
// load-coherent evaluation order mapped back to grid indices (answers,
// failures, walk counts), and sweep_target_loss staying a faithful wrapper.
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/planner.hpp"
#include "core/scenario_batch.hpp"
#include "datacenter/server_class.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

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

/// Cell i of a sweep is grid point i: it planned that point's scaled
/// arrival rates.
void expect_point_arrivals(const ConsolidationPlanner& planner,
                           const SweepGrid& grid, std::size_t i,
                           const SweepCell& cell) {
  const ModelInputs inputs = planner.point_inputs(grid.point(i));
  ASSERT_EQ(cell.report.arrival_rates.size(), inputs.services.size());
  for (std::size_t k = 0; k < inputs.services.size(); ++k) {
    EXPECT_EQ(cell.report.arrival_rates[k], inputs.services[k].arrival_rate);
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
    expect_point_arrivals(planner, grid, i, actual[i]);
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

// --- multi-mix grids: the load-coherent evaluation order -----------------

/// Two services on three server classes: the fleet planner every mix of a
/// multi-mix grid is applied to.
ConsolidationPlanner fleet_planner() {
  ConsolidationPlanner planner = case_study_planner();
  dc::Fleet fleet;
  dc::ServerClass legacy;
  legacy.name = "legacy";
  legacy.capacity[dc::Resource::kCpu] = 0.5;
  legacy.power.base_watts = 210.0;
  legacy.power.max_watts = 260.0;
  legacy.count = 12;
  fleet.add(legacy);
  fleet.add(dc::ServerClass::reference("reference", dc::PowerModel{}));
  dc::ServerClass fast;
  fast.name = "fast";
  fast.capacity[dc::Resource::kCpu] = 2.0;
  fast.capacity[dc::Resource::kDiskIo] = 1.5;
  fast.power.base_watts = 300.0;
  fast.power.max_watts = 380.0;
  fast.count = 4;
  fleet.add(fast);
  planner.set_fleet(fleet);
  return planner;
}

/// All four axes: 4 losses x 3 VMs x 8 scales x 3 mixes = 288 cells.
SweepGrid multi_mix_grid() {
  SweepGrid grid;
  grid.target_losses({0.05, 0.01, 0.002, 0.0005})
      .vms_per_server({1, 2, 5})
      .workload_scales({0.3, 0.5, 0.8, 1.0, 1.4, 2.0, 3.3, 5.0})
      .fleet_mixes({{3, 0, dc::ServerClass::kUnbounded},
                    {0, 7, 2},
                    {20, dc::ServerClass::kUnbounded, 1}});
  return grid;
}

/// The grid index multi_mix_grid's sweep_all evaluates at batch position p,
/// re-derived from the documented order: loss fastest, then VMs, fleet mix,
/// scale.
std::size_t evaluation_to_grid_index(std::size_t p) {
  constexpr std::size_t kLosses = 4, kVms = 3, kMixes = 3, kScales = 8;
  const std::size_t loss = p % kLosses;
  const std::size_t vms = p / kLosses % kVms;
  const std::size_t mix = p / (kLosses * kVms) % kMixes;
  const std::size_t scale = p / (kLosses * kVms * kMixes);
  return loss + kLosses * (vms + kVms * (scale + kScales * mix));
}

void expect_same_bits(double got, double want, const char* field) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
            std::bit_cast<std::uint64_t>(want))
      << field;
}

/// Every field of two results, doubles compared bit for bit.
void expect_bit_identical(const ModelResult& got, const ModelResult& want) {
  ASSERT_EQ(got.dedicated.size(), want.dedicated.size());
  for (std::size_t k = 0; k < got.dedicated.size(); ++k) {
    const ServicePlan& a = got.dedicated[k];
    const ServicePlan& b = want.dedicated[k];
    EXPECT_EQ(a.name, b.name);
    for (const dc::Resource resource : dc::all_resources()) {
      expect_same_bits(a.offered_load[resource], b.offered_load[resource],
                       "dedicated offered_load");
    }
    EXPECT_EQ(a.servers_per_resource, b.servers_per_resource);
    EXPECT_EQ(a.servers, b.servers);
    expect_same_bits(a.blocking, b.blocking, "dedicated blocking");
  }
  EXPECT_EQ(got.dedicated_servers, want.dedicated_servers);
  for (std::size_t j = 0; j < got.consolidated.size(); ++j) {
    const ConsolidatedResourcePlan& a = got.consolidated[j];
    const ConsolidatedResourcePlan& b = want.consolidated[j];
    EXPECT_EQ(a.resource, b.resource);
    expect_same_bits(a.merged_arrival_rate, b.merged_arrival_rate,
                     "merged_arrival_rate");
    expect_same_bits(a.effective_service_rate, b.effective_service_rate,
                     "effective_service_rate");
    expect_same_bits(a.offered_load, b.offered_load, "consolidated offered");
    EXPECT_EQ(a.servers, b.servers);
    EXPECT_EQ(a.demanded, b.demanded);
  }
  EXPECT_EQ(got.consolidated_servers, want.consolidated_servers);
  expect_same_bits(got.consolidated_blocking, want.consolidated_blocking,
                   "consolidated_blocking");
  expect_same_bits(got.dedicated_utilization, want.dedicated_utilization,
                   "dedicated_utilization");
  expect_same_bits(got.consolidated_utilization,
                   want.consolidated_utilization, "consolidated_utilization");
  expect_same_bits(got.utilization_improvement, want.utilization_improvement,
                   "utilization_improvement");
  expect_same_bits(got.dedicated_power_watts, want.dedicated_power_watts,
                   "dedicated_power_watts");
  expect_same_bits(got.consolidated_power_watts,
                   want.consolidated_power_watts, "consolidated_power_watts");
  expect_same_bits(got.power_ratio, want.power_ratio, "power_ratio");
  expect_same_bits(got.power_saving, want.power_saving, "power_saving");
  expect_same_bits(got.infrastructure_saving, want.infrastructure_saving,
                   "infrastructure_saving");
  const FleetPlan& a = got.fleet;
  const FleetPlan& b = want.fleet;
  EXPECT_EQ(a.planned, b.planned);
  EXPECT_EQ(a.dedicated_feasible, b.dedicated_feasible);
  EXPECT_EQ(a.consolidated_feasible, b.consolidated_feasible);
  expect_same_bits(a.dedicated_shortfall, b.dedicated_shortfall,
                   "dedicated_shortfall");
  expect_same_bits(a.consolidated_shortfall, b.consolidated_shortfall,
                   "consolidated_shortfall");
  ASSERT_EQ(a.classes.size(), b.classes.size());
  for (std::size_t c = 0; c < a.classes.size(); ++c) {
    const ClassAllocation& x = a.classes[c];
    const ClassAllocation& y = b.classes[c];
    EXPECT_EQ(x.name, y.name);
    expect_same_bits(x.speed, y.speed, "class speed");
    EXPECT_EQ(x.available, y.available);
    EXPECT_EQ(x.dedicated_servers, y.dedicated_servers);
    EXPECT_EQ(x.consolidated_servers, y.consolidated_servers);
    expect_same_bits(x.dedicated_power_watts, y.dedicated_power_watts,
                     "class dedicated_power_watts");
    expect_same_bits(x.consolidated_power_watts, y.consolidated_power_watts,
                     "class consolidated_power_watts");
  }
}

/// The seed the fault tests draw from: VMCONS_FAULT_SEED, else 2009.
std::uint64_t fault_seed() {
  const char* seed = std::getenv("VMCONS_FAULT_SEED");
  return seed != nullptr ? std::strtoull(seed, nullptr, 10) : 2009;
}

SweepOutcome sweep_on(const ConsolidationPlanner& planner,
                      const SweepGrid& grid, std::size_t threads,
                      FailurePolicy policy = FailurePolicy::kFailFast) {
  ThreadPool pool(threads);
  SweepOptions options;
  options.pool = &pool;
  options.policy = policy;
  return planner.sweep_all(grid, options);
}

TEST(SweepLoadCoherent, MultiMixCellsAreBitIdenticalToPerPointSolves) {
  const ConsolidationPlanner planner = fleet_planner();
  const SweepGrid grid = multi_mix_grid();
  ASSERT_EQ(grid.size(), 288u);
  std::vector<ModelInputs> inputs;
  std::vector<ModelResult> expected;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    inputs.push_back(planner.point_inputs(grid.point(i)));
    expected.push_back(UtilityAnalyticModel(inputs.back()).solve());
  }
  for (const std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    const SweepOutcome outcome = sweep_on(planner, grid, threads);
    ASSERT_TRUE(outcome.complete());
    ASSERT_EQ(outcome.cells.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      SCOPED_TRACE("cell " + std::to_string(i));
      const SweepCell& cell = outcome.cells[i];
      EXPECT_TRUE(cell.evaluated);
      // Cell i is grid point i: its fleet plan owns that point's mix.
      const std::vector<std::uint64_t> mix = *grid.point(i).fleet_mix;
      ASSERT_EQ(cell.report.model.fleet.classes.size(), mix.size());
      for (std::size_t c = 0; c < mix.size(); ++c) {
        EXPECT_EQ(cell.report.model.fleet.classes[c].available, mix[c]);
      }
      ASSERT_EQ(cell.report.arrival_rates.size(), inputs[i].services.size());
      for (std::size_t k = 0; k < inputs[i].services.size(); ++k) {
        expect_same_bits(cell.report.arrival_rates[k],
                         inputs[i].services[k].arrival_rate, "arrival_rate");
      }
      expect_bit_identical(cell.report.model, expected[i]);
    }
  }
}

TEST(SweepLoadCoherent, MultiMixQuarantineReportsGridIndicesAndCancels) {
  const ConsolidationPlanner planner = fleet_planner();
  const SweepGrid grid = multi_mix_grid();
  const SweepOutcome clean = sweep_on(planner, grid, 2);
  ASSERT_TRUE(clean.complete());

  util::ScopedFaults guard;
  util::FaultInjector& injector = util::FaultInjector::global();
  injector.set_seed(fault_seed());
  util::FaultInjector::SiteConfig faults;
  faults.error_rate = 0.05;
  injector.arm(util::fault_sites::kBatchCell, faults);
  // batch.cell is drawn at the evaluation position; the failure is reported
  // at the grid index evaluated there.
  std::set<std::size_t> expected;
  bool moved = false;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    if (injector.would_fail(util::fault_sites::kBatchCell, p)) {
      expected.insert(evaluation_to_grid_index(p));
      moved = moved || evaluation_to_grid_index(p) != p;
    }
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_TRUE(moved) << "no injected cell exercises the index mapping";

  for (const std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    const SweepOutcome outcome =
        sweep_on(planner, grid, threads, FailurePolicy::kQuarantine);
    EXPECT_FALSE(outcome.cancelled);
    EXPECT_FALSE(outcome.deadline_exceeded);
    std::vector<std::size_t> failed;
    for (const CellFailure& failure : outcome.failures) {
      EXPECT_EQ(failure.code, ErrorCode::kFaultInjected);
      failed.push_back(failure.scenario_index);
    }
    // Ascending grid indices: exactly the injected cells, mapped, and so
    // the same at every worker count.
    EXPECT_EQ(failed,
              std::vector<std::size_t>(expected.begin(), expected.end()));
    ASSERT_EQ(outcome.cells.size(), grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      SCOPED_TRACE("cell " + std::to_string(i));
      const SweepCell& cell = outcome.cells[i];
      if (expected.count(i) != 0) {
        EXPECT_FALSE(cell.evaluated);
        expect_bit_identical(cell.report.model, ModelResult{});
        EXPECT_TRUE(cell.report.arrival_rates.empty());
        continue;
      }
      EXPECT_TRUE(cell.evaluated);
      expect_bit_identical(cell.report.model, clean.cells[i].report.model);
      EXPECT_EQ(cell.report.arrival_rates, clean.cells[i].report.arrival_rates);
      expect_point_arrivals(planner, grid, i, cell);
    }
  }

  // A sweep cancelled before it starts evaluates nothing and says so.
  ThreadPool pool(2);
  SweepOptions options;
  options.pool = &pool;
  options.policy = FailurePolicy::kQuarantine;
  options.control.token.cancel();
  const SweepOutcome cancelled = planner.sweep_all(grid, options);
  EXPECT_TRUE(cancelled.cancelled);
  EXPECT_TRUE(cancelled.failures.empty());
  ASSERT_EQ(cancelled.cells.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_FALSE(cancelled.cells[i].evaluated) << "cell " << i;
    expect_bit_identical(cancelled.cells[i].report.model, ModelResult{});
    EXPECT_TRUE(cancelled.cells[i].report.arrival_rates.empty());
  }
}

TEST(SweepLoadCoherent, FailFastRaisesTheLowestEvaluationPositionsFault) {
  const ConsolidationPlanner planner = fleet_planner();
  const SweepGrid grid = multi_mix_grid();
  util::ScopedFaults guard;
  util::FaultInjector& injector = util::FaultInjector::global();
  injector.set_seed(fault_seed());
  util::FaultInjector::SiteConfig faults;
  faults.error_rate = 0.05;
  injector.arm(util::fault_sites::kBatchCell, faults);
  // Shards build, evaluate and assemble concurrently; whichever fails
  // first in time, the fault raised is the one at the lowest evaluation
  // position (not the lowest grid index it maps to).
  std::size_t lowest = grid.size();
  std::size_t injected = 0;
  for (std::size_t p = 0; p < grid.size(); ++p) {
    if (injector.would_fail(util::fault_sites::kBatchCell, p)) {
      lowest = std::min(lowest, p);
      ++injected;
    }
  }
  ASSERT_GE(injected, 2u) << "the lowest fault needs a later one to beat";
  const std::string expected = "injected fault at site 'batch.cell', index " +
                               std::to_string(lowest) + " ";
  for (const std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    try {
      static_cast<void>(sweep_on(planner, grid, threads));
      FAIL() << "an armed batch.cell fault did not propagate";
    } catch (const NumericError& error) {
      EXPECT_EQ(error.code(), ErrorCode::kFaultInjected);
      EXPECT_EQ(std::string(error.what()).rfind(expected, 0), 0u)
          << error.what();
    }
  }
}

TEST(SweepLoadCoherent, CountersMatchOneEvaluateAll) {
  const ConsolidationPlanner planner = fleet_planner();
  const SweepGrid grid = multi_mix_grid();
  auto& evaluations = metrics::registry().counter(metrics::names::kBatchEvaluations);
  auto& scenarios = metrics::registry().counter(metrics::names::kBatchScenarios);
  auto& shards = metrics::registry().counter(metrics::names::kBatchShards);
  const ScenarioBatch batch = planner.sweep_batch(grid, 0, grid.size());
  for (const std::size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    ThreadPool pool(threads);
    BatchOptions batch_options;
    batch_options.pool = &pool;
    const std::uint64_t batch_shards = shards.value();
    ASSERT_TRUE(BatchEvaluator(batch_options).evaluate_all(batch).complete());
    const std::uint64_t expected_shards = shards.value() - batch_shards;

    const std::uint64_t evaluations_before = evaluations.value();
    const std::uint64_t scenarios_before = scenarios.value();
    const std::uint64_t shards_before = shards.value();
    SweepOptions options;
    options.pool = &pool;
    ASSERT_TRUE(planner.sweep_all(grid, options).complete());
    EXPECT_EQ(evaluations.value() - evaluations_before, 1u);
    EXPECT_EQ(scenarios.value() - scenarios_before, grid.size());
    EXPECT_EQ(shards.value() - shards_before, expected_shards);
  }
}

TEST(SweepLoadCoherent, FleetMixesDoNotMultiplyErlangWalks) {
  // 4 losses x 3 VMs x 48 scales: 576 cells with one mix, 1728 with three.
  // At 2 workers each grid is cut into 8 evaluator shards. A fleet mix
  // changes no offered load, so the three-mix sweep must walk each load
  // about as often as the one-mix sweep does: every mix of a scale is
  // contiguous, lands in the same shard, and is answered from that shard's
  // kept values. The only allowed difference is where the 7 shard
  // boundaries fall: a boundary inside one scale's block walks that scale's
  // loads in both neighbouring shards. A walk's length grows about linearly
  // with the load, so the largest scale (4.95 of the scales' sum 124.8)
  // holds about 4% of the steps, and 7 split blocks add at most about 28%.
  // Hence the 1.5x margin. Today both grids split on scale boundaries (6
  // scales per shard) and the counts are equal; a grid-ordered batch (mix
  // slowest) walks every load once per mix, 3x.
  const ConsolidationPlanner planner = fleet_planner();
  std::vector<double> scales;
  for (int k = 0; k < 48; ++k) {
    scales.push_back(0.25 + 0.1 * k);
  }
  SweepGrid one_mix;
  one_mix.target_losses({0.05, 0.01, 0.002, 0.0005})
      .vms_per_server({1, 2, 5})
      .workload_scales(scales)
      .fleet_mixes({{3, 0, dc::ServerClass::kUnbounded}});
  SweepGrid three_mixes = one_mix;
  three_mixes.fleet_mixes({{3, 0, dc::ServerClass::kUnbounded},
                           {0, 7, 2},
                           {20, dc::ServerClass::kUnbounded, 1}});
  const auto steps = [&](const SweepGrid& grid) {
    ThreadPool pool(2);
    queueing::ErlangKernel kernel;
    SweepOptions options;
    options.pool = &pool;
    options.kernel = &kernel;
    const SweepOutcome outcome = planner.sweep_all(grid, options);
    EXPECT_TRUE(outcome.complete());
    return kernel.stats().steps;
  };
  const std::uint64_t one = steps(one_mix);
  const std::uint64_t three = steps(three_mixes);
  ASSERT_GT(one, 0u);
  EXPECT_LE(static_cast<double>(three), 1.5 * static_cast<double>(one))
      << "one mix: " << one << " steps, three mixes: " << three;
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
