// ConsolidationPlanner::sweep_batch: expanding a grid index range straight
// into a ScenarioBatch must build, column for column and bit for bit, what
// appending point_inputs(grid.point(i)) per cell builds — on every axis
// combination, with and without a fleet, for any sub-range — and raise the
// same errors at the same cell. write_sweep_store, which builds every shard
// this way, must write the bytes a per-point ScenarioStoreWriter writes.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "core/scenario_batch.hpp"
#include "core/scenario_store.hpp"
#include "core/streaming_sweep.hpp"
#include "datacenter/server_class.hpp"
#include "file_bytes.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/run_control.hpp"
#include "virt/impact.hpp"

namespace vmcons::core {
namespace {

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same_doubles(std::span<const double> got,
                         std::span<const double> want, const char* column) {
  ASSERT_EQ(got.size(), want.size()) << column;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i])) << column << " row " << i;
  }
}

void expect_same_power(std::span<const dc::PowerModel> got,
                       std::span<const dc::PowerModel> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(bits(got[s].base_watts), bits(want[s].base_watts));
    EXPECT_EQ(bits(got[s].max_watts), bits(want[s].max_watts));
    EXPECT_EQ(got[s].platform, want[s].platform);
  }
}

/// Every column of two batches, exact bits for doubles.
void expect_same_columns(const ScenarioBatch& got, const ScenarioBatch& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.service_rows(), want.service_rows());
  ASSERT_EQ(got.class_rows(), want.class_rows());
  for (std::size_t s = 0; s < got.size(); ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    EXPECT_EQ(bits(got.target_loss(s)), bits(want.target_loss(s)));
    EXPECT_EQ(got.vm_count(s), want.vm_count(s));
    EXPECT_EQ(got.services_begin(s), want.services_begin(s));
    EXPECT_EQ(got.services_end(s), want.services_end(s));
    EXPECT_EQ(got.classes_begin(s), want.classes_begin(s));
    EXPECT_EQ(got.classes_end(s), want.classes_end(s));
  }
  expect_same_power(got.dedicated_power(), want.dedicated_power());
  expect_same_power(got.consolidated_power(), want.consolidated_power());
  expect_same_doubles(got.arrival_rate(), want.arrival_rate(), "arrival");
  for (const dc::Resource resource : dc::all_resources()) {
    expect_same_doubles(got.native_rate(resource), want.native_rate(resource),
                        "native_rate");
    expect_same_doubles(got.impact(resource), want.impact(resource), "impact");
    expect_same_doubles(got.class_capacity(resource),
                        want.class_capacity(resource), "class_capacity");
  }
  expect_same_doubles(got.bottleneck_rate(), want.bottleneck_rate(),
                      "bottleneck");
  expect_same_doubles(got.effective_rate(), want.effective_rate(),
                      "effective");
  for (std::size_t row = 0; row < got.service_rows(); ++row) {
    EXPECT_EQ(got.service_name(row), want.service_name(row));
  }
  for (std::size_t row = 0; row < got.class_rows(); ++row) {
    EXPECT_EQ(got.class_name(row), want.class_name(row));
  }
  expect_same_doubles(got.class_base_watts(), want.class_base_watts(),
                      "class_base_watts");
  expect_same_doubles(got.class_max_watts(), want.class_max_watts(),
                      "class_max_watts");
  expect_same_doubles(got.class_speed(), want.class_speed(), "class_speed");
  const auto got_counts = got.class_available();
  const auto want_counts = want.class_available();
  ASSERT_EQ(got_counts.size(), want_counts.size());
  for (std::size_t row = 0; row < got_counts.size(); ++row) {
    EXPECT_EQ(got_counts[row], want_counts[row]) << "class count row " << row;
  }
}

/// The per-point reference: point_inputs + append for every cell.
ScenarioBatch per_point(const ConsolidationPlanner& planner,
                        const SweepGrid& grid, std::size_t begin,
                        std::size_t end) {
  ScenarioBatch batch;
  for (std::size_t i = begin; i < end; ++i) {
    batch.append(planner.point_inputs(grid.point(i)));
  }
  return batch;
}

/// The paper's web service (linear disk and CPU curves) and DB service
/// (rational CPU curve, which clamps at 1 from one VM up).
dc::ServiceSpec web_service() {
  dc::ServiceSpec web;
  web.name = "web";
  web.arrival_rate = 310.0;
  web.demand(dc::Resource::kDiskIo, 420.0, virt::Impact::paper_web_disk_io());
  web.demand(dc::Resource::kCpu, 3360.0, virt::Impact::paper_web_cpu());
  return web;
}

dc::ServiceSpec db_service() {
  dc::ServiceSpec db;
  db.name = "database-tier-service";  // longer than the SSO buffer
  db.arrival_rate = 37.3;
  db.demand(dc::Resource::kCpu, 100.0, virt::Impact::paper_db_cpu());
  return db;
}

dc::Fleet three_class_fleet() {
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
  return fleet;
}

enum class FleetCase { kNone, kFleet, kFleetAndMixAxis };

ConsolidationPlanner make_planner(bool own_settings, FleetCase fleet) {
  ConsolidationPlanner planner;
  planner.add_service(web_service()).add_service(db_service());
  if (own_settings) {
    planner.set_target_loss(0.002).scale_workloads(1.7).set_vms_per_server(3);
  }
  if (fleet != FleetCase::kNone) {
    planner.set_fleet(three_class_fleet());
  }
  return planner;
}

/// `axes` bit 0: losses, bit 1: scales, bit 2: VMs per server. VM counts 1
/// (DB curve exactly 1), 2 (DB clamps from above), 5 and 11 (web disk curve
/// clamps at its floor).
SweepGrid make_grid(unsigned axes, bool mixes) {
  SweepGrid grid;
  if (axes & 1u) {
    grid.target_losses({0.05, 0.01, 0.001});
  }
  if (axes & 2u) {
    grid.workload_scales({0.3, 1.0, 3.3});
  }
  if (axes & 4u) {
    grid.vms_per_server({1, 2, 5, 11});
  }
  if (mixes) {
    grid.fleet_mixes({{3, 0, dc::ServerClass::kUnbounded}, {0, 7, 2}});
  }
  return grid;
}

TEST(SweepBatch, MatchesPerPointInputsOnEveryAxisCombination) {
  for (const bool own_settings : {false, true}) {
    for (const FleetCase fleet :
         {FleetCase::kNone, FleetCase::kFleet, FleetCase::kFleetAndMixAxis}) {
      const ConsolidationPlanner planner = make_planner(own_settings, fleet);
      for (unsigned axes = 0; axes < 8; ++axes) {
        const SweepGrid grid =
            make_grid(axes, fleet == FleetCase::kFleetAndMixAxis);
        SCOPED_TRACE("own_settings " + std::to_string(own_settings) +
                     ", fleet case " +
                     std::to_string(static_cast<int>(fleet)) + ", axes " +
                     std::to_string(axes));
        const std::size_t n = grid.size();
        expect_same_columns(planner.sweep_batch(grid, 0, n),
                            per_point(planner, grid, 0, n));
        // A mid-grid sub-range starts and ends inside axis runs.
        const std::size_t begin = n / 3;
        const std::size_t end = n - n / 4;
        expect_same_columns(planner.sweep_batch(grid, begin, end),
                            per_point(planner, grid, begin, end));
      }
    }
  }
}

TEST(SweepBatch, ArrivalRatesGroupThePlannerAndPointScales) {
  // base * (1.7 * 3.3) and (base * 1.7) * 3.3 differ in the last bit for
  // the DB service's base; the batch must hold the former, as point_inputs
  // computes it.
  const ConsolidationPlanner planner =
      make_planner(/*own_settings=*/true, FleetCase::kNone);
  SweepGrid grid;
  grid.workload_scales({3.3});
  const ScenarioBatch batch = planner.sweep_batch(grid, 0, 1);
  const double base = db_service().arrival_rate;
  ASSERT_NE(bits(base * (1.7 * 3.3)), bits((base * 1.7) * 3.3));
  EXPECT_EQ(bits(batch.arrival_rate()[1]), bits(base * (1.7 * 3.3)));
}

TEST(SweepBatch, RecycledAndClearedBatchesBuildTheSameColumns) {
  const ConsolidationPlanner planner =
      make_planner(/*own_settings=*/true, FleetCase::kFleetAndMixAxis);
  const SweepGrid grid = make_grid(7, /*mixes=*/true);
  ScenarioBatch first = planner.sweep_batch(grid, 0, 40);
  ScenarioBatch second = planner.sweep_batch(grid, 40, 72, std::move(first));
  expect_same_columns(second, per_point(planner, grid, 40, 72));
  second.clear();
  EXPECT_TRUE(second.empty());
  EXPECT_EQ(second.service_rows(), 0u);
  EXPECT_EQ(second.class_rows(), 0u);
  second.append(planner.point_inputs(grid.point(5)));
  expect_same_columns(second, per_point(planner, grid, 5, 6));
}

TEST(SweepBatch, EmptyRangeIsEmptyAndRangesPastTheGridThrow) {
  const ConsolidationPlanner planner = make_planner(false, FleetCase::kNone);
  const SweepGrid grid = make_grid(7, false);
  EXPECT_TRUE(planner.sweep_batch(grid, 5, 5).empty());
  EXPECT_THROW(planner.sweep_batch(grid, 0, grid.size() + 1), InvalidArgument);
  EXPECT_THROW(planner.sweep_batch(grid, 4, 3), InvalidArgument);
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "vmcons_sweep_batch_" + name;
  std::remove(path.c_str());
  return path;
}

TEST(SweepBatch, StoreBytesMatchAPerPointWriter) {
  const ConsolidationPlanner planner =
      make_planner(/*own_settings=*/true, FleetCase::kFleetAndMixAxis);
  const SweepGrid grid = make_grid(7, /*mixes=*/true);  // 72 cells
  ASSERT_EQ(grid.size(), 72u);
  for (const std::size_t shard_size : {std::size_t{8}, std::size_t{7}}) {
    SCOPED_TRACE("shard size " + std::to_string(shard_size));
    const std::string swept = temp_path("swept.store");
    const std::string reference = temp_path("reference.store");
    const ScenarioStoreWriter::Summary summary =
        write_sweep_store(planner, grid, swept, shard_size);
    ScenarioStoreWriter writer(reference, shard_size);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      writer.append(planner.point_inputs(grid.point(i)));
    }
    const ScenarioStoreWriter::Summary expected = writer.finish();
    EXPECT_EQ(summary.scenarios, expected.scenarios);
    EXPECT_EQ(summary.shards, expected.shards);
    EXPECT_EQ(summary.checksum, expected.checksum);
    const std::string bytes = file_bytes::slurp(swept);
    EXPECT_FALSE(bytes.empty());
    EXPECT_TRUE(bytes == file_bytes::slurp(reference));
    std::remove(swept.c_str());
    std::remove(reference.c_str());
  }
}

TEST(SweepBatch, WriteShardRefusesOversizedShardsAndAFilledBuffer) {
  const ConsolidationPlanner planner = make_planner(false, FleetCase::kNone);
  const SweepGrid grid = make_grid(1, false);  // 3 cells
  const std::string path = temp_path("write_shard.store");
  ScenarioStoreWriter writer(path, 2);
  EXPECT_THROW(writer.write_shard(planner.sweep_batch(grid, 0, 3)),
               InvalidArgument);
  EXPECT_THROW(writer.write_shard(ScenarioBatch{}), InvalidArgument);
  writer.write_shard(planner.sweep_batch(grid, 0, 2));
  writer.append(planner.point_inputs(grid.point(2)));
  EXPECT_THROW(writer.write_shard(planner.sweep_batch(grid, 2, 3)),
               InvalidArgument);
  EXPECT_EQ(writer.finish().scenarios, 3u);
  const ScenarioStore store(path);
  EXPECT_EQ(store.shard_count(), 2u);
  std::remove(path.c_str());
}

// --- errors: same type, message and cell as the per-point path ---------------

template <typename F>
std::string invalid_argument_message(F&& call) {
  try {
    call();
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  ADD_FAILURE() << "expected InvalidArgument";
  return {};
}

std::uint64_t shards_written() {
  return metrics::registry()
      .counter(metrics::names::kStoreShardsWritten)
      .value();
}

/// sweep_all (quarantining, which must not swallow build errors) and
/// write_sweep_store (2-point shards) both raise `message`; the store
/// writes `shards_before` shards first.
void expect_sweep_error(const ConsolidationPlanner& planner,
                        const SweepGrid& grid, const std::string& message,
                        std::uint64_t shards_before) {
  SweepOptions options;
  options.policy = FailurePolicy::kQuarantine;
  options.parallel = false;
  EXPECT_EQ(invalid_argument_message([&] { planner.sweep_all(grid, options); }),
            message);
  const std::string path = temp_path("error.store");
  const std::uint64_t before = shards_written();
  EXPECT_EQ(invalid_argument_message(
                [&] { write_sweep_store(planner, grid, path, 2); }),
            message);
  EXPECT_EQ(shards_written() - before, shards_before);
  EXPECT_THROW(ScenarioStore{path}, IoError);
  std::remove(path.c_str());
}

TEST(SweepBatchErrors, FleetMixLengthMismatchNamesBothSizes) {
  SweepGrid grid = make_grid(1, false);
  grid.fleet_mixes({{1, 2}, {3, 4}});
  expect_sweep_error(make_planner(false, FleetCase::kFleet), grid,
                     "fleet mix has 2 counts but the fleet declares 3 classes",
                     0);
  expect_sweep_error(make_planner(false, FleetCase::kNone), grid,
                     "fleet mix has 2 counts but the fleet declares 0 classes",
                     0);
}

TEST(SweepBatchErrors, PlannerWithoutServices) {
  expect_sweep_error(ConsolidationPlanner{}, make_grid(3, false),
                     "planner has no services", 0);
}

TEST(SweepBatchErrors, ArrivalRateUnderflowingToZero) {
  // 1e-30 * 1e-300 underflows to 0, so only the second scale's cells fail:
  // the store writes the first shard (cells 0-1) before raising.
  ConsolidationPlanner planner;
  planner.add_service(web_service()).scale_workloads(1e-30);
  SweepGrid grid;
  grid.target_losses({0.01, 0.05}).workload_scales({1.0, 1e-300});
  expect_sweep_error(planner, grid, "service 'web' needs arrival rate > 0", 1);
}

/// An impact curve that cancels a token the first time it is evaluated,
/// so a store write is stopped while its first shard is being built.
class CancellingCurve : public virt::Impact::Model {
 public:
  explicit CancellingCurve(CancelToken token) : token_(std::move(token)) {}
  double raw_factor(unsigned) const override {
    token_.cancel();
    return 0.8;
  }
  std::string describe() const override { return "cancels its token"; }

 private:
  CancelToken token_;
};

TEST(SweepBatchErrors, StopBetweenStoreShardsRaisesCancelled) {
  RunControl control;
  dc::ServiceSpec web = web_service();
  web.demand(dc::Resource::kCpu, 3360.0,
             virt::Impact(std::make_shared<CancellingCurve>(control.token)));
  ConsolidationPlanner planner;
  planner.add_service(web);
  const SweepGrid grid = make_grid(3, false);  // 9 cells
  const std::string path = temp_path("cancel.store");
  const std::uint64_t before = shards_written();
  EXPECT_THROW(write_sweep_store(planner, grid, path, 4, control),
               CancelledError);
  // The control is polled between shards: the shard being built when the
  // stop landed is still written, the next one is not.
  EXPECT_EQ(shards_written() - before, 1u);
  EXPECT_THROW(ScenarioStore{path}, IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vmcons::core
