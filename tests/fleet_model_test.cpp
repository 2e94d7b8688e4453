// Property suite for the heterogeneous fleet staffing pass.
//
// The load-bearing invariant of the ServerClass design is that a fleet is a
// *post-processing* of the homogeneous model: M, N, blocking, utilization,
// and (for a reference-class fleet) power must be bit-identical with or
// without a fleet attached. On top of that the allocation itself must be
// sane: fastest-first filling is minimal and monotone (adding a class never
// costs servers), bounded fleets report shortfalls instead of lying, and the
// fleet columns survive batch evaluation, the scenario store, and the sweep
// fleet_mix axis unchanged.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/model.hpp"
#include "core/planner.hpp"
#include "core/scenario_batch.hpp"
#include "core/scenario_store.hpp"
#include "core/sharded_sweep.hpp"
#include "core/streaming_sweep.hpp"
#include "core/sweep.hpp"
#include "datacenter/server_class.hpp"
#include "datacenter/service_spec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "virt/impact.hpp"

namespace vmcons::core {
namespace {

/// Random but valid scenarios, fully derived from (seed, index) — the same
/// generator shape the batch determinism suites use. Both platforms share
/// one randomized wattage pair so a reference-class fleet (which also
/// carries that pair) is power-equivalent by construction.
ModelInputs random_inputs(std::uint64_t seed, std::size_t index) {
  Rng rng = make_stream(seed, index);
  ModelInputs inputs;
  inputs.target_loss = 1e-4 + rng.uniform() * 0.2;
  const double base_watts = rng.uniform(100.0, 300.0);
  const double max_watts = base_watts * rng.uniform(1.05, 1.5);
  inputs.dedicated_power = {base_watts, max_watts, dc::Platform::kNativeLinux};
  inputs.consolidated_power = {base_watts, max_watts, dc::Platform::kXen};
  const std::size_t service_count = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < service_count; ++i) {
    dc::ServiceSpec service;
    service.name = "svc" + std::to_string(i);
    service.arrival_rate = rng.uniform(0.5, 500.0);
    bool any = false;
    for (const dc::Resource resource : dc::all_resources()) {
      if (rng.bernoulli(0.5)) {
        continue;
      }
      any = true;
      service.demand(resource, rng.uniform(1.0, 2000.0),
                     virt::Impact::constant(rng.uniform(0.05, 1.0)));
    }
    if (!any) {
      service.demand(dc::Resource::kCpu, rng.uniform(1.0, 2000.0),
                     virt::Impact::constant(rng.uniform(0.05, 1.0)));
    }
    inputs.services.push_back(std::move(service));
  }
  return inputs;
}

/// The reference machine as a ServerClass, wattage pair matching `inputs`.
dc::ServerClass reference_class(const ModelInputs& inputs,
                                std::uint64_t count) {
  dc::PowerModel power;
  power.base_watts = inputs.dedicated_power.base_watts;
  power.max_watts = inputs.dedicated_power.max_watts;
  return dc::ServerClass::reference("reference", power, count);
}

dc::ServerClass fast_class(std::string name, double speed,
                           std::uint64_t count) {
  dc::ServerClass cls;
  cls.name = std::move(name);
  for (const dc::Resource resource : dc::all_resources()) {
    cls.capacity[resource] = speed;
  }
  cls.count = count;
  return cls;
}

void expect_core_identical(const ModelResult& a, const ModelResult& b) {
  EXPECT_EQ(a.dedicated_servers, b.dedicated_servers);
  EXPECT_EQ(a.consolidated_servers, b.consolidated_servers);
  EXPECT_EQ(a.consolidated_blocking, b.consolidated_blocking);
  EXPECT_EQ(a.dedicated_utilization, b.dedicated_utilization);
  EXPECT_EQ(a.consolidated_utilization, b.consolidated_utilization);
  EXPECT_EQ(a.utilization_improvement, b.utilization_improvement);
  EXPECT_EQ(a.infrastructure_saving, b.infrastructure_saving);
}

TEST(FleetModelTest, SingleReferenceClassIsBitIdenticalAcross1000Scenarios) {
  constexpr std::size_t kScenarios = 1000;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    const ModelInputs plain = random_inputs(41, i);
    ModelInputs with_fleet = plain;
    with_fleet.fleet.add(
        reference_class(plain, dc::ServerClass::kUnbounded));

    const ModelResult baseline = UtilityAnalyticModel(plain).solve();
    const ModelResult fleet = UtilityAnalyticModel(with_fleet).solve();

    // Staffing, blocking, and utilization: identical by construction.
    expect_core_identical(baseline, fleet);
    // Power: the reference class carries the same wattage pair as the
    // scenario, so the per-class recomputation lands on the same bits.
    EXPECT_EQ(baseline.dedicated_power_watts, fleet.dedicated_power_watts);
    EXPECT_EQ(baseline.consolidated_power_watts,
              fleet.consolidated_power_watts);
    EXPECT_EQ(baseline.power_ratio, fleet.power_ratio);
    EXPECT_EQ(baseline.power_saving, fleet.power_saving);

    // The fleet plan itself: one class of speed 1 absorbs exactly M and N.
    EXPECT_FALSE(baseline.fleet.planned);
    ASSERT_TRUE(fleet.fleet.planned);
    ASSERT_EQ(fleet.fleet.classes.size(), 1u);
    EXPECT_TRUE(fleet.fleet.dedicated_feasible);
    EXPECT_TRUE(fleet.fleet.consolidated_feasible);
    EXPECT_EQ(fleet.fleet.dedicated_total(), baseline.dedicated_servers);
    EXPECT_EQ(fleet.fleet.consolidated_total(),
              baseline.consolidated_servers);
  }
}

TEST(FleetModelTest, AddingAClassNeverIncreasesPhysicalServerCounts) {
  constexpr std::size_t kScenarios = 200;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    const ModelInputs plain = random_inputs(43, i);

    ModelInputs reference_only = plain;
    reference_only.fleet.add(
        reference_class(plain, dc::ServerClass::kUnbounded));
    ModelInputs with_fast = plain;
    with_fast.fleet.add(reference_class(plain, dc::ServerClass::kUnbounded));
    with_fast.fleet.add(
        fast_class("new-gen", 2.5, dc::ServerClass::kUnbounded));

    const ModelResult before = UtilityAnalyticModel(reference_only).solve();
    const ModelResult after = UtilityAnalyticModel(with_fast).solve();
    ASSERT_TRUE(before.fleet.planned);
    ASSERT_TRUE(after.fleet.planned);
    EXPECT_LE(after.fleet.dedicated_total(), before.fleet.dedicated_total());
    EXPECT_LE(after.fleet.consolidated_total(),
              before.fleet.consolidated_total());
    // Unbounded fleets are always feasible.
    EXPECT_TRUE(after.fleet.dedicated_feasible);
    EXPECT_TRUE(after.fleet.consolidated_feasible);
    // And the staffing answer in reference units never moved at all.
    expect_core_identical(before, after);
  }
}

TEST(FleetModelTest, FastestClassFillsFirstThenSpillsToSlower) {
  ModelInputs inputs = random_inputs(47, 0);
  inputs.fleet.add(fast_class("old-gen", 1.0, dc::ServerClass::kUnbounded));
  inputs.fleet.add(fast_class("new-gen", 2.0, 1));

  const ModelResult result = UtilityAnalyticModel(inputs).solve();
  ASSERT_TRUE(result.fleet.planned);
  ASSERT_EQ(result.fleet.classes.size(), 2u);
  const ClassAllocation& old_gen = result.fleet.classes[0];
  const ClassAllocation& new_gen = result.fleet.classes[1];
  const std::uint64_t m = result.dedicated_servers;
  ASSERT_GE(m, 1u);
  // The single speed-2 machine goes first; old-gen covers the remainder.
  EXPECT_EQ(new_gen.dedicated_servers, 1u);
  EXPECT_EQ(old_gen.dedicated_servers, m >= 2 ? m - 2 : 0);
  EXPECT_TRUE(result.fleet.dedicated_feasible);
}

TEST(FleetModelTest, BoundedFleetReportsShortfallInsteadOfLying) {
  ModelInputs inputs = random_inputs(53, 1);
  // First find how many reference servers the scenario actually needs.
  const ModelResult sized = UtilityAnalyticModel(inputs).solve();
  ASSERT_GE(sized.dedicated_servers, 1u);

  inputs.fleet.add(reference_class(inputs, 0));
  const ModelResult result = UtilityAnalyticModel(inputs).solve();
  ASSERT_TRUE(result.fleet.planned);
  EXPECT_FALSE(result.fleet.dedicated_feasible);
  EXPECT_FALSE(result.fleet.consolidated_feasible);
  EXPECT_EQ(result.fleet.dedicated_shortfall,
            static_cast<double>(sized.dedicated_servers));
  EXPECT_EQ(result.fleet.consolidated_shortfall,
            static_cast<double>(sized.consolidated_servers));
  EXPECT_EQ(result.fleet.dedicated_total(), 0u);
  // The reference-unit staffing answers are untouched by infeasibility.
  EXPECT_EQ(result.dedicated_servers, sized.dedicated_servers);
}

TEST(FleetModelTest, BatchEvaluationMatchesScalarSolveWithFleets) {
  constexpr std::size_t kScenarios = 64;
  ScenarioBatch batch;
  std::vector<ModelInputs> all;
  std::vector<ModelInputs> fleetless;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    ModelInputs inputs = random_inputs(59, i);
    fleetless.push_back(inputs);
    if (i % 3 != 0) {  // mix fleetless scenarios into the same batch
      inputs.fleet.add(reference_class(inputs, dc::ServerClass::kUnbounded));
      inputs.fleet.add(fast_class("gen" + std::to_string(i % 5),
                                  1.0 + 0.5 * static_cast<double>(i % 4),
                                  (i % 2 == 0) ? 3 : dc::ServerClass::kUnbounded));
    }
    if (i % 3 == 2) {  // a third class with its own wattage pair
      dc::ServerClass mid = fast_class("mid-gen", 1.5, 64);
      mid.power = dc::PowerModel{280.0, 340.0};
      inputs.fleet.add(mid);
    }
    batch.append(inputs);
    all.push_back(std::move(inputs));
  }

  const BatchOutcome outcome = BatchEvaluator().evaluate_all(batch);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    SCOPED_TRACE("scenario " + std::to_string(i));
    const ModelResult scalar = UtilityAnalyticModel(all[i]).solve();
    const ModelResult& batched = outcome.results[i];
    expect_core_identical(scalar, batched);
    // A fleet of any class count is post-processing in reference units:
    // staffing, blocking and utilization match the fleetless solve.
    expect_core_identical(UtilityAnalyticModel(fleetless[i]).solve(),
                          batched);
    EXPECT_EQ(batched.fleet.planned, i % 3 != 0);
    EXPECT_EQ(batched.fleet.classes.size(), i % 3 == 0 ? 0u : i % 3 + 1);
    EXPECT_EQ(scalar.dedicated_power_watts, batched.dedicated_power_watts);
    EXPECT_EQ(scalar.consolidated_power_watts,
              batched.consolidated_power_watts);
    ASSERT_EQ(scalar.fleet.planned, batched.fleet.planned);
    ASSERT_EQ(scalar.fleet.classes.size(), batched.fleet.classes.size());
    for (std::size_t c = 0; c < scalar.fleet.classes.size(); ++c) {
      const ClassAllocation& a = scalar.fleet.classes[c];
      const ClassAllocation& b = batched.fleet.classes[c];
      EXPECT_EQ(a.name, b.name);
      EXPECT_EQ(a.speed, b.speed);
      EXPECT_EQ(a.available, b.available);
      EXPECT_EQ(a.dedicated_servers, b.dedicated_servers);
      EXPECT_EQ(a.consolidated_servers, b.consolidated_servers);
      EXPECT_EQ(a.dedicated_power_watts, b.dedicated_power_watts);
      EXPECT_EQ(a.consolidated_power_watts, b.consolidated_power_watts);
    }
  }
}

TEST(FleetModelTest, ScenarioStoreRoundTripsFleetColumns) {
  const std::string path =
      ::testing::TempDir() + "vmcons_fleet_store_roundtrip.bin";
  std::remove(path.c_str());

  constexpr std::size_t kScenarios = 20;
  ScenarioBatch reference;
  {
    ScenarioStoreWriter writer(path, /*shard_size=*/7);
    for (std::size_t i = 0; i < kScenarios; ++i) {
      ModelInputs inputs = random_inputs(61, i);
      if (i % 4 != 0) {
        inputs.fleet.add(
            reference_class(inputs, dc::ServerClass::kUnbounded));
        inputs.fleet.add(fast_class("boxy", 1.5, i));
      }
      reference.append(inputs);
      writer.append(inputs);
    }
    writer.finish();
  }

  ScenarioStore store(path);
  EXPECT_EQ(store.format_version(), 3u);
  std::size_t begin = 0;
  for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
    const ScenarioBatch loaded = store.read_shard(shard);
    for (std::size_t s = 0; s < loaded.size(); ++s) {
      SCOPED_TRACE("scenario " + std::to_string(begin + s));
      const std::size_t global = begin + s;
      const std::size_t local_classes =
          loaded.classes_end(s) - loaded.classes_begin(s);
      const std::size_t global_classes =
          reference.classes_end(global) - reference.classes_begin(global);
      ASSERT_EQ(local_classes, global_classes);
      for (std::size_t c = 0; c < local_classes; ++c) {
        const std::size_t lr = loaded.classes_begin(s) + c;
        const std::size_t gr = reference.classes_begin(global) + c;
        EXPECT_EQ(loaded.class_name(lr), reference.class_name(gr));
        EXPECT_EQ(loaded.class_base_watts()[lr],
                  reference.class_base_watts()[gr]);
        EXPECT_EQ(loaded.class_max_watts()[lr],
                  reference.class_max_watts()[gr]);
        EXPECT_EQ(loaded.class_available()[lr],
                  reference.class_available()[gr]);
        EXPECT_EQ(loaded.class_speed()[lr], reference.class_speed()[gr]);
        for (const dc::Resource resource : dc::all_resources()) {
          EXPECT_EQ(loaded.class_capacity(resource)[lr],
                    reference.class_capacity(resource)[gr]);
        }
      }
    }
    begin += loaded.size();
  }
  EXPECT_EQ(begin, kScenarios);
  std::remove(path.c_str());
}

void expect_same_bits(double a, double b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b));
}

// The result digest does not cover FleetPlan, so the digest equality the
// sharded suites assert cannot see a fleet plan lost or changed between
// paths. Compare the plans themselves: a 1-process StreamingSweep sink
// against the merge sink of a 2-worker ShardedSweepDriver, field by field.
TEST(FleetModelTest, FleetPlansMatchBetweenStreamingAndShardedMerge) {
  const std::string store_path =
      ::testing::TempDir() + "vmcons_fleet_paths.store";
  const std::string ledger = ::testing::TempDir() + "vmcons_fleet_paths.ledger";
  std::remove(store_path.c_str());
  std::filesystem::remove_all(ledger);

  constexpr std::size_t kScenarios = 24;
  {
    ScenarioStoreWriter writer(store_path, /*shard_size=*/5);
    for (std::size_t i = 0; i < kScenarios; ++i) {
      ModelInputs inputs = random_inputs(67, i);
      if (i % 3 != 0) {
        // Bounded counts, so some plans fall short and report it.
        inputs.fleet.add(reference_class(inputs, i % 2 == 0 ? i : 1));
        inputs.fleet.add(fast_class("boxy", 1.5, i));
      }
      writer.append(inputs);
    }
    writer.finish();
  }
  const ScenarioStore store(store_path);

  BatchOptions batch;
  batch.parallel = false;
  batch.policy = FailurePolicy::kQuarantine;
  const auto collect = [](std::vector<ModelResult>& into) {
    return [&into](ShardOutcome&& shard) {
      for (std::size_t i = 0; i < shard.outcome.results.size(); ++i) {
        into[shard.scenario_begin + i] = std::move(shard.outcome.results[i]);
      }
    };
  };
  std::vector<ModelResult> streamed(kScenarios);
  StreamingSweepOptions streaming;
  streaming.batch = batch;
  const StreamingSweepReport report =
      StreamingSweep(streaming).run(store, collect(streamed));
  ASSERT_TRUE(report.complete());

  const auto options = [&](const std::string& worker_id) {
    ShardedSweepOptions sharded;
    sharded.batch = batch;
    sharded.ledger_dir = ledger;
    sharded.worker_id = worker_id;
    sharded.lease = std::chrono::milliseconds(60000);
    sharded.poll = std::chrono::milliseconds(2);
    return sharded;
  };
  std::vector<std::thread> workers;
  for (const char* id : {"w0", "w1"}) {
    workers.emplace_back([&, id] {
      ShardedSweepDriver(options(id)).run_worker(ScenarioStore(store_path));
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  std::vector<ModelResult> merged(kScenarios);
  const MergedSweep merge =
      ShardedSweepDriver(options("merger")).merge(store, collect(merged));
  EXPECT_EQ(merge.report.shard_checksums, report.shard_checksums);

  std::size_t planned = 0;
  std::size_t short_plans = 0;
  for (std::size_t s = 0; s < kScenarios; ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    const FleetPlan& a = streamed[s].fleet;
    const FleetPlan& b = merged[s].fleet;
    EXPECT_EQ(a.planned, b.planned);
    EXPECT_EQ(a.dedicated_feasible, b.dedicated_feasible);
    EXPECT_EQ(a.consolidated_feasible, b.consolidated_feasible);
    expect_same_bits(a.dedicated_shortfall, b.dedicated_shortfall);
    expect_same_bits(a.consolidated_shortfall, b.consolidated_shortfall);
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (std::size_t c = 0; c < a.classes.size(); ++c) {
      const ClassAllocation& x = a.classes[c];
      const ClassAllocation& y = b.classes[c];
      EXPECT_EQ(x.name, y.name);
      expect_same_bits(x.speed, y.speed);
      EXPECT_EQ(x.available, y.available);
      EXPECT_EQ(x.dedicated_servers, y.dedicated_servers);
      EXPECT_EQ(x.consolidated_servers, y.consolidated_servers);
      expect_same_bits(x.dedicated_power_watts, y.dedicated_power_watts);
      expect_same_bits(x.consolidated_power_watts,
                       y.consolidated_power_watts);
    }
    planned += a.planned ? 1 : 0;
    short_plans += a.dedicated_feasible && a.consolidated_feasible ? 0 : 1;
  }
  // The store exercises both fleet shapes and both feasibility outcomes.
  EXPECT_EQ(planned, 16u);
  EXPECT_GT(short_plans, 0u);
  EXPECT_LT(short_plans, planned);

  std::remove(store_path.c_str());
  std::filesystem::remove_all(ledger);
}

TEST(FleetModelTest, SweepFleetMixAxisVariesSlowest) {
  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  web.arrival_rate = intensive_workload(web, 3, 0.01);
  db.arrival_rate = intensive_workload(db, 3, 0.01);
  ConsolidationPlanner planner;
  planner.set_target_loss(0.01).add_service(web).add_service(db);

  dc::Fleet fleet;
  fleet.add(dc::ServerClass::reference("old-gen"));
  fleet.add(fast_class("new-gen", 2.0, dc::ServerClass::kUnbounded));
  planner.set_fleet(fleet);

  SweepGrid grid;
  grid.target_losses({0.01, 0.001})
      .fleet_mixes({{dc::ServerClass::kUnbounded, 0},
                    {0, dc::ServerClass::kUnbounded}});
  ASSERT_EQ(grid.size(), 4u);
  // Mix is the slowest axis: points 0-1 use mix 0, points 2-3 use mix 1.
  EXPECT_EQ(grid.point(1).fleet_mix->front(), dc::ServerClass::kUnbounded);
  EXPECT_EQ(grid.point(2).fleet_mix->front(), 0u);

  const std::vector<SweepCell> cells = planner.sweep(grid);
  ASSERT_EQ(cells.size(), 4u);
  for (const SweepCell& cell : cells) {
    ASSERT_TRUE(cell.report.model.fleet.planned);
    ASSERT_EQ(cell.report.model.fleet.classes.size(), 2u);
  }
  // Mix 0 staffs only old-gen machines; mix 1 only new-gen (at half count,
  // rounded up, since each covers two reference-equivalents).
  const FleetPlan& only_old = cells[0].report.model.fleet;
  const FleetPlan& only_new = cells[2].report.model.fleet;
  EXPECT_GT(only_old.classes[0].dedicated_servers, 0u);
  EXPECT_EQ(only_old.classes[1].dedicated_servers, 0u);
  EXPECT_EQ(only_new.classes[0].dedicated_servers, 0u);
  EXPECT_GT(only_new.classes[1].dedicated_servers, 0u);
  EXPECT_LE(only_new.dedicated_total(), only_old.dedicated_total());
}

TEST(FleetModelTest, MismatchedFleetMixLengthFailsNamingBothSizes) {
  dc::Fleet fleet;
  fleet.add(dc::ServerClass::reference("solo"));
  try {
    fleet.with_counts({1, 2});
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find('1'), std::string::npos) << what;
    EXPECT_NE(what.find('2'), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace vmcons::core
