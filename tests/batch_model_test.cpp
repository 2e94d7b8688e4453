// Property test: the columnar BatchEvaluator is bit-identical to the
// per-scenario UtilityAnalyticModel::solve() path. Both run the same
// batch_kernels span kernels (solve() is a batch of one), so every field of
// every ModelResult must match with ==, not a tolerance — across random
// service counts, zero-demand resources, impact curves, vms_per_server
// overrides, single-threaded and sharded-parallel evaluation. solve()
// recycles a per-thread batch of one, so the last tests check that no state
// survives a throwing solve or leaks between threads solving at once.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/model.hpp"
#include "core/scenario_batch.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace vmcons::core {
namespace {

/// Draws one random but valid scenario from the per-index stream.
ModelInputs random_inputs(std::uint64_t seed, std::size_t index) {
  Rng rng = make_stream(seed, index);
  ModelInputs inputs;
  // Spread target losses over (1e-4, 0.2).
  inputs.target_loss = 1e-4 + rng.uniform() * 0.2;
  const std::size_t service_count = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < service_count; ++i) {
    dc::ServiceSpec service;
    service.name = "svc" + std::to_string(i);
    service.arrival_rate = rng.uniform(0.5, 500.0);
    bool any = false;
    for (const dc::Resource resource : dc::all_resources()) {
      // ~50% chance a service places no demand on a given resource.
      if (rng.bernoulli(0.5)) {
        continue;
      }
      any = true;
      const double mu = rng.uniform(1.0, 2000.0);
      const double impact = rng.uniform(0.05, 1.0);
      service.demand(resource, mu, virt::Impact::constant(impact));
    }
    if (!any) {  // keep the scenario valid: at least one demand
      service.demand(dc::Resource::kCpu, rng.uniform(1.0, 2000.0),
                     virt::Impact::constant(rng.uniform(0.05, 1.0)));
    }
    inputs.services.push_back(std::move(service));
  }
  if (rng.bernoulli(0.5)) {
    inputs.vms_per_server = 1 + static_cast<unsigned>(rng.uniform_index(8));
  }
  return inputs;
}

void expect_identical(const ModelResult& a, const ModelResult& b,
                      std::size_t index) {
  SCOPED_TRACE("scenario " + std::to_string(index));
  ASSERT_EQ(a.dedicated.size(), b.dedicated.size());
  for (std::size_t i = 0; i < a.dedicated.size(); ++i) {
    EXPECT_EQ(a.dedicated[i].name, b.dedicated[i].name);
    EXPECT_EQ(a.dedicated[i].servers, b.dedicated[i].servers);
    EXPECT_EQ(a.dedicated[i].blocking, b.dedicated[i].blocking);
    for (const dc::Resource resource : dc::all_resources()) {
      const auto r = static_cast<std::size_t>(resource);
      EXPECT_EQ(a.dedicated[i].offered_load[resource],
                b.dedicated[i].offered_load[resource]);
      EXPECT_EQ(a.dedicated[i].servers_per_resource[r],
                b.dedicated[i].servers_per_resource[r]);
    }
  }
  EXPECT_EQ(a.dedicated_servers, b.dedicated_servers);
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    EXPECT_EQ(a.consolidated[r].resource, b.consolidated[r].resource);
    EXPECT_EQ(a.consolidated[r].merged_arrival_rate,
              b.consolidated[r].merged_arrival_rate);
    EXPECT_EQ(a.consolidated[r].effective_service_rate,
              b.consolidated[r].effective_service_rate);
    EXPECT_EQ(a.consolidated[r].offered_load, b.consolidated[r].offered_load);
    EXPECT_EQ(a.consolidated[r].servers, b.consolidated[r].servers);
    EXPECT_EQ(a.consolidated[r].demanded, b.consolidated[r].demanded);
  }
  EXPECT_EQ(a.consolidated_servers, b.consolidated_servers);
  EXPECT_EQ(a.consolidated_blocking, b.consolidated_blocking);
  EXPECT_EQ(a.dedicated_utilization, b.dedicated_utilization);
  EXPECT_EQ(a.consolidated_utilization, b.consolidated_utilization);
  EXPECT_EQ(a.utilization_improvement, b.utilization_improvement);
  EXPECT_EQ(a.dedicated_power_watts, b.dedicated_power_watts);
  EXPECT_EQ(a.consolidated_power_watts, b.consolidated_power_watts);
  EXPECT_EQ(a.power_ratio, b.power_ratio);
  EXPECT_EQ(a.power_saving, b.power_saving);
  EXPECT_EQ(a.infrastructure_saving, b.infrastructure_saving);
}

TEST(BatchModel, BitIdenticalToScalarSolveAcrossRandomScenarios) {
  constexpr std::size_t kScenarios = 1000;
  constexpr std::uint64_t kSeed = 0xba7c4;

  std::vector<ModelInputs> inputs;
  inputs.reserve(kScenarios);
  std::vector<ModelResult> scalar;
  scalar.reserve(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    inputs.push_back(random_inputs(kSeed, i));
    scalar.push_back(UtilityAnalyticModel(inputs.back()).solve());
  }

  const ScenarioBatch batch = ScenarioBatch::from_inputs(inputs);
  ASSERT_EQ(batch.size(), kScenarios);

  // (a) Single-threaded, no counter sink.
  BatchOptions serial;
  serial.parallel = false;
  const std::vector<ModelResult> serial_results =
      BatchEvaluator(serial).evaluate(batch);
  ASSERT_EQ(serial_results.size(), kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    expect_identical(serial_results[i], scalar[i], i);
  }

  // (b) Sharded parallel evaluation counted on a caller-owned kernel:
  // results must not depend on sharding or on the counter sink.
  queueing::ErlangKernel kernel;
  BatchOptions sharded;
  sharded.parallel = true;
  sharded.kernel = &kernel;
  sharded.shard_size = 7;  // deliberately misaligned with the batch size
  const std::vector<ModelResult> sharded_results =
      BatchEvaluator(sharded).evaluate(batch);
  ASSERT_EQ(sharded_results.size(), kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    expect_identical(sharded_results[i], scalar[i], i);
  }
}

TEST(BatchModel, ZeroDemandResourcesStayUnstaffed) {
  // A batch where every scenario demands only CPU: the other resource
  // columns must come back undemanded with zero servers.
  ModelInputs inputs;
  inputs.target_loss = 0.02;
  dc::ServiceSpec service;
  service.name = "cpu_only";
  service.arrival_rate = 120.0;
  service.demand(dc::Resource::kCpu, 60.0, virt::Impact::constant(0.7));
  inputs.services = {service};

  ScenarioBatch batch;
  batch.append(inputs);
  BatchOptions options;
  options.parallel = false;
  const auto results = BatchEvaluator(options).evaluate(batch);
  ASSERT_EQ(results.size(), 1u);
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    const auto& plan = results[0].consolidated[r];
    if (plan.resource == dc::Resource::kCpu) {
      EXPECT_TRUE(plan.demanded);
      EXPECT_GT(plan.servers, 0u);
    } else {
      EXPECT_FALSE(plan.demanded);
      EXPECT_EQ(plan.servers, 0u);
    }
  }
}

/// random_inputs() with, at odd indexes, a random fleet of one to three
/// classes, some bounded and some not.
ModelInputs random_fleet_inputs(std::uint64_t seed, std::size_t index) {
  ModelInputs inputs = random_inputs(seed, index);
  if (index % 2 == 0) {
    return inputs;
  }
  Rng rng = make_stream(seed ^ 0xf1ee7, index);
  const std::size_t classes = 1 + rng.uniform_index(3);
  for (std::size_t c = 0; c < classes; ++c) {
    dc::ServerClass server_class;
    server_class.name = "class" + std::to_string(c);
    for (const dc::Resource resource : dc::all_resources()) {
      server_class.capacity[resource] = rng.uniform(0.5, 3.0);
    }
    server_class.power.base_watts = rng.uniform(150.0, 300.0);
    server_class.power.max_watts =
        server_class.power.base_watts + rng.uniform(10.0, 150.0);
    if (rng.bernoulli(0.5)) {
      server_class.count = rng.uniform_index(40);
    }
    inputs.fleet.add(server_class);
  }
  return inputs;
}

/// expect_identical() plus the fleet plan, field by field.
void expect_identical_with_fleet(const ModelResult& a, const ModelResult& b,
                                 std::size_t index) {
  expect_identical(a, b, index);
  SCOPED_TRACE("fleet of scenario " + std::to_string(index));
  EXPECT_EQ(a.fleet.planned, b.fleet.planned);
  EXPECT_EQ(a.fleet.dedicated_feasible, b.fleet.dedicated_feasible);
  EXPECT_EQ(a.fleet.consolidated_feasible, b.fleet.consolidated_feasible);
  EXPECT_EQ(a.fleet.dedicated_shortfall, b.fleet.dedicated_shortfall);
  EXPECT_EQ(a.fleet.consolidated_shortfall, b.fleet.consolidated_shortfall);
  ASSERT_EQ(a.fleet.classes.size(), b.fleet.classes.size());
  for (std::size_t c = 0; c < a.fleet.classes.size(); ++c) {
    const ClassAllocation& x = a.fleet.classes[c];
    const ClassAllocation& y = b.fleet.classes[c];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.speed, y.speed);
    EXPECT_EQ(x.available, y.available);
    EXPECT_EQ(x.dedicated_servers, y.dedicated_servers);
    EXPECT_EQ(x.consolidated_servers, y.consolidated_servers);
    EXPECT_EQ(x.dedicated_power_watts, y.dedicated_power_watts);
    EXPECT_EQ(x.consolidated_power_watts, y.consolidated_power_watts);
  }
}

/// solve() on a thread that has never solved before.
ModelResult solve_on_fresh_thread(const ModelInputs& inputs) {
  ModelResult result;
  std::thread([&] { result = UtilityAnalyticModel(inputs).solve(); }).join();
  return result;
}

TEST(BatchModel, SolveAfterAThrowingSolveIsBitIdentical) {
  // solve() stages its batch of one in a per-thread batch it recycles. A
  // solve that throws from the kernels, after staging, must leave nothing
  // behind that a later solve on the thread reads. rho = 1 at a target of
  // 1e-300 needs ~170 servers, past the staffing walk's convergence guard
  // (rho + 50 sqrt(rho) + 64), so its staffing throws NumericError.
  ModelInputs throwing;
  throwing.target_loss = 1e-300;
  dc::ServiceSpec service;
  service.name = "unreachable";
  service.arrival_rate = 1.0;
  service.demand(dc::Resource::kCpu, 1.0);
  throwing.services = {service};

  constexpr std::size_t kScenarios = 24;
  constexpr std::uint64_t kSeed = 0x7e57;
  std::vector<ModelInputs> inputs;
  std::vector<ModelResult> fresh;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    inputs.push_back(random_fleet_inputs(kSeed, i));
    fresh.push_back(solve_on_fresh_thread(inputs.back()));
  }

  std::vector<ModelResult> after_throw(kScenarios);
  std::size_t throws = 0;
  std::thread([&] {
    for (std::size_t i = 0; i < kScenarios; ++i) {
      try {
        UtilityAnalyticModel(throwing).solve();
      } catch (const NumericError&) {
        ++throws;
      }
      after_throw[i] = UtilityAnalyticModel(inputs[i]).solve();
    }
  }).join();
  EXPECT_EQ(throws, kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    expect_identical_with_fleet(after_throw[i], fresh[i], i);
  }
}

TEST(BatchModel, ConcurrentSolvesMatchSerial) {
  // Every thread recycles a batch of its own: solves racing on 4 threads,
  // each over all scenarios from a different starting point, must equal
  // the serial solves bit for bit.
  constexpr std::size_t kScenarios = 200;
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kSeed = 0xc0c0;
  std::vector<ModelInputs> inputs;
  std::vector<ModelResult> serial;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    inputs.push_back(random_fleet_inputs(kSeed, i));
    serial.push_back(UtilityAnalyticModel(inputs.back()).solve());
  }

  std::vector<std::vector<ModelResult>> concurrent(
      kThreads, std::vector<ModelResult>(kScenarios));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < kScenarios; ++k) {
        const std::size_t i = (k + t * kScenarios / kThreads) % kScenarios;
        concurrent[t][i] = UtilityAnalyticModel(inputs[i]).solve();
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    SCOPED_TRACE("thread " + std::to_string(t));
    for (std::size_t i = 0; i < kScenarios; ++i) {
      expect_identical_with_fleet(concurrent[t][i], serial[i], i);
    }
  }
}

}  // namespace
}  // namespace vmcons::core
