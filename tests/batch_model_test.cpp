// Property test: the columnar BatchEvaluator is bit-identical to the
// per-scenario UtilityAnalyticModel::solve() path. Both run the same
// batch_kernels span kernels (solve() is a batch of one), so every field of
// every ModelResult must match with ==, not a tolerance — across random
// service counts, zero-demand resources, impact curves, vms_per_server
// overrides, single-threaded and sharded-parallel evaluation.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch_eval.hpp"
#include "core/model.hpp"
#include "core/scenario_batch.hpp"
#include "queueing/erlang_kernel.hpp"
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

}  // namespace
}  // namespace vmcons::core
