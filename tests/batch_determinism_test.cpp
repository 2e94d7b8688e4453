// Concurrency-determinism property test for the batch Erlang path: the
// same randomized ScenarioBatch evaluated over 1-, 2-, and 8-thread pools —
// counted on one ErlangKernel that a separate thread queries directly at
// the same time — must produce bit-identical plans under every
// configuration. Each shard walks its own recurrences and the E_n(rho)
// recurrence is deterministic with a fixed operation order, so this holds
// by construction; this suite is the enforcement.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/model.hpp"
#include "core/scenario_batch.hpp"
#include "queueing/erlang.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vmcons::core {
namespace {

/// Same generator shape as batch_model_test: random but valid scenarios,
/// fully derived from (seed, index).
ModelInputs random_inputs(std::uint64_t seed, std::size_t index) {
  Rng rng = make_stream(seed, index);
  ModelInputs inputs;
  inputs.target_loss = 1e-4 + rng.uniform() * 0.2;
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

void expect_identical(const ModelResult& a, const ModelResult& b,
                      std::size_t index) {
  SCOPED_TRACE("scenario " + std::to_string(index));
  ASSERT_EQ(a.dedicated.size(), b.dedicated.size());
  for (std::size_t i = 0; i < a.dedicated.size(); ++i) {
    EXPECT_EQ(a.dedicated[i].servers, b.dedicated[i].servers);
    EXPECT_EQ(a.dedicated[i].blocking, b.dedicated[i].blocking);
  }
  EXPECT_EQ(a.dedicated_servers, b.dedicated_servers);
  EXPECT_EQ(a.consolidated_servers, b.consolidated_servers);
  EXPECT_EQ(a.consolidated_blocking, b.consolidated_blocking);
  EXPECT_EQ(a.dedicated_utilization, b.dedicated_utilization);
  EXPECT_EQ(a.consolidated_utilization, b.consolidated_utilization);
  EXPECT_EQ(a.utilization_improvement, b.utilization_improvement);
  EXPECT_EQ(a.dedicated_power_watts, b.dedicated_power_watts);
  EXPECT_EQ(a.consolidated_power_watts, b.consolidated_power_watts);
  EXPECT_EQ(a.power_saving, b.power_saving);
  EXPECT_EQ(a.infrastructure_saving, b.infrastructure_saving);
}

/// The index-derived direct kernel traffic interleaved with each batch.
double direct_rho(std::size_t i) {
  return 20.0 + static_cast<double>(i % 13) * 17.0;
}
std::uint64_t direct_servers(std::size_t i) { return 1 + (i % 120); }

TEST(BatchDeterminism, PlansIdenticalAcross1And2And8Threads) {
  constexpr std::size_t kScenarios = 200;
  constexpr std::size_t kDirectQueries = 300;
  constexpr std::uint64_t kSeed = 0xd37e2;

  std::vector<ModelInputs> inputs;
  inputs.reserve(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    inputs.push_back(random_inputs(kSeed, i));
  }
  const ScenarioBatch batch = ScenarioBatch::from_inputs(inputs);

  struct Run {
    std::vector<ModelResult> results;
    std::vector<double> direct;
    queueing::ErlangKernel::Stats stats;
  };
  std::vector<Run> runs;
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    queueing::ErlangKernel kernel;
    BatchOptions options;
    options.kernel = &kernel;
    options.pool = &pool;
    options.shard_size = 9;  // many shards, misaligned with the batch size

    Run run;
    run.direct.resize(kDirectQueries);
    // Direct scalar queries race the batch from a foreign thread, adding
    // to the same kernel's counters while the shards record theirs.
    std::thread interleaved([&] {
      for (std::size_t i = 0; i < kDirectQueries; ++i) {
        run.direct[i] = kernel.erlang_b(direct_servers(i), direct_rho(i));
      }
    });
    run.results = BatchEvaluator(options).evaluate(batch);
    interleaved.join();
    run.stats = kernel.stats();
    runs.push_back(std::move(run));
  }

  for (std::size_t r = 1; r < runs.size(); ++r) {
    ASSERT_EQ(runs[r].results.size(), runs[0].results.size());
    for (std::size_t i = 0; i < runs[0].results.size(); ++i) {
      expect_identical(runs[r].results[i], runs[0].results[i], i);
    }
    // Shards are fixed by shard_size, not by the worker count, so the
    // counters are fixed by the workload too.
    EXPECT_EQ(runs[r].stats.evaluations, runs[0].stats.evaluations);
    EXPECT_EQ(runs[r].stats.steps, runs[0].stats.steps);
    EXPECT_EQ(runs[r].stats.cache_hits, runs[0].stats.cache_hits);
  }

  // The interleaved direct traffic is bit-identical to the free functions
  // regardless of what the batch was doing to the kernel at the time.
  for (const Run& run : runs) {
    for (std::size_t i = 0; i < kDirectQueries; ++i) {
      EXPECT_EQ(run.direct[i],
                queueing::erlang_b(direct_servers(i), direct_rho(i)))
          << "direct query " << i;
    }
  }
}

TEST(BatchDeterminism, PostMergeProbesMatchEveryConfiguration) {
  constexpr std::size_t kScenarios = 60;
  constexpr std::uint64_t kSeed = 0x5eed5;

  std::vector<ModelInputs> inputs;
  inputs.reserve(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    inputs.push_back(random_inputs(kSeed, i));
  }
  const ScenarioBatch batch = ScenarioBatch::from_inputs(inputs);

  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    queueing::ErlangKernel kernel;
    BatchOptions options;
    options.kernel = &kernel;
    options.pool = &pool;
    options.shard_size = 5;
    BatchEvaluator(options).evaluate(batch);
    // The batch counted its walks on the kernel; probes through it after
    // the batch must equal the free functions bit-for-bit no matter how
    // many workers the batch ran on.
    EXPECT_GT(kernel.stats().evaluations, 0u);
    for (std::size_t i = 0; i < 50; ++i) {
      const double rho = direct_rho(i * 3);
      const std::uint64_t servers = direct_servers(i * 7);
      EXPECT_EQ(kernel.erlang_b(servers, rho),
                queueing::erlang_b(servers, rho))
          << "probe " << i << " at " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace vmcons::core
