// Tests for the metrics registry: counter/timer semantics, stable
// references, snapshot/dump rendering, and thread-safety of increments.
#include "util/metrics.hpp"

#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "core/batch_eval.hpp"
#include "core/report.hpp"
#include "core/scenario_batch.hpp"
#include "queueing/erlang_kernel.hpp"
#include "sim/engine.hpp"
#include "util/parallel_for.hpp"
#include "util/thread_pool.hpp"

namespace vmcons::metrics {
namespace {

TEST(Metrics, CountersAccumulate) {
  Registry registry;
  Counter& counter = registry.counter("requests");
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
  // Same name -> same counter.
  EXPECT_EQ(registry.counter("requests").value(), 42u);
}

TEST(Metrics, TimersAccumulateScopes) {
  Registry registry;
  Timer& timer = registry.timer("phase");
  {
    ScopedTimer scope(timer);
  }
  {
    ScopedTimer scope(timer);
  }
  EXPECT_EQ(timer.count(), 2u);
  EXPECT_GE(timer.total_millis(), 0.0);
  timer.add_nanos(5'000'000);
  EXPECT_EQ(timer.count(), 3u);
  EXPECT_GE(timer.total_millis(), 5.0);
}

TEST(Metrics, SnapshotIsSortedAndComplete) {
  Registry registry;
  registry.counter("b.count").add(2);
  registry.counter("a.count").add(1);
  registry.timer("c.phase").add_nanos(1'000'000);
  const auto rows = registry.snapshot();
  ASSERT_EQ(rows.size(), 4u);  // two counters + timer ms + timer calls
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].name, rows[i].name);
  }
  EXPECT_EQ(rows[0].name, "a.count");
  EXPECT_DOUBLE_EQ(rows[0].value, 1.0);
}

TEST(Metrics, DumpPrintsOneLinePerMetric) {
  Registry registry;
  registry.counter("erlang.evaluations").add(7);
  std::ostringstream out;
  registry.dump(out);
  EXPECT_NE(out.str().find("erlang.evaluations = 7"), std::string::npos);
}

TEST(Metrics, ResetZeroesWithoutInvalidatingReferences) {
  Registry registry;
  Counter& counter = registry.counter("x");
  Timer& timer = registry.timer("y");
  counter.add(5);
  timer.add_nanos(10);
  registry.reset();
  EXPECT_EQ(counter.value(), 0u);
  EXPECT_EQ(timer.count(), 0u);
  counter.add();  // the old reference still points at the live counter
  EXPECT_EQ(registry.counter("x").value(), 1u);
}

TEST(Metrics, ConcurrentIncrementsAreLossless) {
  Registry registry;
  Counter& counter = registry.counter("hot");
  ThreadPool pool(4);
  parallel_for(
      1000, [&](std::size_t) { counter.add(); }, pool);
  EXPECT_EQ(counter.value(), 1000u);
}

TEST(Metrics, ConcurrentRegistrationYieldsOneCounter) {
  Registry registry;
  ThreadPool pool(4);
  parallel_for(
      64, [&](std::size_t) { registry.counter("same.name").add(); }, pool);
  EXPECT_EQ(registry.counter("same.name").value(), 64u);
}

TEST(Metrics, EngineReportsExecutedEvents) {
  const auto before = registry().counter("engine.events").value();
  sim::Engine engine;
  for (int i = 0; i < 25; ++i) {
    engine.schedule_at(static_cast<double>(i), [] {});
  }
  engine.run();
  EXPECT_EQ(registry().counter("engine.events").value(), before + 25);
}

TEST(Metrics, BatchEvaluatorReportsCountersByCanonicalName) {
  core::ModelInputs inputs;
  inputs.target_loss = 0.01;
  dc::ServiceSpec service;
  service.name = "web";
  service.arrival_rate = 100.0;
  service.demand(dc::Resource::kCpu, 50.0, virt::Impact::constant(0.8));
  inputs.services = {service};

  core::ScenarioBatch batch;
  batch.append(inputs);
  batch.append(inputs);
  batch.append(inputs);

  Registry& global = registry();
  const auto evaluations_before =
      global.counter(names::kBatchEvaluations).value();
  const auto scenarios_before = global.counter(names::kBatchScenarios).value();
  const auto shards_before = global.counter(names::kBatchShards).value();
  const auto wall_before = global.timer(names::kBatchWall).count();

  core::BatchOptions options;
  options.parallel = false;
  core::BatchEvaluator evaluator(options);
  ASSERT_EQ(evaluator.evaluate(batch).size(), 3u);

  EXPECT_EQ(global.counter(names::kBatchEvaluations).value(),
            evaluations_before + 1);
  EXPECT_EQ(global.counter(names::kBatchScenarios).value(),
            scenarios_before + 3);
  EXPECT_GE(global.counter(names::kBatchShards).value(), shards_before + 1);
  EXPECT_EQ(global.timer(names::kBatchWall).count(), wall_before + 1);

  // Each staffing pass answers its blocking query at the staffed N from
  // the point its staffing walk stopped at, and the batch counts those
  // answers as hits.
  const auto hits_before = global.counter(names::kBatchKernelHits).value();
  core::BatchEvaluator defaults;
  ASSERT_EQ(defaults.evaluate(batch).size(), 3u);
  EXPECT_GT(global.counter(names::kBatchKernelHits).value(), hits_before);
}

TEST(Metrics, ErlangKernelReportsConcurrencyCountersByCanonicalName) {
  Registry& global = registry();
  const auto evaluations_before =
      global.counter(names::kErlangEvaluations).value();
  const auto steps_before = global.counter(names::kErlangSteps).value();
  const auto hits_before = global.counter(names::kErlangCacheHits).value();
  const auto snapshot_before =
      global.counter(names::kErlangSnapshotHits).value();
  const auto arena_before =
      global.counter(names::kErlangArenaExtensions).value();
  const auto merges_before = global.counter(names::kErlangMerges).value();

  queueing::ErlangKernel kernel;
  kernel.erlang_b(120, 90.0);  // one evaluation, 120 steps
  queueing::ErlangWalk walk;
  const std::vector<queueing::BlockingQuery> span{{60, 90.0}, {120, 90.0}};
  std::vector<double> out(span.size());
  walk.eval_many(span, out);
  walk.eval_many(span, out);  // both answered from the kept values
  kernel.record(walk.tally());

  EXPECT_EQ(global.counter(names::kErlangEvaluations).value(),
            evaluations_before + 5);
  EXPECT_EQ(global.counter(names::kErlangSteps).value(), steps_before + 240);
  EXPECT_EQ(global.counter(names::kErlangCacheHits).value(), hits_before + 2);
  // The shared memo's tiers are gone; their names stay, unfed.
  EXPECT_EQ(global.counter(names::kErlangSnapshotHits).value(),
            snapshot_before);
  EXPECT_EQ(global.counter(names::kErlangArenaExtensions).value(),
            arena_before);
  EXPECT_EQ(global.counter(names::kErlangMerges).value(), merges_before);
}

TEST(Metrics, PrintMetricsRendersBatchCounters) {
  registry().counter(names::kBatchEvaluations).add(0);  // ensure it exists
  std::ostringstream out;
  core::print_metrics(out);
  EXPECT_NE(out.str().find(names::kBatchEvaluations), std::string::npos);
}

TEST(Metrics, PrintMetricsRendersRegistryTable) {
  registry().counter("erlang.evaluations").add(0);  // ensure it exists
  std::ostringstream out;
  core::print_metrics(out);
  EXPECT_NE(out.str().find("metrics"), std::string::npos);
  EXPECT_NE(out.str().find("erlang.evaluations"), std::string::npos);
}

}  // namespace
}  // namespace vmcons::metrics
