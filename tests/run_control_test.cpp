// Fault-tolerant run control: cancellation, deadlines, quarantine, and
// deterministic fault injection across the batch/sweep stack.
//
// The invariants enforced here:
//   * cancellation latency is bounded by one parallel_for chunk (exact on
//     the serial inline path);
//   * an expired Deadline aborts a batch with batch.deadline_exceeded
//     incremented and no tasks left in the pool queue;
//   * under FailurePolicy::kQuarantine the healthy cells of a faulty batch
//     are bit-identical to a clean run, and the failure report names
//     exactly the injected cells;
//   * fault-injected runs replay bit-identically across 1/2/8 workers,
//     because every fault draw derives from the work unit, never the thread.
//
// The fault seed is overridable via VMCONS_FAULT_SEED (scripts/tier1.sh
// pins it) so a red fault run can be replayed exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.hpp"
#include "core/batch_eval.hpp"
#include "core/model.hpp"
#include "core/planner.hpp"
#include "core/scenario_batch.hpp"
#include "core/validation.hpp"
#include "queueing/erlang_kernel.hpp"
#include "queueing/staffing.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"
#include "util/metrics.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/run_control.hpp"
#include "util/thread_pool.hpp"

namespace vmcons::core {
namespace {

using util::FaultInjector;
using util::ScopedFaults;
namespace sites = util::fault_sites;

std::uint64_t fault_seed() {
  if (const char* env = std::getenv("VMCONS_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 2009;
}

/// Same generator shape as batch_determinism_test: random but valid
/// scenarios, fully derived from (seed, index).
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

ScenarioBatch random_batch(std::uint64_t seed, std::size_t count) {
  std::vector<ModelInputs> inputs;
  inputs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    inputs.push_back(random_inputs(seed, i));
  }
  return ScenarioBatch::from_inputs(inputs);
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

/// A small planner whose sweep cells are individually cheap.
ConsolidationPlanner small_planner() {
  ConsolidationPlanner planner;
  planner.set_target_loss(0.01);
  dc::ServiceSpec web;
  web.name = "web";
  web.arrival_rate = 120.0;
  web.demand(dc::Resource::kCpu, 180.0, virt::Impact::constant(0.8));
  web.demand(dc::Resource::kNetwork, 400.0, virt::Impact::constant(0.9));
  planner.add_service(web);
  dc::ServiceSpec db;
  db.name = "db";
  db.arrival_rate = 60.0;
  db.demand(dc::Resource::kCpu, 90.0, virt::Impact::constant(0.75));
  db.demand(dc::Resource::kDiskIo, 150.0, virt::Impact::constant(0.7));
  planner.add_service(db);
  return planner;
}

// --- RunControl primitives ----------------------------------------------

TEST(RunControl, TokenCopiesShareOneStickyFlag) {
  CancelToken token;
  const CancelToken copy = token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_FALSE(copy.cancelled());
  copy.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  copy.cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
  CancelToken fresh;  // new token, new state
  EXPECT_FALSE(fresh.cancelled());
}

TEST(RunControl, UnsetDeadlineNeverExpires) {
  const Deadline unset;
  EXPECT_FALSE(unset.is_set());
  EXPECT_FALSE(unset.expired());
  EXPECT_FALSE(unset.remaining().has_value());
}

TEST(RunControl, DeadlineExpiryAndRemaining) {
  const Deadline past = Deadline::after(std::chrono::milliseconds(-10));
  EXPECT_TRUE(past.is_set());
  EXPECT_TRUE(past.expired());
  EXPECT_EQ(past.remaining().value(), Deadline::Clock::duration::zero());
  const Deadline future = Deadline::after(std::chrono::hours(1));
  EXPECT_FALSE(future.expired());
  EXPECT_GT(future.remaining().value(), Deadline::Clock::duration::zero());
}

TEST(RunControl, RaiseIfStoppedCarriesCodesAndContext) {
  RunControl control;
  EXPECT_EQ(control.stop_reason(), StopReason::kNone);
  EXPECT_NO_THROW(control.raise_if_stopped("idle"));

  RunControl expired;
  expired.deadline = Deadline::after(std::chrono::milliseconds(-1));
  EXPECT_EQ(expired.stop_reason(), StopReason::kDeadlineExceeded);
  try {
    expired.raise_if_stopped("the sweep");
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kDeadlineExceeded);
    EXPECT_NE(std::string(error.what()).find("the sweep"), std::string::npos);
  }

  // Cancellation outranks deadline expiry when both hold.
  expired.token.cancel();
  EXPECT_EQ(expired.stop_reason(), StopReason::kCancelled);
  try {
    expired.raise_if_stopped("the sweep");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kCancelled);
  }
}

TEST(RunControl, ErrorCodeNamesAreStable) {
  EXPECT_STREQ(error_code_name(ErrorCode::kCancelled), "cancelled");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kFaultInjected), "fault_injected");
}

// --- parallel_for / parallel_map cancellation ---------------------------

TEST(RunControl, ParallelForCancelStopsWithinOneChunk) {
  constexpr std::size_t kCount = 100000;
  constexpr std::size_t kGrain = 64;
  constexpr std::size_t kThreshold = 200;
  ThreadPool pool(2);
  RunControl control;
  std::atomic<std::size_t> executed{0};
  parallel_for(
      kCount,
      [&](std::size_t) {
        if (executed.fetch_add(1, std::memory_order_relaxed) + 1 ==
            kThreshold) {
          control.token.cancel();
        }
      },
      pool, kGrain, &control);
  // After the cancel, each in-flight chunk finishes at most its own grain;
  // +1 chunk of slack for a chunk that passed its gate just before the flag
  // flipped. Without the stop this loop would run all 100000 iterations.
  EXPECT_GE(executed.load(), kThreshold);
  EXPECT_LE(executed.load(), kThreshold + (pool.size() + 1) * kGrain);
  EXPECT_EQ(pool.queued(), 0u);  // aborted chunks were joined, not leaked
}

TEST(RunControl, ParallelForInlinePathCancelsExactly) {
  ThreadPool pool(1);  // single worker: the serial inline path
  RunControl control;
  std::size_t executed = 0;
  parallel_for(
      1000,
      [&](std::size_t i) {
        ++executed;
        if (i == 41) {
          control.token.cancel();
        }
      },
      pool, 0, &control);
  // The inline path checks between every iteration: i = 0..41 ran.
  EXPECT_EQ(executed, 42u);
}

TEST(RunControl, ParallelMapThrowsOnUnfilledSlots) {
  ThreadPool pool(2);
  RunControl control;
  control.token.cancel();
  EXPECT_THROW(parallel_map(
                   64, [](std::size_t i) { return i; }, pool, 4, &control),
               CancelledError);

  RunControl expired;
  expired.deadline = Deadline::after(std::chrono::milliseconds(-1));
  EXPECT_THROW(parallel_map(
                   64, [](std::size_t i) { return i; }, pool, 4, &expired),
               DeadlineExceededError);
}

TEST(RunControl, ParallelForWithoutControlRunsToCompletion) {
  ThreadPool pool(2);
  std::atomic<std::size_t> executed{0};
  parallel_for(
      1000, [&](std::size_t) { executed.fetch_add(1); }, pool);
  EXPECT_EQ(executed.load(), 1000u);
}

// --- Batch cancellation / deadlines -------------------------------------

TEST(RunControl, BatchExpiredDeadlineAbortsCleanly) {
  const ScenarioBatch batch = random_batch(0xdead, 64);
  ThreadPool pool(2);
  queueing::ErlangKernel kernel;
  BatchOptions options;
  options.kernel = &kernel;
  options.pool = &pool;
  options.control.deadline = Deadline::after(std::chrono::milliseconds(-1));

  auto& counter =
      metrics::registry().counter(metrics::names::kBatchDeadlineExceeded);
  const std::uint64_t before = counter.value();
  const BatchOutcome outcome = BatchEvaluator(options).evaluate_all(batch);
  EXPECT_TRUE(outcome.deadline_exceeded);
  EXPECT_FALSE(outcome.cancelled);
  EXPECT_FALSE(outcome.complete());
  EXPECT_EQ(outcome.evaluated_count(), 0u);
  EXPECT_TRUE(outcome.failures.empty());
  EXPECT_EQ(counter.value(), before + 1);
  EXPECT_EQ(pool.queued(), 0u);  // no leaked pool tasks

  // The throwing face reports the same stop as an exception.
  try {
    BatchEvaluator(options).evaluate(batch);
    FAIL() << "expected DeadlineExceededError";
  } catch (const DeadlineExceededError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kDeadlineExceeded);
  }
}

TEST(RunControl, BatchPreCancelledCountsCancelMetric) {
  const ScenarioBatch batch = random_batch(0xbeef, 32);
  BatchOptions options;
  options.control.token.cancel();
  auto& counter = metrics::registry().counter(metrics::names::kBatchCancelled);
  const std::uint64_t before = counter.value();
  const BatchOutcome outcome = BatchEvaluator(options).evaluate_all(batch);
  EXPECT_TRUE(outcome.cancelled);
  EXPECT_FALSE(outcome.deadline_exceeded);
  EXPECT_EQ(outcome.evaluated_count(), 0u);
  EXPECT_EQ(counter.value(), before + 1);
  EXPECT_THROW(BatchEvaluator(options).evaluate(batch), CancelledError);
}

TEST(RunControl, DeadlineInterruptsDelayedShards) {
  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  injector.set_seed(fault_seed());
  // Every shard sleeps 5 ms; 64 one-scenario shards over 2 workers need
  // ~160 ms, far beyond the 20 ms budget — the deadline must fire mid-run.
  FaultInjector::SiteConfig delays;
  delays.delay_rate = 1.0;
  delays.delay = std::chrono::milliseconds(5);
  injector.arm(sites::kBatchShard, delays);

  const ScenarioBatch batch = random_batch(0xf00d, 64);
  ThreadPool pool(2);
  queueing::ErlangKernel kernel;
  BatchOptions options;
  options.kernel = &kernel;
  options.pool = &pool;
  options.shard_size = 1;
  options.control.deadline = Deadline::after(std::chrono::milliseconds(20));
  const BatchOutcome outcome = BatchEvaluator(options).evaluate_all(batch);
  EXPECT_TRUE(outcome.deadline_exceeded);
  EXPECT_LT(outcome.evaluated_count(), batch.size());
  EXPECT_EQ(pool.queued(), 0u);
}

TEST(RunControl, CrossThreadCancelInterruptsARunningBatch) {
  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  injector.set_seed(fault_seed());
  FaultInjector::SiteConfig delays;
  delays.delay_rate = 1.0;
  delays.delay = std::chrono::milliseconds(5);
  injector.arm(sites::kBatchShard, delays);

  const ScenarioBatch batch = random_batch(0xcafe, 64);
  ThreadPool pool(2);
  queueing::ErlangKernel kernel;
  BatchOptions options;
  options.kernel = &kernel;
  options.pool = &pool;
  options.shard_size = 1;
  // The caller keeps a copy of the token; the options struct holds another.
  const CancelToken token = options.control.token;
  std::thread canceller([token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    token.cancel();
  });
  const BatchOutcome outcome = BatchEvaluator(options).evaluate_all(batch);
  canceller.join();
  EXPECT_TRUE(outcome.cancelled);
  EXPECT_LT(outcome.evaluated_count(), batch.size());
  EXPECT_EQ(pool.queued(), 0u);
}

// --- Admission / validation run control ---------------------------------

TEST(RunControl, AdmissionSearchesHonorTheDeadline) {
  const ModelInputs inputs = random_inputs(0xad31, 0);
  RunControl expired;
  expired.deadline = Deadline::after(std::chrono::milliseconds(-1));
  EXPECT_THROW(max_workload_scale(inputs, 16, expired),
               DeadlineExceededError);

  dc::ServiceSpec candidate;
  candidate.name = "newcomer";
  candidate.demand(dc::Resource::kCpu, 50.0, virt::Impact::constant(0.8));
  RunControl cancelled;
  cancelled.token.cancel();
  EXPECT_THROW(admission_headroom(inputs, candidate, 16, cancelled),
               CancelledError);
}

TEST(RunControl, ValidateManyRaisesOnExpiredDeadline) {
  const ModelInputs inputs = random_inputs(0x7a11, 3);
  ValidationOptions options;
  options.replications = 2;
  options.control.deadline = Deadline::after(std::chrono::milliseconds(-1));
  EXPECT_THROW(validate(inputs, options), DeadlineExceededError);
}

// --- FaultInjector ------------------------------------------------------

TEST(FaultInject, ArmRejectsUnknownSitesAndBadRates) {
  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  EXPECT_THROW(injector.arm("no.such.site", {}), InvalidArgument);
  FaultInjector::SiteConfig bad;
  bad.error_rate = 1.5;
  EXPECT_THROW(injector.arm(sites::kBatchCell, bad), InvalidArgument);
  bad.error_rate = -0.1;
  EXPECT_THROW(injector.arm(sites::kBatchCell, bad), InvalidArgument);
  EXPECT_EQ(FaultInjector::known_sites().size(), 7u);
}

TEST(FaultInject, DisarmedInjectorIsInertAndDisabled) {
  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  EXPECT_FALSE(FaultInjector::enabled());
  EXPECT_NO_THROW(injector.check(sites::kBatchCell, 7));
  EXPECT_FALSE(injector.would_fail(sites::kBatchCell, 7));
  FaultInjector::SiteConfig faults;
  faults.error_rate = 1.0;
  injector.arm(sites::kBatchCell, faults);
  EXPECT_TRUE(FaultInjector::enabled());
  // A different site stays inert even while another is armed.
  EXPECT_NO_THROW(injector.check(sites::kErlangEval, 7));
  injector.disarm_all();
  EXPECT_FALSE(FaultInjector::enabled());
}

TEST(FaultInject, DrawsAreDeterministicAndSeedSensitive) {
  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  injector.set_seed(fault_seed());
  FaultInjector::SiteConfig faults;
  faults.error_rate = 0.1;
  injector.arm(sites::kBatchCell, faults);

  std::vector<bool> first;
  std::size_t failing = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    first.push_back(injector.would_fail(sites::kBatchCell, i));
    failing += first.back();
  }
  // would_fail is a pure function of (seed, site, index).
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_EQ(injector.would_fail(sites::kBatchCell, i), first[i]);
  }
  // ~10% of indexes fail (generous bounds: binomial, n = 10000).
  EXPECT_GT(failing, 700u);
  EXPECT_LT(failing, 1300u);
  // check() agrees with would_fail and throws the structured code.
  for (std::uint64_t i = 0; i < 100; ++i) {
    if (first[i]) {
      try {
        injector.check(sites::kBatchCell, i);
        FAIL() << "expected injected fault at index " << i;
      } catch (const NumericError& error) {
        EXPECT_EQ(error.code(), ErrorCode::kFaultInjected);
      }
    } else {
      EXPECT_NO_THROW(injector.check(sites::kBatchCell, i));
    }
  }
  // A different seed produces a different failure set.
  injector.set_seed(fault_seed() + 1);
  std::size_t differing = 0;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    differing += injector.would_fail(sites::kBatchCell, i) != first[i];
  }
  EXPECT_GT(differing, 0u);
}

TEST(FaultInject, FaultIndexIsValueDerived) {
  // Same query bits -> same index; different bits -> (almost surely)
  // different index. This is what makes erlang.eval/staffing.inverse faults
  // land on the same query no matter which thread stages it.
  EXPECT_EQ(util::fault_index(12.5, 0.01, 3), util::fault_index(12.5, 0.01, 3));
  EXPECT_NE(util::fault_index(12.5, 0.01, 3), util::fault_index(12.5, 0.01, 4));
  EXPECT_NE(util::fault_index(12.5, 0.01), util::fault_index(12.500001, 0.01));
}

TEST(FaultInject, StaffingSiteFiresInScalarPath) {
  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  injector.set_seed(fault_seed());
  FaultInjector::SiteConfig faults;
  faults.error_rate = 1.0;
  injector.arm(sites::kStaffingInverse, faults);
  try {
    queueing::staffing_with_queue(100.0, 10.0, 4, 0.01);
    FAIL() << "expected injected fault";
  } catch (const NumericError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kFaultInjected);
    EXPECT_NE(std::string(error.what()).find("staffing.inverse"),
              std::string::npos);
  }
}

// --- Quarantine ---------------------------------------------------------

TEST(FaultInject, QuarantinedBatchMatchesCleanRunOnHealthyCells) {
  constexpr std::size_t kScenarios = 200;
  const ScenarioBatch batch = random_batch(0x9a4a, kScenarios);

  // Clean reference run (injector disarmed).
  std::vector<ModelResult> clean;
  {
    ScopedFaults guard;
    ThreadPool pool(4);
    queueing::ErlangKernel kernel;
    BatchOptions options;
    options.kernel = &kernel;
    options.pool = &pool;
    clean = BatchEvaluator(options).evaluate(batch);
  }

  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  injector.set_seed(fault_seed());
  FaultInjector::SiteConfig faults;
  faults.error_rate = 0.05;
  injector.arm(sites::kBatchCell, faults);
  std::set<std::size_t> expected;
  for (std::size_t s = 0; s < kScenarios; ++s) {
    if (injector.would_fail(sites::kBatchCell, s)) {
      expected.insert(s);
    }
  }
  ASSERT_FALSE(expected.empty()) << "rate 0.05 over 200 cells drew no faults";

  ThreadPool pool(4);
  queueing::ErlangKernel kernel;
  BatchOptions options;
  options.kernel = &kernel;
  options.pool = &pool;
  options.policy = FailurePolicy::kQuarantine;
  auto& counter =
      metrics::registry().counter(metrics::names::kBatchQuarantined);
  const std::uint64_t before = counter.value();
  const BatchOutcome outcome = BatchEvaluator(options).evaluate_all(batch);

  EXPECT_FALSE(outcome.cancelled);
  EXPECT_FALSE(outcome.deadline_exceeded);
  EXPECT_EQ(counter.value(), before + expected.size());

  // The failure report is exactly the injected set, in scenario order.
  ASSERT_EQ(outcome.failures.size(), expected.size());
  std::size_t at = 0;
  for (const std::size_t s : expected) {
    const CellFailure& failure = outcome.failures[at++];
    EXPECT_EQ(failure.scenario_index, s);
    EXPECT_EQ(failure.code, ErrorCode::kFaultInjected);
    EXPECT_NE(failure.message.find("batch.cell"), std::string::npos);
  }

  // Healthy cells are bit-identical to the clean run; quarantined cells
  // hold default results.
  ASSERT_EQ(outcome.results.size(), kScenarios);
  for (std::size_t s = 0; s < kScenarios; ++s) {
    if (expected.count(s) != 0) {
      EXPECT_EQ(outcome.evaluated[s], 0);
      EXPECT_EQ(outcome.results[s].consolidated_servers, 0u);
    } else {
      EXPECT_EQ(outcome.evaluated[s], 1);
      expect_identical(outcome.results[s], clean[s], s);
    }
  }
}

TEST(FaultInject, ErlangSiteFaultsAreQuarantinedPerCell) {
  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  injector.set_seed(fault_seed());
  FaultInjector::SiteConfig faults;
  faults.error_rate = 1.0;  // every Erlang staffing query fails...
  injector.arm(sites::kStaffingInverse, faults);

  const ScenarioBatch batch = random_batch(0xe14a, 24);
  BatchOptions options;
  options.policy = FailurePolicy::kQuarantine;
  const BatchOutcome outcome = BatchEvaluator(options).evaluate_all(batch);
  // ...so every cell is quarantined, and the batch still returns.
  EXPECT_EQ(outcome.failures.size(), batch.size());
  EXPECT_EQ(outcome.evaluated_count(), 0u);
  for (const CellFailure& failure : outcome.failures) {
    EXPECT_EQ(failure.code, ErrorCode::kFaultInjected);
  }

  // The same arming under kFailFast propagates instead.
  options.policy = FailurePolicy::kFailFast;
  try {
    BatchEvaluator(options).evaluate(batch);
    FAIL() << "expected injected fault to propagate under kFailFast";
  } catch (const NumericError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kFaultInjected);
  }
}

TEST(FaultInject, FaultRunsAreBitIdenticalAcross1And2And8Workers) {
  constexpr std::size_t kScenarios = 200;
  const ScenarioBatch batch = random_batch(0x1de7, kScenarios);

  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  injector.set_seed(fault_seed());
  FaultInjector::SiteConfig cell_faults;
  cell_faults.error_rate = 0.03;
  injector.arm(sites::kBatchCell, cell_faults);
  // Shard-level faults exercise the cell-at-a-time retry path; with a fixed
  // shard_size the shard boundaries (hence draws) are worker-independent.
  FaultInjector::SiteConfig shard_faults;
  shard_faults.error_rate = 0.2;
  injector.arm(sites::kBatchShard, shard_faults);

  struct Run {
    BatchOutcome outcome;
  };
  std::vector<Run> runs;
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    queueing::ErlangKernel kernel;
    BatchOptions options;
    options.kernel = &kernel;
    options.pool = &pool;
    options.shard_size = 16;  // worker-independent shard boundaries
    options.policy = FailurePolicy::kQuarantine;
    runs.push_back({BatchEvaluator(options).evaluate_all(batch)});
  }

  const BatchOutcome& reference = runs.front().outcome;
  ASSERT_FALSE(reference.failures.empty());
  EXPECT_LT(reference.failures.size(), kScenarios);
  for (std::size_t r = 1; r < runs.size(); ++r) {
    const BatchOutcome& other = runs[r].outcome;
    SCOPED_TRACE("run " + std::to_string(r));
    ASSERT_EQ(other.failures.size(), reference.failures.size());
    for (std::size_t f = 0; f < reference.failures.size(); ++f) {
      EXPECT_EQ(other.failures[f].scenario_index,
                reference.failures[f].scenario_index);
      EXPECT_EQ(other.failures[f].code, reference.failures[f].code);
      EXPECT_EQ(other.failures[f].message, reference.failures[f].message);
    }
    ASSERT_EQ(other.evaluated, reference.evaluated);
    for (std::size_t s = 0; s < kScenarios; ++s) {
      if (reference.evaluated[s] != 0) {
        expect_identical(other.results[s], reference.results[s], s);
      }
    }
  }
}

// --- The sweep acceptance: 10k cells, 1% faults, 1/2/8 workers ----------

TEST(FaultInject, SweepQuarantinesExactlyTheInjectedCellsAt10kScale) {
  const ConsolidationPlanner planner = small_planner();
  std::vector<double> losses;
  for (int i = 0; i < 20; ++i) {
    losses.push_back(0.001 + 0.002 * i);
  }
  std::vector<double> scales;
  for (int i = 0; i < 100; ++i) {
    scales.push_back(0.5 + 0.015 * i);
  }
  const SweepGrid grid = SweepGrid()
                             .target_losses(losses)
                             .workload_scales(scales)
                             .vms_per_server({1, 2, 3, 4, 8});
  ASSERT_EQ(grid.size(), 10000u);

  ScopedFaults guard;
  FaultInjector& injector = FaultInjector::global();
  injector.set_seed(fault_seed());
  FaultInjector::SiteConfig faults;
  faults.error_rate = 0.01;
  injector.arm(sites::kBatchCell, faults);
  std::set<std::size_t> expected;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (injector.would_fail(sites::kBatchCell, i)) {
      expected.insert(i);
    }
  }
  ASSERT_FALSE(expected.empty());

  std::vector<SweepOutcome> outcomes;
  for (const std::size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    queueing::ErlangKernel kernel;
    SweepOptions options;
    options.kernel = &kernel;
    options.pool = &pool;
    options.policy = FailurePolicy::kQuarantine;
    outcomes.push_back(planner.sweep_all(grid, options));
  }

  for (std::size_t r = 0; r < outcomes.size(); ++r) {
    const SweepOutcome& outcome = outcomes[r];
    SCOPED_TRACE("run " + std::to_string(r));
    EXPECT_FALSE(outcome.cancelled);
    EXPECT_FALSE(outcome.deadline_exceeded);
    // The 1% injected fault set, exactly — nothing more, nothing less.
    ASSERT_EQ(outcome.failures.size(), expected.size());
    std::size_t at = 0;
    for (const std::size_t i : expected) {
      EXPECT_EQ(outcome.failures[at].scenario_index, i);
      EXPECT_EQ(outcome.failures[at].code, ErrorCode::kFaultInjected);
      ++at;
    }
    ASSERT_EQ(outcome.cells.size(), grid.size());
    for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
      EXPECT_EQ(outcome.cells[i].evaluated, expected.count(i) == 0);
    }
  }

  // Healthy cells bit-identical across 1/2/8 workers.
  const SweepOutcome& reference = outcomes.front();
  for (std::size_t r = 1; r < outcomes.size(); ++r) {
    const SweepOutcome& other = outcomes[r];
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (!reference.cells[i].evaluated) {
        continue;
      }
      expect_identical(other.cells[i].report.model,
                       reference.cells[i].report.model, i);
    }
  }
}

}  // namespace
}  // namespace vmcons::core
