// Tests for the incremental/memoized Erlang kernel: results must be
// bit-identical to the stateless erlang.hpp free functions on every code
// path (fresh state, prefix hit, prefix extension, uncached tail), the
// log-domain evaluator must agree where the linear recurrence is
// representable and stay finite where it is not, and the cache must be
// safe under concurrent use.
#include "queueing/erlang_kernel.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "queueing/erlang.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace vmcons::queueing {
namespace {

TEST(ErlangKernel, MatchesFreeFunctionOnRandomizedGrid) {
  ErlangKernel kernel;
  Rng rng = make_stream(2024, 0);
  for (int trial = 0; trial < 400; ++trial) {
    const double rho = std::exp(rng.uniform(std::log(0.01), std::log(5e4)));
    const auto servers = rng.uniform_index(2000);
    // Bit-identical: same recurrence, same operation order.
    EXPECT_DOUBLE_EQ(kernel.erlang_b(servers, rho), erlang_b(servers, rho))
        << "n=" << servers << " rho=" << rho;
  }
}

TEST(ErlangKernel, RepeatQueriesHitTheCache) {
  ErlangKernel kernel;
  const double rho = 120.0;
  const double cold = kernel.erlang_b(150, rho);
  const auto after_cold = kernel.stats();
  const double warm = kernel.erlang_b(150, rho);
  const auto after_warm = kernel.stats();
  EXPECT_DOUBLE_EQ(cold, warm);
  EXPECT_EQ(after_cold.cache_hits, 0u);
  EXPECT_EQ(after_warm.cache_hits, 1u);
  // The second query added no recursion steps.
  EXPECT_EQ(after_warm.steps, after_cold.steps);
  // A smaller n on the same rho is also a pure prefix lookup.
  EXPECT_DOUBLE_EQ(kernel.erlang_b(40, rho), erlang_b(40, rho));
  EXPECT_EQ(kernel.stats().steps, after_cold.steps);
  EXPECT_GT(kernel.stats().hit_rate(), 0.5);
}

TEST(ErlangKernel, ExtensionReusesThePrefix) {
  ErlangKernel kernel;
  const double rho = 500.0;
  kernel.erlang_b(100, rho);
  const auto before = kernel.stats();
  kernel.erlang_b(600, rho);
  const auto after = kernel.stats();
  // Extending 100 -> 600 costs exactly 500 steps, not 600.
  EXPECT_EQ(after.steps - before.steps, 500u);
  EXPECT_DOUBLE_EQ(kernel.erlang_b(600, rho), erlang_b(600, rho));
}

TEST(ErlangKernelServers, MatchesFreeFunctionOnRandomizedGrid) {
  ErlangKernel kernel;
  Rng rng = make_stream(2024, 1);
  for (int trial = 0; trial < 300; ++trial) {
    const double rho = std::exp(rng.uniform(std::log(0.05), std::log(2e4)));
    const double target = std::exp(rng.uniform(std::log(1e-6), std::log(0.5)));
    EXPECT_EQ(kernel.erlang_b_servers(rho, target),
              erlang_b_servers(rho, target))
        << "rho=" << rho << " B=" << target;
  }
}

TEST(ErlangKernelServers, SweepOverTargetsSharesOneRecursion) {
  ErlangKernel kernel;
  const double rho = 2000.0;
  // Tightest target first builds the prefix; every later target is a
  // binary search over it.
  const std::vector<double> targets{1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.2};
  kernel.erlang_b_servers(rho, targets.front());
  const auto built = kernel.stats();
  for (const double target : targets) {
    EXPECT_EQ(kernel.erlang_b_servers(rho, target),
              erlang_b_servers(rho, target));
  }
  EXPECT_EQ(kernel.stats().steps, built.steps);
  EXPECT_EQ(kernel.stats().cache_hits, targets.size());
}

TEST(ErlangKernelServers, EdgeCasesMatchFreeFunction) {
  ErlangKernel kernel;
  EXPECT_EQ(kernel.erlang_b_servers(0.0, 0.01), 0u);
  EXPECT_EQ(kernel.erlang_b_servers(100.0, 1.0), 0u);
  EXPECT_THROW(kernel.erlang_b_servers(1.0, 0.0), InvalidArgument);
  EXPECT_THROW(kernel.erlang_b(3, -0.5), InvalidArgument);
}

TEST(ErlangKernelServers, PrefixPastTheConvergenceGuardStillThrows) {
  // The guard for rho = 1 is 1 + 50 + 64 = 115 servers; E_n(1) <= 1e-300
  // needs 167, so the free function gives up.
  EXPECT_THROW(erlang_b_servers(1.0, 1e-300), NumericError);
  ErlangKernel fresh;
  EXPECT_THROW(fresh.erlang_b_servers(1.0, 1e-300), NumericError);

  // A 400-long prefix grown by evaluation holds the answer; staffing must
  // still throw, from the arena and, after publish(), from the snapshot.
  const std::vector<StaffingQuery> past_guard = {{1.0, 1e-300}};
  const auto expect_guarded = [&](ErlangKernel& kernel) {
    EXPECT_THROW(kernel.erlang_b_servers(1.0, 1e-300), NumericError);
    std::vector<std::uint64_t> out(1);
    EXPECT_THROW(kernel.servers_for_many(past_guard, out), NumericError);
    // Answers inside the guard are still served from the prefix.
    EXPECT_EQ(kernel.erlang_b_servers(1.0, 1e-30),
              erlang_b_servers(1.0, 1e-30));
    const std::vector<StaffingQuery> inside = {{1.0, 1e-30}, {1.0, 0.01}};
    std::vector<std::uint64_t> answers(2);
    kernel.servers_for_many(inside, answers);
    EXPECT_EQ(answers[0], erlang_b_servers(1.0, 1e-30));
    EXPECT_EQ(answers[1], erlang_b_servers(1.0, 0.01));
  };
  ErlangKernel scalar;
  scalar.erlang_b(400, 1.0);
  expect_guarded(scalar);
  scalar.publish();
  expect_guarded(scalar);

  ErlangKernel batched;
  const std::vector<BlockingQuery> grow = {{400, 1.0}};
  std::vector<double> blocking(1);
  batched.eval_many(grow, blocking);
  expect_guarded(batched);
  batched.publish();
  expect_guarded(batched);
}

TEST(ErlangKernelCapacity, AgreesWithBisectionInverse) {
  ErlangKernel kernel;
  for (const std::uint64_t n : {1ull, 4ull, 16ull, 64ull, 500ull}) {
    for (const double target : {0.001, 0.01, 0.1}) {
      const double expected = erlang_b_capacity(n, target);
      const double actual = kernel.erlang_b_capacity(n, target);
      EXPECT_NEAR(actual, expected, 1e-9 * (1.0 + expected))
          << "n=" << n << " B=" << target;
      // And it really inverts the blocking.
      EXPECT_NEAR(erlang_b(n, actual), target, 1e-9 * target) << "n=" << n;
    }
  }
}

TEST(ErlangKernelCapacity, ValidatesInputs) {
  ErlangKernel kernel;
  EXPECT_THROW(kernel.erlang_b_capacity(0, 0.01), InvalidArgument);
  EXPECT_THROW(kernel.erlang_b_capacity(4, 0.0), InvalidArgument);
  EXPECT_THROW(kernel.erlang_b_capacity(4, 1.0), InvalidArgument);
}

TEST(ErlangKernelLog, MatchesLinearDomainWhereRepresentable) {
  ErlangKernel kernel;
  Rng rng = make_stream(2024, 2);
  for (int trial = 0; trial < 200; ++trial) {
    const double rho = std::exp(rng.uniform(std::log(0.1), std::log(1e4)));
    const auto servers = 1 + rng.uniform_index(3000);
    const double linear = erlang_b(servers, rho);
    if (linear < 1e-280) {
      continue;  // covered by the underflow test below
    }
    EXPECT_NEAR(kernel.log_erlang_b(servers, rho), std::log(linear),
                1e-12 * (1.0 + std::abs(std::log(linear))))
        << "n=" << servers << " rho=" << rho;
  }
}

TEST(ErlangKernelLog, LargeRhoPointsStayAccurate) {
  ErlangKernel kernel;
  // rho = 1e6: far beyond where naive factorial forms overflow; the
  // recurrence and the log recurrence must agree to ~1e-9 relative
  // (error grows like n * eps over 1e6 steps).
  const double rho = 1e6;
  for (const double over : {1.0, 1.001, 1.01}) {
    const auto servers = static_cast<std::uint64_t>(rho * over);
    const double linear = erlang_b(servers, rho);
    EXPECT_NEAR(std::exp(kernel.log_erlang_b(servers, rho)), linear,
                1e-7 * linear)
        << "n=" << servers;
  }
}

TEST(ErlangKernelLog, FiniteWhereLinearDomainUnderflows) {
  ErlangKernel kernel;
  // rho = 5, n = 500: E_n ~ 5^n/n! shrinks far below DBL_MIN.
  EXPECT_EQ(erlang_b(500, 5.0), 0.0);  // the linear recurrence underflows
  const double log_e = kernel.log_erlang_b(500, 5.0);
  EXPECT_TRUE(std::isfinite(log_e));
  EXPECT_LT(log_e, std::log(1e-300));
  // Still strictly decreasing in n.
  EXPECT_LT(log_e, kernel.log_erlang_b(400, 5.0));
  // Degenerate loads.
  EXPECT_DOUBLE_EQ(kernel.log_erlang_b(0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(kernel.log_erlang_b(3, 0.0)));
}

TEST(ErlangKernel, EvictionKeepsAnswersCorrect) {
  ErlangKernel kernel(/*max_states=*/2);
  // Three distinct rho values churn the 2-slot cache; answers must be
  // unaffected by which states survive.
  for (int round = 0; round < 3; ++round) {
    for (const double rho : {10.0, 20.0, 30.0}) {
      EXPECT_DOUBLE_EQ(kernel.erlang_b(50, rho), erlang_b(50, rho));
    }
  }
}

TEST(ErlangKernel, ClearResetsStateAndStats) {
  ErlangKernel kernel;
  kernel.erlang_b(100, 80.0);
  kernel.clear();
  EXPECT_EQ(kernel.stats().evaluations, 0u);
  EXPECT_EQ(kernel.stats().steps, 0u);
  EXPECT_DOUBLE_EQ(kernel.erlang_b(100, 80.0), erlang_b(100, 80.0));
}

TEST(ErlangKernel, ConcurrentQueriesAreConsistent) {
  ErlangKernel kernel;
  ThreadPool pool(4);
  constexpr std::size_t kQueries = 400;
  std::vector<double> results(kQueries);
  parallel_for(
      kQueries,
      [&](std::size_t i) {
        // A handful of rho values shared across threads maximizes cache
        // contention; derive everything from the index for determinism.
        const double rho = 50.0 + static_cast<double>(i % 7) * 35.0;
        const std::uint64_t servers = 1 + (i % 200);
        results[i] = kernel.erlang_b(servers, rho);
      },
      pool);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double rho = 50.0 + static_cast<double>(i % 7) * 35.0;
    const std::uint64_t servers = 1 + (i % 200);
    EXPECT_DOUBLE_EQ(results[i], erlang_b(servers, rho)) << "i=" << i;
  }
}

TEST(ErlangKernel, PublishMovesArenaIntoSnapshot) {
  ErlangKernel kernel;
  const double rho = 300.0;
  kernel.erlang_b(200, rho);  // cold: built in this thread's arena
  EXPECT_EQ(kernel.stats().snapshot_hits, 0u);
  EXPECT_EQ(kernel.stats().arena_extensions, 1u);
  EXPECT_EQ(kernel.stats().merges, 0u);

  kernel.publish();
  EXPECT_EQ(kernel.stats().merges, 1u);

  // Any query inside the published prefix is now a lock-free snapshot hit
  // costing zero recursion steps — including the exact boundary n.
  const auto before = kernel.stats();
  EXPECT_DOUBLE_EQ(kernel.erlang_b(150, rho), erlang_b(150, rho));
  EXPECT_DOUBLE_EQ(kernel.erlang_b(200, rho), erlang_b(200, rho));
  const auto after = kernel.stats();
  EXPECT_EQ(after.snapshot_hits, before.snapshot_hits + 2);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 2);
  EXPECT_EQ(after.steps, before.steps);
}

TEST(ErlangKernel, ExtensionResumesFromPublishedPrefix) {
  ErlangKernel kernel;
  const double rho = 500.0;
  kernel.erlang_b(100, rho);
  kernel.publish();
  const auto before = kernel.stats();
  // The arena was drained by publish(); extending past the snapshot still
  // resumes at 100, it does not restart from E_0.
  kernel.erlang_b(600, rho);
  const auto after = kernel.stats();
  EXPECT_EQ(after.steps - before.steps, 500u);
  EXPECT_DOUBLE_EQ(kernel.erlang_b(600, rho), erlang_b(600, rho));
}

TEST(ErlangKernel, WatermarkFoldsArenaAutomatically) {
  ErlangKernel kernel;
  // One query whose extension crosses the arena watermark (2^16 doubles)
  // must end its epoch by itself: the merge happens without any explicit
  // publish() and the next covered query is a snapshot hit.
  kernel.erlang_b(70000, 100.0);
  EXPECT_EQ(kernel.stats().merges, 1u);
  const auto before = kernel.stats();
  EXPECT_DOUBLE_EQ(kernel.erlang_b(60000, 100.0), erlang_b(60000, 100.0));
  const auto after = kernel.stats();
  EXPECT_EQ(after.snapshot_hits, before.snapshot_hits + 1);
  EXPECT_EQ(after.steps, before.steps);
}

TEST(ErlangKernel, PublishOnFreshKernelIsHarmless) {
  ErlangKernel kernel;
  kernel.publish();  // no arenas registered anywhere: empty snapshot
  EXPECT_EQ(kernel.stats().merges, 1u);
  EXPECT_DOUBLE_EQ(kernel.erlang_b(50, 40.0), erlang_b(50, 40.0));
}

TEST(ErlangKernel, ClearZeroesConcurrencyCounters) {
  ErlangKernel kernel;
  kernel.erlang_b(200, 300.0);
  kernel.publish();
  kernel.erlang_b(100, 300.0);  // snapshot hit
  ASSERT_GT(kernel.stats().snapshot_hits, 0u);
  ASSERT_GT(kernel.stats().arena_extensions, 0u);
  ASSERT_GT(kernel.stats().merges, 0u);
  kernel.clear();
  const auto stats = kernel.stats();
  EXPECT_EQ(stats.snapshot_hits, 0u);
  EXPECT_EQ(stats.arena_extensions, 0u);
  EXPECT_EQ(stats.merges, 0u);
  // The snapshot was dropped too: the same query is cold again.
  const auto before = kernel.stats();
  kernel.erlang_b(100, 300.0);
  EXPECT_EQ(kernel.stats().steps - before.steps, 100u);
}

TEST(ErlangKernel, ConcurrentPublishAndQueriesAgree) {
  ErlangKernel kernel;
  ThreadPool pool(4);
  constexpr std::size_t kQueries = 600;
  std::vector<double> results(kQueries);
  parallel_for(
      kQueries,
      [&](std::size_t i) {
        // Interleave merges with reads and private extensions: every 97th
        // index publishes mid-traffic. Results must be unaffected — merged
        // prefixes are bit-identical to the arena values they replace.
        if (i % 97 == 0) {
          kernel.publish();
        }
        const double rho = 50.0 + static_cast<double>(i % 5) * 61.0;
        const std::uint64_t servers = 1 + (i % 300);
        results[i] = kernel.erlang_b(servers, rho);
      },
      pool);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double rho = 50.0 + static_cast<double>(i % 5) * 61.0;
    const std::uint64_t servers = 1 + (i % 300);
    EXPECT_DOUBLE_EQ(results[i], erlang_b(servers, rho)) << "i=" << i;
  }
  EXPECT_GE(kernel.stats().merges, 1u);
}

TEST(ErlangKernel, SharedInstanceIsAvailable) {
  // Smoke test only: other suites also use the shared kernel, so no
  // assumptions about its counters.
  EXPECT_DOUBLE_EQ(ErlangKernel::shared().erlang_b(10, 5.0), erlang_b(10, 5.0));
}

TEST(ErlangKernel, ThreadArenaMapStaysBoundedByLiveKernels) {
  // Every kernel generation a thread queries registers one entry in that
  // thread's generation -> arena map. Entries of destroyed or cleared
  // kernels are pruned at the thread's next registration, so however many
  // generations pass through, the map holds the live ones plus at most the
  // one retired since the last registration.
  const std::size_t base = ErlangKernel::thread_arena_entries();
  ErlangKernel resident;  // a live kernel across all the cycles
  EXPECT_EQ(resident.erlang_b(12, 9.5), erlang_b(12, 9.5));
  for (int cycle = 0; cycle < 100000; ++cycle) {
    ErlangKernel kernel;
    EXPECT_EQ(kernel.erlang_b(20, 17.25), erlang_b(20, 17.25));
    ASSERT_LE(ErlangKernel::thread_arena_entries(), base + 2)
        << "construct/destroy cycle " << cycle;
  }
  // clear() frees the calling thread's own arena outright, so a kernel
  // cleared between queries on one thread holds one arena, not one per
  // generation.
  ErlangKernel cleared;
  for (int cycle = 0; cycle < 100000; ++cycle) {
    EXPECT_EQ(cleared.erlang_b(20, 17.25), erlang_b(20, 17.25));
    ASSERT_LE(ErlangKernel::thread_arena_entries(), base + 3)
        << "clear cycle " << cycle;
    ASSERT_EQ(cleared.arena_count(), 1u) << "clear cycle " << cycle;
    cleared.clear();
    ASSERT_EQ(cleared.arena_count(), 0u) << "clear cycle " << cycle;
  }
  EXPECT_EQ(resident.erlang_b(13, 9.5), erlang_b(13, 9.5));
  EXPECT_LE(ErlangKernel::thread_arena_entries(), base + 3);
}

TEST(ErlangKernel, PoolThreadsPruneArenasOfRetiredKernels) {
  // A long-lived pool thread serving a fresh kernel per request (the
  // grid-sweep pattern) or a kernel cleared between requests must not
  // accumulate one map entry per generation.
  ThreadPool pool(1);
  const auto query_on_pool = [&](ErlangKernel& kernel) {
    return pool
        .submit([&kernel] {
          EXPECT_EQ(kernel.erlang_b(30, 21.5), erlang_b(30, 21.5));
          return ErlangKernel::thread_arena_entries();
        })
        .get();
  };
  for (int cycle = 0; cycle < 2000; ++cycle) {
    ErlangKernel kernel;
    ASSERT_LE(query_on_pool(kernel), 1u) << "cycle " << cycle;
  }
  ErlangKernel cleared;
  for (int cycle = 0; cycle < 2000; ++cycle) {
    ASSERT_LE(query_on_pool(cleared), 1u) << "cycle " << cycle;
    cleared.clear();  // on this thread: the pool thread's arena is retired
  }
  // Retired, not freed: the pool thread could still be inside a query.
  EXPECT_EQ(cleared.arena_count(), 2000u);
}

}  // namespace
}  // namespace vmcons::queueing
