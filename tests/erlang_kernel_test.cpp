// Tests for the Erlang kernel's scalar entry points and its counters:
// results must be bit-identical to the stateless erlang.hpp free functions,
// a walk that asks one load at several points must walk its recurrence
// once, the log-domain evaluator must agree where the linear recurrence is
// representable and stay finite where it is not, and the counters must be
// safe when concurrent walks record() into one kernel.
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

TEST(ErlangKernel, ExtensionReusesThePrefix) {
  ErlangWalk walk;
  const double rho = 500.0;
  // One span asks the load at 100 and at 600: the walk keeps E_0..E_100
  // and extends them to 600, so it costs 600 steps, not 100 + 600.
  const std::vector<BlockingQuery> span{{100, rho}, {600, rho}};
  std::vector<double> out(span.size());
  walk.eval_many(span, out);
  EXPECT_EQ(walk.tally().steps, 600u);
  EXPECT_EQ(out[0], erlang_b(100, rho));
  EXPECT_EQ(out[1], erlang_b(600, rho));
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
  const double rho = 2000.0;
  const std::vector<double> targets{0.2, 1e-4, 0.05, 1e-6, 1e-3, 0.01};
  // The tightest target alone sets the walk's length...
  ErlangKernel tightest;
  tightest.erlang_b_servers(rho, 1e-6);
  const auto walked = tightest.stats().steps;
  EXPECT_EQ(walked, erlang_b_servers(rho, 1e-6));
  // ...and one span over every target walks no further: each target is a
  // binary search over the values that one walk kept.
  ErlangWalk walk;
  std::vector<StaffingQuery> sweep;
  for (const double target : targets) {
    sweep.push_back({rho, target});
  }
  std::vector<std::uint64_t> out(sweep.size());
  walk.servers_for_many(sweep, out);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    EXPECT_EQ(out[i], erlang_b_servers(rho, targets[i]));
  }
  EXPECT_EQ(walk.tally().steps, walked);
  EXPECT_EQ(walk.tally().evaluations, targets.size());
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

  // A walk that kept 400 values by evaluation holds the answer; staffing
  // must still throw, whether it reads the kept values (several targets)
  // or walks on from the resume point (one target).
  const std::vector<StaffingQuery> past_guard = {{1.0, 1e-300}};
  const std::vector<StaffingQuery> several_past_guard = {{1.0, 1e-300},
                                                         {1.0, 0.01}};
  const std::vector<StaffingQuery> inside = {{1.0, 1e-30}, {1.0, 0.01}};
  const std::vector<BlockingQuery> kept = {{400, 1.0}, {399, 1.0}};
  const std::vector<BlockingQuery> resume = {{400, 1.0}};
  for (const auto* grow : {&kept, &resume}) {
    ErlangWalk walk;
    std::vector<double> blocking(grow->size());
    walk.eval_many(*grow, blocking);
    std::vector<std::uint64_t> out(2);
    EXPECT_THROW(walk.servers_for_many(past_guard,
                                       std::span<std::uint64_t>(out.data(), 1)),
                 NumericError);
    EXPECT_THROW(walk.servers_for_many(several_past_guard, out), NumericError);
    // Answers inside the guard are still served.
    walk.servers_for_many(inside, out);
    EXPECT_EQ(out[0], erlang_b_servers(1.0, 1e-30));
    EXPECT_EQ(out[1], erlang_b_servers(1.0, 0.01));
  }
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
        // A handful of rho values shared across threads; derive everything
        // from the index for determinism.
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

TEST(ErlangKernel, ConcurrentSpansAndStaffingAgree) {
  // Scalar queries answer through walks of their own; spans answer through
  // a caller's walk that record()s its tally, as a staffing pass does.
  ErlangKernel kernel;
  ThreadPool pool(4);
  constexpr std::size_t kQueries = 600;
  std::vector<double> results(kQueries);
  std::vector<std::uint64_t> staffed(kQueries);
  parallel_for(
      kQueries,
      [&](std::size_t i) {
        // Interleave scalar queries, spans and staffing searches on shared
        // loads; every third index asks a span of two points.
        const double rho = 50.0 + static_cast<double>(i % 5) * 61.0;
        const std::uint64_t servers = 1 + (i % 300);
        if (i % 3 == 0) {
          const std::vector<BlockingQuery> span{{servers, rho},
                                                {servers + 40, rho}};
          std::vector<double> out(span.size());
          ErlangWalk walk;
          walk.eval_many(span, out);
          kernel.record(walk.tally());
          results[i] = out[0];
        } else {
          results[i] = kernel.erlang_b(servers, rho);
        }
        staffed[i] = kernel.erlang_b_servers(rho, 1.0 / (2.0 + i % 50));
      },
      pool);
  for (std::size_t i = 0; i < kQueries; ++i) {
    const double rho = 50.0 + static_cast<double>(i % 5) * 61.0;
    const std::uint64_t servers = 1 + (i % 300);
    EXPECT_DOUBLE_EQ(results[i], erlang_b(servers, rho)) << "i=" << i;
    EXPECT_EQ(staffed[i], erlang_b_servers(rho, 1.0 / (2.0 + i % 50)))
        << "i=" << i;
  }
  // Every query was counted exactly once, whatever the interleaving.
  EXPECT_EQ(kernel.stats().evaluations, kQueries * 2 + kQueries / 3);
}

TEST(ErlangKernel, ClearZeroesConcurrencyCounters) {
  ErlangKernel kernel;
  const std::vector<BlockingQuery> span{{200, 300.0}, {100, 300.0}};
  std::vector<double> out(span.size());
  ErlangWalk walk;
  walk.eval_many(span, out);
  kernel.record(walk.tally());
  kernel.erlang_b_servers(300.0, 0.01);
  ASSERT_GT(kernel.stats().evaluations, 0u);
  ASSERT_GT(kernel.stats().steps, 0u);
  // The kernel has no snapshot, arena or merge tier left to count.
  EXPECT_EQ(kernel.stats().snapshot_hits, 0u);
  EXPECT_EQ(kernel.stats().arena_extensions, 0u);
  EXPECT_EQ(kernel.stats().merges, 0u);
  kernel.clear();
  const auto stats = kernel.stats();
  EXPECT_EQ(stats.evaluations, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.steps, 0u);
  // Nothing is kept between calls: the same query walks its 100 steps.
  kernel.erlang_b(100, 300.0);
  EXPECT_EQ(kernel.stats().steps, 100u);
}

}  // namespace
}  // namespace vmcons::queueing
