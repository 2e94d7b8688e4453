// Property tests for the multi-lane batched Erlang walk: eval_many and
// servers_for_many advance util::simd::kRecurrenceLanes independent rho
// chains in lockstep, and the contract is bit-identity — every answer must
// equal the scalar free function's answer bit-for-bit, for any span shape
// (duplicate rhos, spans shorter than a lane pack, tails that do not fill
// the last pack) and on every engine path (normal-range packs, the
// subnormal tail finisher, the exact-zero tail, target-mode stops resolved
// at block boundaries). The quarantine property rides along: a batch of
// one per query must reproduce the whole-span walk exactly, because that
// is what BatchEvaluator's cell-at-a-time fallback relies on.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "queueing/erlang.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace vmcons::queueing {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(ErlangKernelLanes, LaneWidthIsSane) {
  static_assert(util::simd::kRecurrenceLanes >= 8);
  static_assert(util::simd::kRecurrenceLanes %
                    util::simd::kNativeDoubleLanes ==
                0);
}

TEST(ErlangKernelLanes, EvalManyBitIdenticalOnRandomSpans) {
  Rng rng = make_stream(7101, 0);
  for (int trial = 0; trial < 60; ++trial) {
    ErlangKernel kernel;
    // Span sizes sweep through every lane-tail remainder: fewer queries
    // than one pack, exactly a pack, and ragged multiples.
    const std::size_t count = 1 + rng.uniform_index(41);
    std::vector<BlockingQuery> queries(count);
    for (BlockingQuery& q : queries) {
      // Few distinct rhos per span forces duplicate-rho lanes and shared
      // prefix extensions inside one walk.
      const double rho = 0.5 + static_cast<double>(rng.uniform_index(6)) *
                                   (20.0 + rng.uniform(0.0, 5.0));
      q.rho = rho;
      q.servers = rng.uniform_index(600);
    }
    std::vector<double> out(count);
    kernel.eval_many(queries, out);
    for (std::size_t i = 0; i < count; ++i) {
      const double scalar = erlang_b(queries[i].servers, queries[i].rho);
      EXPECT_EQ(bits(out[i]), bits(scalar))
          << "trial=" << trial << " i=" << i << " n=" << queries[i].servers
          << " rho=" << queries[i].rho;
    }
  }
}

TEST(ErlangKernelLanes, ServersForManyBitIdenticalOnRandomSpans) {
  Rng rng = make_stream(7101, 1);
  for (int trial = 0; trial < 60; ++trial) {
    ErlangKernel kernel;
    const std::size_t count = 1 + rng.uniform_index(41);
    std::vector<StaffingQuery> queries(count);
    for (StaffingQuery& q : queries) {
      q.rho = std::exp(rng.uniform(std::log(0.05), std::log(3e3)));
      q.target_blocking =
          std::exp(rng.uniform(std::log(1e-6), std::log(0.5)));
    }
    std::vector<std::uint64_t> out(count);
    kernel.servers_for_many(queries, out);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i], erlang_b_servers(queries[i].rho,
                                         queries[i].target_blocking))
          << "trial=" << trial << " i=" << i << " rho=" << queries[i].rho
          << " B=" << queries[i].target_blocking;
    }
  }
}

TEST(ErlangKernelLanes, DuplicateRhosShareOnePrefixWalk) {
  ErlangKernel kernel;
  // More duplicates of one rho than there are lanes: the walk must fold
  // them into one chain, and the answers stay per-query exact.
  const double rho = 137.25;
  std::vector<BlockingQuery> queries;
  for (std::uint64_t n = 0; n < 3 * util::simd::kRecurrenceLanes; ++n) {
    queries.push_back({7 * n + 1, rho});
  }
  std::vector<double> out(queries.size());
  kernel.eval_many(queries, out);
  std::uint64_t steps_after = kernel.stats().steps;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(bits(out[i]), bits(erlang_b(queries[i].servers, rho)));
  }
  // One prefix, extended once to the deepest n — not one walk per query.
  EXPECT_EQ(steps_after, 7 * (3 * util::simd::kRecurrenceLanes - 1) + 1);
}

TEST(ErlangKernelLanes, SubnormalTailMatchesScalarBitForBit) {
  // Deep-tail queries walk E_n through the full decay: normal range, the
  // subnormal band (where the integer tail finisher emulates hardware
  // rounding exactly), and the exact-0.0 zone past n = 2 rho. Every value
  // must still be bit-identical to the scalar recurrence.
  ErlangKernel kernel;
  Rng rng = make_stream(7101, 2);
  std::vector<BlockingQuery> queries;
  for (int j = 0; j < 24; ++j) {
    const double rho = 40.0 + rng.uniform(0.0, 360.0);
    // Land n on both sides of the subnormal onset (~1.76 rho) and of the
    // exact-zero boundary (2 rho), plus far past it.
    const double over = rng.uniform(1.5, 3.2);
    queries.push_back(
        {static_cast<std::uint64_t>(rho * over), rho});
  }
  std::vector<double> out(queries.size());
  kernel.eval_many(queries, out);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double scalar = erlang_b(queries[i].servers, queries[i].rho);
    EXPECT_EQ(bits(out[i]), bits(scalar))
        << "n=" << queries[i].servers << " rho=" << queries[i].rho;
  }
}

TEST(ErlangKernelLanes, SubnormalPrefixResumesExactly) {
  // Second call resumes from a cached prefix whose last value is already
  // subnormal — the plan-time tail shortcut must produce the same bits as
  // a cold scalar walk to the deeper n.
  ErlangKernel kernel;
  const double rho = 200.0;
  std::vector<BlockingQuery> first{{static_cast<std::uint64_t>(1.9 * rho),
                                    rho}};
  std::vector<double> out1(first.size());
  kernel.eval_many(first, out1);
  EXPECT_EQ(bits(out1[0]), bits(erlang_b(first[0].servers, rho)));

  kernel.publish();  // resume from the snapshot tier, not the arena

  std::vector<BlockingQuery> second{{static_cast<std::uint64_t>(2.5 * rho),
                                     rho},
                                    {static_cast<std::uint64_t>(4.0 * rho),
                                     rho}};
  std::vector<double> out2(second.size());
  kernel.eval_many(second, out2);
  for (std::size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(bits(out2[i]), bits(erlang_b(second[i].servers, rho)));
  }
}

TEST(ErlangKernelLanes, QuarantineRerunsReproduceTheSpanWalk) {
  // BatchEvaluator's quarantine fallback re-evaluates one cell at a time;
  // its correctness rests on batches of one being bit-identical to the
  // staged whole-span walk against the same kernel.
  Rng rng = make_stream(7101, 3);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t count = 3 + rng.uniform_index(30);
    std::vector<BlockingQuery> eval_queries(count);
    std::vector<StaffingQuery> staff_queries(count);
    for (std::size_t i = 0; i < count; ++i) {
      const double rho = std::exp(rng.uniform(std::log(0.5), std::log(800.0)));
      eval_queries[i] = {rng.uniform_index(900), rho};
      staff_queries[i] = {rho,
                          std::exp(rng.uniform(std::log(1e-5), std::log(0.3)))};
    }

    ErlangKernel whole;
    std::vector<double> eval_span(count);
    std::vector<std::uint64_t> staff_span(count);
    whole.eval_many(eval_queries, eval_span);
    whole.servers_for_many(staff_queries, staff_span);

    ErlangKernel cells;
    for (std::size_t i = 0; i < count; ++i) {
      double one_eval = 0.0;
      std::uint64_t one_staff = 0;
      cells.eval_many(std::span<const BlockingQuery>(&eval_queries[i], 1),
                      std::span<double>(&one_eval, 1));
      cells.servers_for_many(
          std::span<const StaffingQuery>(&staff_queries[i], 1),
          std::span<std::uint64_t>(&one_staff, 1));
      EXPECT_EQ(bits(one_eval), bits(eval_span[i])) << "i=" << i;
      EXPECT_EQ(one_staff, staff_span[i]) << "i=" << i;
    }
  }
}

TEST(ErlangKernelLanes, StaffingTargetsSweepSharedPrefix) {
  // Same rho at many targets in one span: the sorted walk visits the rho
  // once (descending target), and block-boundary stop resolution must give
  // exactly the scalar minimum n for each target.
  ErlangKernel kernel;
  const double rho = 512.5;
  std::vector<StaffingQuery> queries;
  for (const double target :
       {0.3, 0.1, 0.05, 0.01, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10}) {
    queries.push_back({rho, target});
    queries.push_back({rho, target});  // duplicates inside the same span
  }
  std::vector<std::uint64_t> out(queries.size());
  kernel.servers_for_many(queries, out);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(out[i], erlang_b_servers(rho, queries[i].target_blocking))
        << "B=" << queries[i].target_blocking;
  }
}

/// Cumulative stop points of a lone target-mode lane's growing block
/// schedule: the first block, each doubling, then full kLaneBlock blocks.
std::vector<std::uint64_t> block_edges() {
  std::vector<std::uint64_t> edges;
  std::size_t block = kLaneFirstBlock;
  std::uint64_t total = 0;
  for (int full_blocks = 0; full_blocks < 2;) {
    total += block;
    edges.push_back(total);
    full_blocks += block == kLaneBlock ? 1 : 0;
    block = std::min(2 * block, kLaneBlock);
  }
  return edges;
}

/// Staffing queries whose scalar stop index lands on, one before and one
/// after every block edge: target = E_n(rho) stops exactly at n.
std::vector<StaffingQuery> edge_queries(double rho, double rho_step) {
  std::vector<StaffingQuery> queries;
  for (const std::uint64_t edge : block_edges()) {
    for (const std::uint64_t n : {edge - 1, edge, edge + 1}) {
      queries.push_back({rho, erlang_b(n, rho)});
      rho += rho_step;
    }
  }
  return queries;
}

/// After a staffing walk, every prefix value up to a few past the stop must
/// read back bit-identical through eval_many.
template <typename Walk>
void expect_prefix_exact(Walk& walk, double rho, std::uint64_t stop) {
  std::vector<BlockingQuery> prefix;
  for (std::uint64_t n = 0; n <= stop + 2; ++n) {
    prefix.push_back({n, rho});
  }
  std::vector<double> values(prefix.size());
  walk.eval_many(prefix, values);
  for (std::uint64_t n = 0; n <= stop + 2; ++n) {
    ASSERT_EQ(bits(values[n]), bits(erlang_b(n, rho)))
        << "rho=" << rho << " n=" << n << " stop=" << stop;
  }
}

TEST(ErlangKernelLanes, TargetStopsOnBlockEdgesMatchScalar) {
  static_assert(kLaneFirstBlock < kLaneBlock);
  // rho well above every edge keeps E_n far from zero and strictly
  // decreasing there, so each target pins a unique stop index.
  const double rho = 2500.0;
  for (const StaffingQuery& query : edge_queries(rho, 0.0)) {
    const std::uint64_t expected = erlang_b_servers(rho, query.target_blocking);
    SCOPED_TRACE("stop=" + std::to_string(expected));
    std::uint64_t walked = 0;
    ErlangWalk walk;
    walk.servers_for_many(std::span<const StaffingQuery>(&query, 1),
                          std::span<std::uint64_t>(&walked, 1));
    EXPECT_EQ(walked, expected);
    expect_prefix_exact(walk, rho, expected);

    std::uint64_t memo = 0;
    ErlangKernel kernel;
    kernel.servers_for_many(std::span<const StaffingQuery>(&query, 1),
                            std::span<std::uint64_t>(&memo, 1));
    EXPECT_EQ(memo, expected);
    expect_prefix_exact(kernel, rho, expected);
  }
}

TEST(ErlangKernelLanes, TargetStopsOnBlockEdgesMatchScalarInOneSpan) {
  // The same edges as one span of distinct rhos: more tasks than lanes, so
  // refilled lanes start their schedule while older lanes run full blocks.
  const std::vector<StaffingQuery> queries = edge_queries(2500.0, 0.75);
  ASSERT_GT(queries.size(), util::simd::kRecurrenceLanes);
  std::vector<std::uint64_t> walked(queries.size());
  std::vector<std::uint64_t> memo(queries.size());
  ErlangWalk walk;
  ErlangKernel kernel;
  walk.servers_for_many(queries, walked);
  kernel.servers_for_many(queries, memo);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t expected =
        erlang_b_servers(queries[i].rho, queries[i].target_blocking);
    EXPECT_EQ(walked[i], expected) << "i=" << i;
    EXPECT_EQ(memo[i], expected) << "i=" << i;
    expect_prefix_exact(walk, queries[i].rho, expected);
    expect_prefix_exact(kernel, queries[i].rho, expected);
  }
}

}  // namespace
}  // namespace vmcons::queueing
