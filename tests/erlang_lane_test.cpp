// Property tests for the multi-lane batched Erlang walk: ErlangWalk's
// eval_many and servers_for_many advance util::simd::kRecurrenceLanes
// independent rho
// chains in lockstep, and the contract is bit-identity — every answer must
// equal the scalar free function's answer bit-for-bit, for any span shape
// (duplicate rhos, spans shorter than a lane pack, tails that do not fill
// the last pack) and on every engine path (normal-range packs, the
// subnormal tail finisher, the exact-zero tail, target-mode stops resolved
// at block boundaries), and for any query order: the walks group a span by
// offered load, so a shuffled span of thousands of loads must give the
// same answers and the same step count. The quarantine property rides
// along: a batch of one per query must reproduce the whole-span walk
// exactly, because that is what BatchEvaluator's cell-at-a-time fallback
// relies on.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "erlang_spans.hpp"
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
    ErlangWalk walk;
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
    walk.eval_many(queries, out);
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
    ErlangWalk walk;
    const std::size_t count = 1 + rng.uniform_index(41);
    std::vector<StaffingQuery> queries(count);
    for (StaffingQuery& q : queries) {
      q.rho = std::exp(rng.uniform(std::log(0.05), std::log(3e3)));
      q.target_blocking =
          std::exp(rng.uniform(std::log(1e-6), std::log(0.5)));
    }
    std::vector<std::uint64_t> out(count);
    walk.servers_for_many(queries, out);
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(out[i], erlang_b_servers(queries[i].rho,
                                         queries[i].target_blocking))
          << "trial=" << trial << " i=" << i << " rho=" << queries[i].rho
          << " B=" << queries[i].target_blocking;
    }
  }
}

TEST(ErlangKernelLanes, DuplicateRhosShareOnePrefixWalk) {
  ErlangWalk walk;
  // More duplicates of one rho than there are lanes: the walk must fold
  // them into one chain, and the answers stay per-query exact.
  const double rho = 137.25;
  std::vector<BlockingQuery> queries;
  for (std::uint64_t n = 0; n < 3 * util::simd::kRecurrenceLanes; ++n) {
    queries.push_back({7 * n + 1, rho});
  }
  std::vector<double> out(queries.size());
  walk.eval_many(queries, out);
  const std::uint64_t steps_after = walk.tally().steps;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(bits(out[i]), bits(erlang_b(queries[i].servers, rho)));
  }
  // One walk, kept to the deepest n — not one walk per query.
  EXPECT_EQ(steps_after, 7 * (3 * util::simd::kRecurrenceLanes - 1) + 1);
}

TEST(ErlangKernelLanes, SubnormalTailMatchesScalarBitForBit) {
  // Deep-tail queries walk E_n through the full decay: normal range, the
  // subnormal band (where the integer tail finisher emulates hardware
  // rounding exactly), and the exact-0.0 zone past n = 2 rho. Every value
  // must still be bit-identical to the scalar recurrence.
  ErlangWalk walk;
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
  walk.eval_many(queries, out);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const double scalar = erlang_b(queries[i].servers, queries[i].rho);
    EXPECT_EQ(bits(out[i]), bits(scalar))
        << "n=" << queries[i].servers << " rho=" << queries[i].rho;
  }
}

TEST(ErlangKernelLanes, SubnormalPrefixResumesExactly) {
  // Later calls on one walk resume from a point whose value is already
  // subnormal — the bare resume point of a one-depth call, then the end of
  // the values a two-depth call kept — and the integer tail finisher must
  // produce the same bits as a cold scalar walk to the deeper n.
  ErlangWalk walk;
  const double rho = 200.0;
  const auto at = [rho](double over) {
    return BlockingQuery{static_cast<std::uint64_t>(over * rho), rho};
  };
  // E_n(200) is subnormal for n in ~[352, 400) and exactly 0 past that.
  const std::vector<std::vector<BlockingQuery>> calls{
      {at(1.9)},                      // one depth: a bare resume point
      {at(1.975)},                    // resumes from it
      {at(1.925), at(1.8)},           // two depths: kept from E_0
      {at(2.5), at(4.0), at(1.85)}};  // extends the kept values
  for (const auto& call : calls) {
    std::vector<double> out(call.size());
    walk.eval_many(call, out);
    for (std::size_t i = 0; i < call.size(); ++i) {
      EXPECT_EQ(bits(out[i]), bits(erlang_b(call[i].servers, rho)))
          << "n=" << call[i].servers;
    }
  }
  EXPECT_EQ(walk.kept_loads(), 1u);
}

TEST(ErlangKernelLanes, QuarantineRerunsReproduceTheSpanWalk) {
  // BatchEvaluator's quarantine fallback re-evaluates one cell at a time;
  // its correctness rests on batches of one being bit-identical to the
  // staged whole-span walk.
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

    std::vector<double> eval_span(count);
    std::vector<std::uint64_t> staff_span(count);
    ErlangWalk().eval_many(eval_queries, eval_span);
    ErlangWalk().servers_for_many(staff_queries, staff_span);

    for (std::size_t i = 0; i < count; ++i) {
      double one_eval = 0.0;
      std::uint64_t one_staff = 0;
      ErlangWalk().eval_many(
          std::span<const BlockingQuery>(&eval_queries[i], 1),
          std::span<double>(&one_eval, 1));
      ErlangWalk().servers_for_many(
          std::span<const StaffingQuery>(&staff_queries[i], 1),
          std::span<std::uint64_t>(&one_staff, 1));
      EXPECT_EQ(bits(one_eval), bits(eval_span[i])) << "i=" << i;
      EXPECT_EQ(one_staff, staff_span[i]) << "i=" << i;
    }
  }
}

TEST(ErlangKernelLanes, StaffingTargetsSweepSharedPrefix) {
  // Same rho at many targets in one span: the walk groups them into one
  // load, keeps its values once to the tightest target, and block-boundary
  // stop resolution must give exactly the scalar minimum n for each target.
  ErlangWalk walk;
  const double rho = 512.5;
  std::vector<StaffingQuery> queries;
  for (const double target :
       {0.3, 0.1, 0.05, 0.01, 1e-3, 1e-4, 1e-5, 1e-6, 1e-8, 1e-10}) {
    queries.push_back({rho, target});
    queries.push_back({rho, target});  // duplicates inside the same span
  }
  std::vector<std::uint64_t> out(queries.size());
  walk.servers_for_many(queries, out);
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
/// read back bit-identical through eval_many; on a fresh walk, the same
/// prefix walked from E_0 must too.
void expect_prefix_exact(ErlangWalk& walk, double rho, std::uint64_t stop) {
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
    ErlangWalk fresh;
    expect_prefix_exact(fresh, rho, expected);
  }
}

TEST(ErlangKernelLanes, TargetStopsOnBlockEdgesMatchScalarInOneSpan) {
  // The same edges as one span of distinct rhos: more tasks than lanes, so
  // refilled lanes start their schedule while older lanes run full blocks.
  const std::vector<StaffingQuery> queries = edge_queries(2500.0, 0.75);
  ASSERT_GT(queries.size(), util::simd::kRecurrenceLanes);
  std::vector<std::uint64_t> walked(queries.size());
  ErlangWalk walk;
  walk.servers_for_many(queries, walked);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const std::uint64_t expected =
        erlang_b_servers(queries[i].rho, queries[i].target_blocking);
    EXPECT_EQ(walked[i], expected) << "i=" << i;
    expect_prefix_exact(walk, queries[i].rho, expected);
    ErlangWalk fresh;
    expect_prefix_exact(fresh, queries[i].rho, expected);
  }
}

void expect_oracle(std::span<const StaffingQuery> span,
                   std::span<const std::uint64_t> out) {
  for (std::size_t i = 0; i < span.size(); ++i) {
    ASSERT_EQ(out[i], erlang_b_servers(span[i].rho, span[i].target_blocking))
        << "i=" << i << " rho=" << span[i].rho
        << " B=" << span[i].target_blocking;
  }
}

void expect_oracle(std::span<const BlockingQuery> span,
                   std::span<const double> out) {
  for (std::size_t i = 0; i < span.size(); ++i) {
    ASSERT_EQ(bits(out[i]), bits(erlang_b(span[i].servers, span[i].rho)))
        << "i=" << i << " rho=" << span[i].rho << " n=" << span[i].servers;
  }
}

/// The span's answers from a fresh walk; `steps`, if set, receives the
/// walk's recurrence steps.
std::vector<std::uint64_t> answer(const std::vector<StaffingQuery>& span,
                                  std::uint64_t* steps = nullptr) {
  ErlangWalk walk;
  std::vector<std::uint64_t> out(span.size());
  walk.servers_for_many(span, out);
  if (steps != nullptr) {
    *steps = walk.tally().steps;
  }
  return out;
}

std::vector<double> answer(const std::vector<BlockingQuery>& span,
                           std::uint64_t* steps = nullptr) {
  ErlangWalk walk;
  std::vector<double> out(span.size());
  walk.eval_many(span, out);
  if (steps != nullptr) {
    *steps = walk.tally().steps;
  }
  return out;
}

TEST(ErlangKernelLanes, GroupedSpanMatchesFreeFunctionsFreshAndPublished) {
  // 2,000 distinct loads in a span of thousands of queries; it also holds
  // repeated pairs, +0.0 and -0.0, target 1.0, n = 0 and a huge-rho group
  // asked at two targets. The second pass asks the same spans shuffled.
  const auto staffing = erlang_spans::staffing(7201, 2000, true);
  const auto blocking = erlang_spans::blocking(7201, 2000);
  expect_oracle(staffing, answer(staffing));
  expect_oracle(blocking, answer(blocking));

  auto restaffing = staffing;
  auto reblocking = blocking;
  Rng rng = make_stream(7201, 2);
  erlang_spans::shuffle(rng, restaffing);
  erlang_spans::shuffle(rng, reblocking);
  expect_oracle(restaffing, answer(restaffing));
  expect_oracle(reblocking, answer(reblocking));
}

TEST(ErlangKernelLanes, GroupedSpanStepsDoNotDependOnQueryOrder) {
  // Each answer depends only on its own load's recurrence, so a walk
  // takes exactly as many steps for a span as for any permutation.
  const auto staffing = erlang_spans::staffing(7202, 2000, true);
  const auto blocking = erlang_spans::blocking(7202, 2000);
  auto restaffing = staffing;
  auto reblocking = blocking;
  Rng rng = make_stream(7202, 2);
  erlang_spans::shuffle(rng, restaffing);
  erlang_spans::shuffle(rng, reblocking);

  std::uint64_t a = 0;
  std::uint64_t b = 0;
  answer(staffing, &a);
  answer(restaffing, &b);
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);

  std::uint64_t c = 0;
  std::uint64_t d = 0;
  answer(blocking, &c);
  answer(reblocking, &d);
  EXPECT_EQ(c, d);
  EXPECT_GT(c, 0u);
}

TEST(ErlangKernelLanes, EverySpanLengthAroundTheInlineCutOverMatches) {
  // Spans of up to 16 queries (solve() on two services stages at most 12
  // per call) group in inline storage, longer ones in heap storage sized
  // from the span; every length from 1 to 80, with shared and distinct
  // loads, covers both.
  const auto staffing = erlang_spans::staffing(7203, 40, false);
  const auto blocking = erlang_spans::blocking(7203, 40);
  ASSERT_GE(std::min(staffing.size(), blocking.size()), 80u);
  for (std::size_t length = 1; length <= 80; ++length) {
    SCOPED_TRACE("length=" + std::to_string(length));
    const std::vector<StaffingQuery> staff(staffing.begin(),
                                           staffing.begin() + length);
    const std::vector<BlockingQuery> block(blocking.begin(),
                                           blocking.begin() + length);
    expect_oracle(staff, answer(staff));
    expect_oracle(block, answer(block));
  }
}

}  // namespace
}  // namespace vmcons::queueing
