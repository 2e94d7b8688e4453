// Shuffled Erlang-B query spans that exercise every case of the batch
// walks' load grouping: thousands of distinct loads, repeated (rho, B) and
// (rho, n) pairs, +0.0 and -0.0 loads in separate groups, target 1.0 and
// n = 0, and optionally a huge-rho group asked at two targets, which the
// walk answers through the free functions. Answers are checked against the
// erlang.hpp free functions.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "queueing/erlang_kernel.hpp"
#include "util/rng.hpp"

namespace vmcons::erlang_spans {

/// Past ~2e6 erlangs a walk keeps no values for a load, so a group asked at
/// several targets falls back to queueing::erlang_b_servers.
inline constexpr double kHugeRho = 2.5e6;

/// `distinct` log-uniform loads in [0.05, 3000], pairwise distinct.
inline std::vector<double> loads(Rng& rng, std::size_t distinct) {
  std::vector<double> rhos;
  while (rhos.size() < distinct) {
    const double rho = std::exp(rng.uniform(std::log(0.05), std::log(3e3)));
    bool fresh = true;
    for (const double seen : rhos) {
      fresh = fresh && seen != rho;
    }
    if (fresh) {
      rhos.push_back(rho);
    }
  }
  return rhos;
}

template <typename Query>
void shuffle(Rng& rng, std::vector<Query>& span) {
  for (std::size_t i = span.size(); i > 1; --i) {
    std::swap(span[i - 1], span[rng.uniform_index(i)]);
  }
}

/// Each load at 1-3 targets in [1e-6, 0.5], a third of them asked twice,
/// plus target 1.0, both zero loads, and (if `huge`) a kHugeRho group.
inline std::vector<queueing::StaffingQuery> staffing(std::uint64_t seed,
                                                     std::size_t distinct,
                                                     bool huge) {
  Rng rng = make_stream(seed, 0);
  std::vector<queueing::StaffingQuery> span;
  for (const double rho : loads(rng, distinct)) {
    const std::size_t targets = 1 + rng.uniform_index(3);
    for (std::size_t t = 0; t < targets; ++t) {
      const double target =
          std::exp(rng.uniform(std::log(1e-6), std::log(0.5)));
      span.push_back({rho, target});
      if (rng.uniform_index(3) == 0) {
        span.push_back({rho, target});
      }
    }
  }
  span.push_back({span.front().rho, 1.0});
  span.push_back({0.0, 1e-3});
  span.push_back({-0.0, 1e-3});
  span.push_back({-0.0, 1.0});
  if (huge) {
    span.push_back({kHugeRho, 1e-2});
    span.push_back({kHugeRho, 0.2});
    span.push_back({kHugeRho, 1e-2});
  }
  shuffle(rng, span);
  return span;
}

/// Each load at 1-3 server counts in [0, 3 rho + 40] (the deep ones reach
/// the subnormal and exact-zero tail), a third of them asked twice, plus
/// n = 0 and both zero loads.
inline std::vector<queueing::BlockingQuery> blocking(std::uint64_t seed,
                                                     std::size_t distinct) {
  Rng rng = make_stream(seed, 1);
  std::vector<queueing::BlockingQuery> span;
  for (const double rho : loads(rng, distinct)) {
    const std::size_t counts = 1 + rng.uniform_index(3);
    for (std::size_t c = 0; c < counts; ++c) {
      const std::uint64_t servers = rng.uniform_index(
          static_cast<std::uint64_t>(3.0 * rho) + 41);
      span.push_back({servers, rho});
      if (rng.uniform_index(3) == 0) {
        span.push_back({servers, rho});
      }
    }
  }
  span.push_back({0, span.front().rho});
  span.push_back({0, 0.0});
  span.push_back({5, 0.0});
  span.push_back({0, -0.0});
  span.push_back({5, -0.0});
  shuffle(rng, span);
  return span;
}

}  // namespace vmcons::erlang_spans
