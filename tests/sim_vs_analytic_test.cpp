// The correctness anchor of the whole reproduction: the discrete-event pool
// simulator must agree with the analytic queueing formulas it is meant to
// stand in for.
//
//   * pure-loss pools (queue_capacity = 0) vs Erlang-B blocking;
//   * finite-queue pools vs the M/M/c/K solver;
//   * utilization vs carried load / c.
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <tuple>

#include <gtest/gtest.h>

#include "datacenter/pool_sim.hpp"
#include "queueing/erlang.hpp"
#include "queueing/mmck.hpp"
#include "sim/replication.hpp"
#include "stats/confidence.hpp"

namespace vmcons::dc {
namespace {

struct LossCase {
  unsigned servers;
  // Fills the four bytes the compiler would otherwise leave as padding
  // before `lambda`. LossCase has no printer, so gtest names each instance
  // by the object's raw bytes and gtest_discover_tests freezes those names
  // into the CTest list at build time; uninitialised padding made them hold
  // stack and heap leftovers that differed from build to build. The values
  // below are the bytes the instances were first registered under, so the
  // names are stable and unchanged.
  std::uint32_t name_bytes;
  double lambda;
  double mu;
};
static_assert(sizeof(LossCase) == 24 && offsetof(LossCase, lambda) == 8,
              "LossCase must have no padding left for the name to pick up");

class SimVsErlangB : public ::testing::TestWithParam<LossCase> {};

TEST_P(SimVsErlangB, LossMatchesWithinConfidence) {
  const LossCase test_case = GetParam();
  PoolConfig config;
  config.arrival_rates = {test_case.lambda};
  config.service_rates = {test_case.mu};
  config.servers = test_case.servers;
  config.horizon = 4000.0;
  config.warmup = 400.0;

  const auto estimate = sim::replicate_scalar(
      10, 77, [&](std::size_t, Rng& rng) {
        return simulate_pool(config, rng).overall_loss();
      });
  const double expected =
      queueing::erlang_b(test_case.servers, test_case.lambda / test_case.mu);
  // Widen the t-interval slightly: 10 replications of a rare event.
  const double slack = 0.2 * expected + 0.002;
  EXPECT_NEAR(estimate.summary.mean(), expected,
              estimate.interval.half_width + slack)
      << "servers=" << test_case.servers << " lambda=" << test_case.lambda;
}

INSTANTIATE_TEST_SUITE_P(
    LossSystems, SimVsErlangB,
    ::testing::Values(LossCase{1, 0x00007FFF, 0.5, 1.0},
                      LossCase{2, 0xFFFFFFFF, 1.5, 1.0},
                      LossCase{3, 0x00000000, 2.0, 1.0},
                      LossCase{4, 0x7AE548DD, 5.0, 1.0},
                      // the paper's web numbers
                      LossCase{3, 0x00000000, 130.0, 420.0},
                      // the paper's DB numbers
                      LossCase{3, 0xFFFFFFFF, 30.0, 100.0},
                      LossCase{8, 0x00000000, 6.0, 1.0},
                      LossCase{16, 0x000055B8, 14.0, 1.0}));

TEST(SimVsErlangB, UtilizationMatchesCarriedLoad) {
  PoolConfig config;
  config.arrival_rates = {2.0};
  config.service_rates = {1.0};
  config.servers = 3;
  config.horizon = 4000.0;
  config.warmup = 400.0;

  const auto estimate = sim::replicate_scalar(
      8, 78, [&](std::size_t, Rng& rng) {
        return simulate_pool(config, rng).mean_utilization;
      });
  const double expected = queueing::loss_system_utilization(3, 2.0);
  EXPECT_NEAR(estimate.summary.mean(), expected, 0.01);
}

TEST(SimVsMmck, FiniteQueueBlockingAndResponse) {
  const unsigned servers = 2;
  const unsigned queue = 4;
  const double lambda = 2.2;
  const double mu = 1.0;

  PoolConfig config;
  config.arrival_rates = {lambda};
  config.service_rates = {mu};
  config.servers = servers;
  config.queue_capacity = queue;
  config.horizon = 6000.0;
  config.warmup = 600.0;

  std::vector<double> losses;
  std::vector<double> responses;
  const auto outcomes = sim::replicate(10, 79, [&](std::size_t, Rng& rng) {
    return simulate_pool(config, rng);
  });
  for (const auto& outcome : outcomes) {
    losses.push_back(outcome.overall_loss());
    responses.push_back(outcome.services[0].response_time.mean());
  }
  double loss_mean = 0.0;
  double response_mean = 0.0;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    loss_mean += losses[i];
    response_mean += responses[i];
  }
  loss_mean /= static_cast<double>(losses.size());
  response_mean /= static_cast<double>(responses.size());

  const auto expected =
      queueing::solve_mmck(servers, servers + queue, lambda, mu);
  EXPECT_NEAR(loss_mean, expected.blocking, 0.015);
  EXPECT_NEAR(response_mean, expected.mean_response_time, 0.12);
}

TEST(SimVsMmck, SingleServerQueueMatchesMm1k) {
  PoolConfig config;
  config.arrival_rates = {0.8};
  config.service_rates = {1.0};
  config.servers = 1;
  config.queue_capacity = 9;  // K = 10 total places
  config.horizon = 8000.0;
  config.warmup = 800.0;

  const auto estimate = sim::replicate_scalar(
      8, 80, [&](std::size_t, Rng& rng) {
        return simulate_pool(config, rng).overall_loss();
      });
  const auto expected = queueing::solve_mmck(1, 10, 0.8, 1.0);
  EXPECT_NEAR(estimate.summary.mean(), expected.blocking, 0.004);
}

TEST(SimVsErlangB, TwoServicePoolMatchesMergedStream) {
  // Two services with identical per-slot rates merge into one Poisson
  // stream: overall loss must match Erlang-B of the merged load.
  PoolConfig config;
  config.arrival_rates = {1.0, 1.5};
  config.service_rates = {1.0, 1.0};
  config.servers = 4;
  config.horizon = 4000.0;
  config.warmup = 400.0;

  const auto estimate = sim::replicate_scalar(
      10, 81, [&](std::size_t, Rng& rng) {
        return simulate_pool(config, rng).overall_loss();
      });
  const double expected = queueing::erlang_b(4, 2.5);
  EXPECT_NEAR(estimate.summary.mean(), expected, 0.01);
}

}  // namespace
}  // namespace vmcons::dc
