// Differential tests for the kernel-less Erlang path: UtilityAnalyticModel
// ::solve() and BatchEvaluator with memoize = false answer their staged
// queries through a call-local queueing::ErlangWalk, and the contract is
// bit-identity with the per-query erlang.hpp free functions — the oracle.
// Every staffing answer and blocking value of solve() is recomputed here
// from the offered loads the result records, including blocking evaluated
// deep in the subnormal/zero tail (a light resource at a heavy resource's
// N), undemanded resources, fleets, batches that repeat one rho at several
// targets, queries behind and past every resume point, and NumericError
// parity at the convergence guard and at huge offered loads.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_eval.hpp"
#include "core/model.hpp"
#include "core/scenario_batch.hpp"
#include "datacenter/server_class.hpp"
#include "queueing/erlang.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace vmcons::core {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// One service whose bottleneck resource has offered load `rho`; the other
/// resources are undemanded or far lighter (their blocking at the
/// service's N lands in the subnormal or exact-zero tail).
dc::ServiceSpec oracle_service(Rng& rng, std::size_t index, double rho) {
  dc::ServiceSpec service;
  service.name = "svc" + std::to_string(index);
  service.arrival_rate = rng.uniform(1.0, 100.0);
  const auto bottleneck = static_cast<dc::Resource>(
      rng.uniform_index(dc::kResourceCount));
  for (const dc::Resource resource : dc::all_resources()) {
    double load = rho;
    if (resource != bottleneck) {
      if (rng.bernoulli(0.4)) {
        continue;  // undemanded: rho = 0
      }
      load = rho / std::exp(rng.uniform(std::log(1.5), std::log(2000.0)));
    }
    service.demand(resource, service.arrival_rate / load,
                   virt::Impact::constant(rng.uniform(0.5, 1.0)));
  }
  return service;
}

/// Target loss 1e-1..1e-6, 1-3 services sized for 10..10^4 dedicated
/// servers each, optional VM density, and a fleet on every other draw.
ModelInputs oracle_inputs(std::uint64_t seed, std::size_t index) {
  Rng rng = make_stream(seed, index);
  ModelInputs inputs;
  inputs.target_loss = std::pow(10.0, -rng.uniform(1.0, 6.0));
  const std::size_t services = 1 + rng.uniform_index(3);
  for (std::size_t i = 0; i < services; ++i) {
    const double rho = std::exp(rng.uniform(std::log(5.0), std::log(9000.0)));
    inputs.services.push_back(oracle_service(rng, i, rho));
  }
  if (rng.bernoulli(0.5)) {
    inputs.vms_per_server = 1 + static_cast<unsigned>(rng.uniform_index(6));
  }
  if (rng.bernoulli(0.5)) {
    dc::PowerModel power;
    power.base_watts = inputs.dedicated_power.base_watts;
    power.max_watts = inputs.dedicated_power.max_watts;
    inputs.fleet.add(dc::ServerClass::reference(
        "reference", power, dc::ServerClass::kUnbounded));
    dc::ServerClass fast;
    fast.name = "fast";
    for (const dc::Resource resource : dc::all_resources()) {
      fast.capacity[resource] = 2.5;
    }
    fast.count = 1 + rng.uniform_index(500);
    inputs.fleet.add(fast);
  }
  return inputs;
}

/// Every Erlang-derived field of `result`, recomputed query by query with
/// the free functions from the offered loads the result records (which
/// must be the model's own Eq. 3/5 loads).
void expect_matches_oracle(const ModelInputs& inputs,
                           const ModelResult& result) {
  const UtilityAnalyticModel model(inputs);
  const double b = inputs.target_loss;
  ASSERT_EQ(result.dedicated.size(), inputs.services.size());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < result.dedicated.size(); ++i) {
    const ServicePlan& plan = result.dedicated[i];
    std::uint64_t servers = 0;
    for (const dc::Resource resource : dc::all_resources()) {
      const double rho = plan.offered_load[resource];
      EXPECT_EQ(bits(rho), bits(model.dedicated_offered_load(i, resource)));
      const std::uint64_t n =
          rho > 0.0 ? queueing::erlang_b_servers(rho, b) : 0;
      EXPECT_EQ(plan.servers_per_resource[static_cast<std::size_t>(resource)],
                n)
          << "service " << i << " rho=" << rho;
      servers = std::max(servers, n);
    }
    EXPECT_EQ(plan.servers, servers) << "service " << i;
    double worst = 0.0;
    for (const dc::Resource resource : dc::all_resources()) {
      if (const double rho = plan.offered_load[resource]; rho > 0.0) {
        worst = std::max(worst, queueing::erlang_b(servers, rho));
      }
    }
    EXPECT_EQ(bits(plan.blocking), bits(worst)) << "service " << i;
    total += servers;
  }
  EXPECT_EQ(result.dedicated_servers, total);

  std::uint64_t consolidated = 0;
  for (const dc::Resource resource : dc::all_resources()) {
    const auto& plan = result.consolidated[static_cast<std::size_t>(resource)];
    EXPECT_EQ(bits(plan.offered_load),
              bits(model.consolidated_offered_load(resource)));
    const std::uint64_t n =
        plan.demanded ? queueing::erlang_b_servers(plan.offered_load, b) : 0;
    EXPECT_EQ(plan.servers, n) << "rho'=" << plan.offered_load;
    consolidated = std::max(consolidated, n);
  }
  EXPECT_EQ(result.consolidated_servers, consolidated);
  double worst = 0.0;
  for (const auto& plan : result.consolidated) {
    if (plan.demanded) {
      worst = std::max(worst,
                       queueing::erlang_b(consolidated, plan.offered_load));
    }
  }
  EXPECT_EQ(bits(result.consolidated_blocking), bits(worst));
}

/// The fields downstream of the Erlang answers, against a second solve.
void expect_derived_identical(const ModelResult& a, const ModelResult& b) {
  EXPECT_EQ(bits(a.dedicated_utilization), bits(b.dedicated_utilization));
  EXPECT_EQ(bits(a.consolidated_utilization),
            bits(b.consolidated_utilization));
  EXPECT_EQ(bits(a.utilization_improvement), bits(b.utilization_improvement));
  EXPECT_EQ(bits(a.dedicated_power_watts), bits(b.dedicated_power_watts));
  EXPECT_EQ(bits(a.consolidated_power_watts),
            bits(b.consolidated_power_watts));
  EXPECT_EQ(bits(a.power_saving), bits(b.power_saving));
  EXPECT_EQ(bits(a.infrastructure_saving), bits(b.infrastructure_saving));
  EXPECT_EQ(a.fleet.planned, b.fleet.planned);
  ASSERT_EQ(a.fleet.classes.size(), b.fleet.classes.size());
  for (std::size_t c = 0; c < a.fleet.classes.size(); ++c) {
    EXPECT_EQ(a.fleet.classes[c].dedicated_servers,
              b.fleet.classes[c].dedicated_servers);
    EXPECT_EQ(a.fleet.classes[c].consolidated_servers,
              b.fleet.classes[c].consolidated_servers);
  }
  EXPECT_EQ(a.fleet.dedicated_feasible, b.fleet.dedicated_feasible);
  EXPECT_EQ(a.fleet.consolidated_feasible, b.fleet.consolidated_feasible);
}

TEST(ErlangWalk, KernelLessSolveMatchesScalarOracle) {
  constexpr std::size_t kScenarios = 1200;
  std::size_t fleets = 0;
  std::size_t deep_tail = 0;
  for (std::size_t s = 0; s < kScenarios; ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    const ModelInputs inputs = oracle_inputs(0x0a11ce, s);
    const ModelResult result = UtilityAnalyticModel(inputs).solve();
    expect_matches_oracle(inputs, result);
    queueing::ErlangKernel kernel;
    expect_derived_identical(
        result, UtilityAnalyticModel(inputs).use_kernel(&kernel).solve());
    fleets += result.fleet.planned ? 1 : 0;
    for (const ServicePlan& plan : result.dedicated) {
      for (const dc::Resource resource : dc::all_resources()) {
        const double rho = plan.offered_load[resource];
        if (rho > 0.0 &&
            static_cast<double>(plan.servers) > 1.76 * rho + 10.0) {
          ++deep_tail;
        }
      }
    }
  }
  // The draws really reach the paths the test is about.
  EXPECT_GT(fleets, kScenarios / 4);
  EXPECT_GT(deep_tail, kScenarios / 4);
}

TEST(ErlangWalk, MemoizeOffBatchRepeatsRhoAtSeveralTargets) {
  // One service mix at many targets, shuffled: every rho recurs at several
  // targets in one staffing span, and looser scenarios evaluate blocking
  // behind the resume point the tightest target left.
  Rng rng = make_stream(0x0a11ce, 1u << 20);
  const std::vector<double> targets{0.1, 0.05, 0.01, 1e-3, 1e-4, 1e-5, 1e-6};
  std::vector<ModelInputs> inputs;
  for (int mix = 0; mix < 6; ++mix) {
    ModelInputs base;
    for (std::size_t i = 0; i < 2; ++i) {
      const double rho = std::exp(rng.uniform(std::log(20.0), std::log(4000.0)));
      base.services.push_back(oracle_service(rng, i, rho));
    }
    for (const double b : targets) {
      base.target_loss = b;
      inputs.push_back(base);
    }
  }
  for (std::size_t i = inputs.size() - 1; i > 0; --i) {
    std::swap(inputs[i], inputs[rng.uniform_index(i + 1)]);
  }
  const ScenarioBatch batch = ScenarioBatch::from_inputs(inputs);
  BatchOptions options;
  options.parallel = false;
  options.memoize = false;
  options.shard_size = inputs.size();  // one staffing pass over everything
  const std::vector<ModelResult> results =
      BatchEvaluator(options).evaluate(batch);
  ASSERT_EQ(results.size(), inputs.size());
  for (std::size_t s = 0; s < inputs.size(); ++s) {
    SCOPED_TRACE("scenario " + std::to_string(s));
    expect_matches_oracle(inputs[s], results[s]);
  }
}

TEST(ErlangWalk, InterleavedSpansMatchFreeFunctions) {
  // Arbitrary call orders on one walk — blocking before staffing, queries
  // behind, at and past every resume point, rho = 0, n = 0, B = 1 — after,
  // on every other trial, an opening that walks one rho far ahead.
  Rng rng = make_stream(0x0a11ce, 1u << 22);
  for (int trial = 0; trial < 20; ++trial) {
    queueing::ErlangWalk walk;
    std::vector<double> rhos{0.0};
    for (int k = 0; k < 7; ++k) {
      rhos.push_back(std::exp(rng.uniform(std::log(0.3), std::log(3000.0))));
    }
    if (trial % 2 == 0) {
      const std::vector<queueing::BlockingQuery> opening{{150000, rhos[1]},
                                                         {10, rhos[1]}};
      std::vector<double> values(opening.size());
      walk.eval_many(opening, values);
      for (std::size_t i = 0; i < opening.size(); ++i) {
        EXPECT_EQ(bits(values[i]),
                  bits(queueing::erlang_b(opening[i].servers, rhos[1])));
      }
    }
    for (int step = 0; step < 8; ++step) {
      const std::size_t count = 1 + rng.uniform_index(24);
      if (rng.bernoulli(0.5)) {
        std::vector<queueing::BlockingQuery> queries(count);
        for (auto& q : queries) {
          q.rho = rhos[rng.uniform_index(rhos.size())];
          q.servers = rng.uniform_index(4) == 0
                          ? 0
                          : rng.uniform_index(
                                static_cast<std::uint64_t>(3 * q.rho) + 40);
        }
        std::vector<double> out(count);
        walk.eval_many(queries, out);
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(bits(out[i]), bits(queueing::erlang_b(queries[i].servers,
                                                          queries[i].rho)))
              << "trial=" << trial << " n=" << queries[i].servers
              << " rho=" << queries[i].rho;
        }
      } else {
        std::vector<queueing::StaffingQuery> queries(count);
        for (auto& q : queries) {
          q.rho = rhos[rng.uniform_index(rhos.size())];
          q.target_blocking =
              rng.uniform_index(8) == 0
                  ? 1.0
                  : std::exp(rng.uniform(std::log(1e-9), std::log(0.9)));
        }
        std::vector<std::uint64_t> out(count);
        walk.servers_for_many(queries, out);
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(out[i], queueing::erlang_b_servers(
                                queries[i].rho, queries[i].target_blocking))
              << "trial=" << trial << " rho=" << queries[i].rho
              << " B=" << queries[i].target_blocking;
        }
      }
    }
  }
}

/// True iff `staff` throws NumericError; any other exception fails.
template <typename F>
bool throws_numeric(F&& staff) {
  try {
    staff();
  } catch (const NumericError&) {
    return true;
  }
  return false;
}

TEST(ErlangWalk, NumericErrorParityAtTheConvergenceGuard) {
  int thrown = 0;
  int answered = 0;
  for (const double rho : {3.0, 50.0, 700.0}) {
    const auto limit =
        static_cast<std::uint64_t>(rho + 50.0 * std::sqrt(rho) + 64.0);
    // Answers exactly at the guard (allowed) and one past it (thrown), and
    // a target far below anything the guard lets the walk reach.
    for (const double target :
         {queueing::erlang_b(limit, rho), queueing::erlang_b(limit + 1, rho),
          1e-300}) {
      if (target <= 0.0) {
        continue;  // the tail underflowed: no valid target there
      }
      SCOPED_TRACE("rho=" + std::to_string(rho) +
                   " B=" + std::to_string(target));
      const bool scalar = throws_numeric(
          [&] { (void)queueing::erlang_b_servers(rho, target); });
      const std::vector<queueing::StaffingQuery> queries{{rho, 0.5},
                                                         {rho, target}};
      std::vector<std::uint64_t> out(queries.size());
      queueing::ErlangWalk walk;
      EXPECT_EQ(throws_numeric([&] { walk.servers_for_many(queries, out); }),
                scalar);
      // A resume point walked past the guard by eval_many must not hide
      // the throw.
      queueing::ErlangWalk deep;
      std::vector<double> value(1);
      deep.eval_many(std::vector<queueing::BlockingQuery>{{limit + 600, rho}},
                     value);
      EXPECT_EQ(throws_numeric([&] { deep.servers_for_many(queries, out); }),
                scalar);
      if (!scalar) {
        EXPECT_EQ(out[1], queueing::erlang_b_servers(rho, target));
      }
      (scalar ? thrown : answered) += 1;
    }
  }
  EXPECT_GT(thrown, 0);
  EXPECT_GT(answered, 0);

  // Through solve(): a loss target no staffing level within the guard meets.
  ModelInputs inputs;
  inputs.target_loss = 1e-300;
  dc::ServiceSpec service;
  service.name = "web";
  service.arrival_rate = 50.0;
  service.demand(dc::Resource::kCpu, 1.0, virt::Impact::constant(0.8));
  inputs.services.push_back(service);
  EXPECT_TRUE(throws_numeric(
      [&] { (void)queueing::erlang_b_servers(50.0, inputs.target_loss); }));
  EXPECT_THROW((void)UtilityAnalyticModel(inputs).solve(), NumericError);
}

TEST(ErlangWalk, HugeRhoMatchesScalarIncludingNumericError) {
  // Past ~2e6 erlangs the ErlangKernel staffs with its uncached scalar
  // fallback; the walk keeps using lanes. Both must agree with the free
  // functions, throws included.
  const double rho = 2.5e6;
  for (const double target : {1e-2, 1e-300}) {
    SCOPED_TRACE("B=" + std::to_string(target));
    std::uint64_t scalar_n = 0;
    const bool scalar = throws_numeric(
        [&] { scalar_n = queueing::erlang_b_servers(rho, target); });
    const std::vector<queueing::StaffingQuery> queries{{rho, target}};
    std::vector<std::uint64_t> walked(1);
    std::vector<std::uint64_t> memo(1);
    queueing::ErlangWalk walk;
    queueing::ErlangKernel kernel;
    EXPECT_EQ(throws_numeric([&] { walk.servers_for_many(queries, walked); }),
              scalar);
    EXPECT_EQ(
        throws_numeric([&] { kernel.servers_for_many(queries, memo); }),
        scalar);
    if (!scalar) {
      EXPECT_EQ(walked[0], scalar_n);
      EXPECT_EQ(memo[0], scalar_n);
      const std::vector<queueing::BlockingQuery> at{{scalar_n, rho},
                                                    {scalar_n / 3, rho}};
      std::vector<double> value(at.size());
      walk.eval_many(at, value);
      for (std::size_t i = 0; i < at.size(); ++i) {
        EXPECT_EQ(bits(value[i]), bits(queueing::erlang_b(at[i].servers, rho)));
      }
    }
  }
}

}  // namespace
}  // namespace vmcons::core
