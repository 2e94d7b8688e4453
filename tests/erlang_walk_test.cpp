// Differential and property tests for the batch Erlang path:
// UtilityAnalyticModel::solve() and BatchEvaluator answer their staged
// queries through a call-local queueing::ErlangWalk, and the contract is
// bit-identity with the per-query erlang.hpp free functions — the oracle.
// Every staffing answer and blocking value of solve() is recomputed here
// from the offered loads the result records, including blocking evaluated
// deep in the subnormal/zero tail (a light resource at a heavy resource's
// N), undemanded resources, fleets, batches that repeat one rho at several
// targets, shuffled spans mixing loads asked at one point and at several,
// queries behind and past every resume point and kept value, and
// NumericError parity at the convergence guard and at huge offered loads.
// A walk keeps values only for loads asked at more than one point in one
// call; the tests pin that too. solve() answers both staffing kernels on
// one walk, the batch path on one walk each; the two must agree bit for
// bit, including where a dedicated and a consolidated load coincide.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/batch_eval.hpp"
#include "erlang_spans.hpp"
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

/// Every field of two results, compared bit for bit.
void expect_bit_identical(const ModelResult& a, const ModelResult& b) {
  ASSERT_EQ(a.dedicated.size(), b.dedicated.size());
  for (std::size_t i = 0; i < a.dedicated.size(); ++i) {
    const ServicePlan& x = a.dedicated[i];
    const ServicePlan& y = b.dedicated[i];
    EXPECT_EQ(x.name, y.name);
    for (const dc::Resource resource : dc::all_resources()) {
      EXPECT_EQ(bits(x.offered_load[resource]), bits(y.offered_load[resource]));
    }
    EXPECT_EQ(x.servers_per_resource, y.servers_per_resource);
    EXPECT_EQ(x.servers, y.servers);
    EXPECT_EQ(bits(x.blocking), bits(y.blocking)) << "service " << i;
  }
  EXPECT_EQ(a.dedicated_servers, b.dedicated_servers);
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    const ConsolidatedResourcePlan& x = a.consolidated[r];
    const ConsolidatedResourcePlan& y = b.consolidated[r];
    EXPECT_EQ(x.resource, y.resource);
    EXPECT_EQ(bits(x.merged_arrival_rate), bits(y.merged_arrival_rate));
    EXPECT_EQ(bits(x.effective_service_rate), bits(y.effective_service_rate));
    EXPECT_EQ(bits(x.offered_load), bits(y.offered_load));
    EXPECT_EQ(x.servers, y.servers);
    EXPECT_EQ(x.demanded, y.demanded);
  }
  EXPECT_EQ(a.consolidated_servers, b.consolidated_servers);
  EXPECT_EQ(bits(a.consolidated_blocking), bits(b.consolidated_blocking));
  EXPECT_EQ(bits(a.power_ratio), bits(b.power_ratio));
  expect_derived_identical(a, b);
  const FleetPlan& x = a.fleet;
  const FleetPlan& y = b.fleet;
  EXPECT_EQ(bits(x.dedicated_shortfall), bits(y.dedicated_shortfall));
  EXPECT_EQ(bits(x.consolidated_shortfall), bits(y.consolidated_shortfall));
  for (std::size_t c = 0; c < x.classes.size(); ++c) {
    EXPECT_EQ(x.classes[c].name, y.classes[c].name);
    EXPECT_EQ(bits(x.classes[c].speed), bits(y.classes[c].speed));
    EXPECT_EQ(x.classes[c].available, y.classes[c].available);
    EXPECT_EQ(bits(x.classes[c].dedicated_power_watts),
              bits(y.classes[c].dedicated_power_watts));
    EXPECT_EQ(bits(x.classes[c].consolidated_power_watts),
              bits(y.classes[c].consolidated_power_watts));
  }
}

/// One service with impact factor 1 on every resource it demands, with
/// integer rates: lambda^2 / (lambda mu) and lambda / mu are then the same
/// correctly rounded quotient, so each dedicated load equals its
/// consolidated load bit for bit and both kernels ask the walk the same
/// queries.
ModelInputs coinciding_inputs(Rng& rng) {
  ModelInputs inputs;
  inputs.target_loss = std::pow(10.0, -rng.uniform(1.0, 6.0));
  dc::ServiceSpec service;
  service.name = "solo";
  service.arrival_rate = static_cast<double>(1 + rng.uniform_index(20000));
  for (const dc::Resource resource : dc::all_resources()) {
    if (resource != dc::Resource::kCpu && rng.bernoulli(0.5)) {
      continue;
    }
    service.demand(resource, static_cast<double>(1 + rng.uniform_index(40)),
                   virt::Impact::constant(1.0));
  }
  inputs.services.push_back(service);
  if (rng.bernoulli(0.5)) {
    inputs.vms_per_server = 1 + static_cast<unsigned>(rng.uniform_index(6));
  }
  return inputs;
}

TEST(ErlangWalk, SolveOnOneWalkMatchesOneWalkPerStaffingKernel) {
  // solve() stages both staffing kernels on one walk (staff_deployments);
  // the batch path runs staff_dedicated and staff_consolidated on a walk
  // each. Field by field and bit for bit, the two must agree, and a
  // counter kernel must see one evaluation per staged query either way.
  std::vector<ModelInputs> cases;
  Rng rng = make_stream(0x0f05ed, 0);
  for (int k = 0; k < 200; ++k) {
    cases.push_back(coinciding_inputs(rng));
  }
  for (std::size_t s = 0; s < 600; ++s) {
    cases.push_back(oracle_inputs(0x0f05ed, s + 1));
  }

  std::size_t coinciding = 0;
  std::size_t fleets = 0;
  std::size_t deep_tail = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE("case " + std::to_string(c));
    const ModelInputs& inputs = cases[c];
    queueing::ErlangKernel one_walk;
    const ModelResult fused =
        UtilityAnalyticModel(inputs).use_kernel(&one_walk).solve();

    ScenarioBatch batch;
    batch.append(inputs);
    ModelResult separate;
    const std::span<ModelResult> out(&separate, 1);
    queueing::ErlangKernel two_walks;
    batch_kernels::staff_dedicated(batch, 0, 1, &two_walks, out);
    batch_kernels::staff_consolidated(batch, 0, 1, &two_walks, out);
    batch_kernels::staff_fleet(batch, 0, 1, out);
    batch_kernels::derive_utility(batch, 0, 1, out);
    batch_kernels::derive_power(batch, 0, 1, out);
    expect_bit_identical(fused, separate);

    // Staffing and blocking: one query per demanded (service, resource)
    // and one per demanded merged resource, each asked twice.
    std::uint64_t staged = 0;
    for (const ServicePlan& plan : separate.dedicated) {
      for (const dc::Resource resource : dc::all_resources()) {
        staged += plan.offered_load[resource] > 0.0 ? 2 : 0;
      }
      for (const dc::Resource resource : dc::all_resources()) {
        const double rho = plan.offered_load[resource];
        if (rho > 0.0 &&
            static_cast<double>(plan.servers) > 1.76 * rho + 10.0) {
          ++deep_tail;  // blocking evaluated in the subnormal/zero tail
        }
      }
    }
    for (const ConsolidatedResourcePlan& plan : separate.consolidated) {
      staged += plan.demanded ? 2 : 0;
    }
    EXPECT_EQ(one_walk.stats().evaluations, staged);
    EXPECT_EQ(two_walks.stats().evaluations, staged);

    fleets += fused.fleet.planned ? 1 : 0;
    if (inputs.services.size() == 1) {
      bool same = true;
      for (const dc::Resource resource : dc::all_resources()) {
        same = same &&
               bits(fused.dedicated[0].offered_load[resource]) ==
                   bits(fused.consolidated[static_cast<std::size_t>(resource)]
                            .offered_load);
      }
      coinciding += same ? 1 : 0;
    }
  }
  // The draws really reach the cases the test is about.
  EXPECT_GE(coinciding, 200u);
  EXPECT_GT(fleets, 600u / 4);
  EXPECT_GT(deep_tail, 600u / 4);
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

/// A staffing pass on `walk` (servers_for_many, then eval_many at the
/// staffed counts' loads), each answer checked against the free functions.
void expect_walk_matches_oracle(
    queueing::ErlangWalk& walk,
    const std::vector<queueing::StaffingQuery>& staffing,
    const std::vector<queueing::BlockingQuery>& blocking) {
  std::vector<std::uint64_t> staffed(staffing.size());
  walk.servers_for_many(staffing, staffed);
  for (std::size_t i = 0; i < staffing.size(); ++i) {
    ASSERT_EQ(staffed[i], queueing::erlang_b_servers(
                              staffing[i].rho, staffing[i].target_blocking))
        << "i=" << i << " rho=" << staffing[i].rho
        << " B=" << staffing[i].target_blocking;
  }
  std::vector<double> blocked(blocking.size());
  walk.eval_many(blocking, blocked);
  for (std::size_t i = 0; i < blocking.size(); ++i) {
    ASSERT_EQ(bits(blocked[i]),
              bits(queueing::erlang_b(blocking[i].servers, blocking[i].rho)))
        << "i=" << i << " rho=" << blocking[i].rho
        << " n=" << blocking[i].servers;
  }
}

TEST(ErlangWalk, GroupedSpanMatchesFreeFunctions) {
  // The grouping property span: 2,000 shuffled loads, repeated pairs,
  // +0.0 and -0.0, target 1.0, n = 0 and a huge rho. The second pass asks
  // the same queries in another order, with every load's resume point set.
  auto staffing = erlang_spans::staffing(0x0a11ce, 2000, true);
  auto blocking = erlang_spans::blocking(0x0a11ce, 2000);
  queueing::ErlangWalk walk;
  expect_walk_matches_oracle(walk, staffing, blocking);
  Rng rng = make_stream(0x0a11ce, 2);
  erlang_spans::shuffle(rng, staffing);
  erlang_spans::shuffle(rng, blocking);
  expect_walk_matches_oracle(walk, staffing, blocking);
}

TEST(ErlangWalk, EverySpanLengthAroundTheInlineCutOverMatches) {
  // Spans of up to 16 queries (solve() on two services stages at most 12
  // per call) group in inline storage, longer ones in heap storage sized
  // from the span; every length from 1 to 80, with shared and distinct
  // loads, covers both.
  const auto staffing = erlang_spans::staffing(0x0a11ce, 40, false);
  const auto blocking = erlang_spans::blocking(0x0a11ce, 40);
  ASSERT_GE(std::min(staffing.size(), blocking.size()), 80u);
  for (std::size_t length = 1; length <= 80; ++length) {
    SCOPED_TRACE("length=" + std::to_string(length));
    queueing::ErlangWalk walk;
    expect_walk_matches_oracle(
        walk, {staffing.begin(), staffing.begin() + length},
        {blocking.begin(), blocking.begin() + length});
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
      // Neither a resume point nor kept values walked past the guard by
      // eval_many may hide the throw, for one target or for several.
      for (const std::vector<queueing::BlockingQuery>& grow :
           {std::vector<queueing::BlockingQuery>{{limit + 600, rho}},
            std::vector<queueing::BlockingQuery>{{limit + 600, rho},
                                                 {10, rho}}}) {
        queueing::ErlangWalk deep;
        std::vector<double> value(grow.size());
        deep.eval_many(grow, value);
        std::uint64_t one = 0;
        const std::span<const queueing::StaffingQuery> tight(&queries[1], 1);
        EXPECT_EQ(throws_numeric([&] {
                    deep.servers_for_many(tight,
                                          std::span<std::uint64_t>(&one, 1));
                  }),
                  scalar);
        EXPECT_EQ(throws_numeric([&] { deep.servers_for_many(queries, out); }),
                  scalar);
      }
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
  // Past ~2e6 erlangs a walk keeps no values: one target runs in lanes from
  // the resume point, several fall back to the free function. Both must
  // agree with the free functions, throws included.
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
    queueing::ErlangWalk fresh;
    EXPECT_EQ(throws_numeric([&] { walk.servers_for_many(queries, walked); }),
              scalar);
    const std::vector<queueing::StaffingQuery> several{{rho, target},
                                                       {rho, 0.2}};
    std::vector<std::uint64_t> both(several.size());
    EXPECT_EQ(throws_numeric([&] { fresh.servers_for_many(several, both); }),
              scalar);
    memo[0] = both[0];
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

TEST(ErlangWalk, ShuffledSpansMixingOneAndSeveralPointLoadsMatchFreeFunctions) {
  // Twelve calls on one walk over a fixed pool of loads. In each call a
  // load is asked at one point or at two to four, each point possibly
  // repeated, and the span is shuffled; staffing and blocking calls
  // alternate. The pool holds +0.0 and -0.0 and a huge load whose several
  // targets fall back to the free function while its blocking depths keep
  // values. Targets include 1.0 and depths include n = 0. A shadow of
  // which loads were asked at several points, and how far each was walked,
  // checks that the calls reach the cases the walk distinguishes.
  Rng rng = make_stream(0x0a11ce, 1u << 23);
  std::vector<double> rhos = erlang_spans::loads(rng, 60);
  rhos.push_back(0.0);
  rhos.push_back(-0.0);
  const double huge = erlang_spans::kHugeRho;
  struct Shadow {
    bool several = false;        // asked at several points in some call
    bool once_then_several = false;
    std::uint64_t farthest = 0;  // farthest point any call walked to
  };
  std::vector<Shadow> shadow(rhos.size());
  std::size_t behind_bare = 0;
  std::size_t single_to_several = 0;
  queueing::ErlangWalk walk;
  for (int call = 0; call < 12; ++call) {
    SCOPED_TRACE("call " + std::to_string(call));
    const bool staffing_call = call % 2 == 0;
    std::vector<queueing::StaffingQuery> staffing;
    std::vector<queueing::BlockingQuery> blocking;
    for (std::size_t l = 0; l < rhos.size(); ++l) {
      if (!rng.bernoulli(0.6)) {
        continue;
      }
      const double rho = rhos[l];
      const std::size_t points =
          rng.bernoulli(0.5) ? 1 : 2 + rng.uniform_index(3);
      Shadow& seen = shadow[l];
      std::uint64_t deepest = 0;
      for (std::size_t p = 0; p < points; ++p) {
        const std::size_t copies = 1 + rng.uniform_index(2);
        if (staffing_call) {
          const double target =
              rng.uniform_index(10) == 0
                  ? 1.0
                  : std::exp(rng.uniform(std::log(1e-9), std::log(0.9)));
          staffing.insert(staffing.end(), copies, {rho, target});
          if (rho > 0.0) {
            deepest = std::max(deepest,
                               queueing::erlang_b_servers(rho, target));
          }
        } else {
          const std::uint64_t servers =
              rng.uniform_index(10) == 0
                  ? 0
                  : rng.uniform_index(
                        static_cast<std::uint64_t>(3.0 * rho) + 40);
          blocking.insert(blocking.end(), copies, {servers, rho});
          deepest = std::max(deepest, servers);
        }
      }
      if (rho > 0.0) {
        if (points == 1 && !staffing_call && !seen.several &&
            deepest > 0 && deepest < seen.farthest) {
          ++behind_bare;
        }
        if (points > 1 && !seen.several && seen.farthest > 0) {
          ++single_to_several;
        }
        seen.several = seen.several || points > 1;
        seen.farthest = std::max(seen.farthest, deepest);
      }
    }
    if (call == 4 || call == 8) {
      staffing.push_back({huge, 1e-2});
      staffing.push_back({huge, 0.2});
    }
    if (call == 3) {
      blocking.push_back({1000, huge});
      blocking.push_back({5000, huge});
    }
    if (call == 6) {
      staffing.push_back({huge, 1e-2});
    }
    erlang_spans::shuffle(rng, staffing);
    erlang_spans::shuffle(rng, blocking);
    if (staffing_call) {
      std::vector<std::uint64_t> out(staffing.size());
      walk.servers_for_many(staffing, out);
      for (std::size_t i = 0; i < staffing.size(); ++i) {
        ASSERT_EQ(out[i], queueing::erlang_b_servers(
                              staffing[i].rho, staffing[i].target_blocking))
            << "rho=" << staffing[i].rho
            << " B=" << staffing[i].target_blocking;
      }
    } else {
      std::vector<double> out(blocking.size());
      walk.eval_many(blocking, out);
      for (std::size_t i = 0; i < blocking.size(); ++i) {
        ASSERT_EQ(bits(out[i]), bits(queueing::erlang_b(blocking[i].servers,
                                                        blocking[i].rho)))
            << "rho=" << blocking[i].rho << " n=" << blocking[i].servers;
      }
    }
  }
  EXPECT_GT(behind_bare, 0u);
  EXPECT_GT(single_to_several, 0u);
  EXPECT_GT(walk.kept_loads(), 0u);
}

TEST(ErlangWalk, SinglePointLoadsKeepNoValues) {
  // Every call asks each load at one point (repeated or not): the walk
  // keeps resume points only, however the points move between calls.
  Rng rng = make_stream(0x0a11ce, 1u << 24);
  const std::vector<double> rhos = erlang_spans::loads(rng, 40);
  queueing::ErlangWalk walk;
  for (int call = 0; call < 6; ++call) {
    std::vector<queueing::StaffingQuery> staffing;
    std::vector<queueing::BlockingQuery> blocking;
    for (const double rho : rhos) {
      const double target =
          std::exp(rng.uniform(std::log(1e-6), std::log(0.5)));
      const std::uint64_t servers =
          1 + rng.uniform_index(static_cast<std::uint64_t>(2.0 * rho) + 20);
      const std::size_t copies = 1 + rng.uniform_index(3);
      staffing.insert(staffing.end(), copies, {rho, target});
      blocking.insert(blocking.end(), copies, {servers, rho});
    }
    expect_walk_matches_oracle(walk, staffing, blocking);
  }
  EXPECT_EQ(walk.kept_loads(), 0u);

  // One load asked at two points in one call starts keeping its values.
  const std::vector<queueing::BlockingQuery> two{{5, rhos[0]}, {9, rhos[0]}};
  std::vector<double> out(two.size());
  walk.eval_many(two, out);
  EXPECT_EQ(walk.kept_loads(), 1u);
}

TEST(ErlangWalk, KeptValuesAnswerLaterCallsWithoutSteps) {
  // A load asked at two depths keeps E_0..E_150 for the walk's lifetime:
  // later calls read covered points without a step (counted as hits) and
  // extend past them from E_150, not from E_0.
  const double rho = 120.0;
  queueing::ErlangWalk walk;
  std::vector<double> out(2);
  const std::vector<queueing::BlockingQuery> first{{150, rho}, {40, rho}};
  walk.eval_many(first, out);
  EXPECT_EQ(walk.tally().steps, 150u);
  EXPECT_EQ(walk.tally().cache_hits, 0u);
  walk.eval_many(first, out);
  EXPECT_EQ(bits(out[0]), bits(queueing::erlang_b(150, rho)));
  EXPECT_EQ(bits(out[1]), bits(queueing::erlang_b(40, rho)));
  EXPECT_EQ(walk.tally().steps, 150u);
  EXPECT_EQ(walk.tally().cache_hits, 2u);

  const std::vector<queueing::BlockingQuery> deeper{{600, rho}};
  walk.eval_many(deeper, std::span<double>(out.data(), 1));
  EXPECT_EQ(bits(out[0]), bits(queueing::erlang_b(600, rho)));
  EXPECT_EQ(walk.tally().steps, 600u);

  // Staffing answers inside the kept values cost no step either.
  const std::vector<queueing::StaffingQuery> staffing{{rho, 0.01}};
  std::uint64_t servers = 0;
  walk.servers_for_many(staffing, std::span<std::uint64_t>(&servers, 1));
  EXPECT_EQ(servers, queueing::erlang_b_servers(rho, 0.01));
  EXPECT_EQ(walk.tally().steps, 600u);
  EXPECT_EQ(walk.tally().cache_hits, 3u);
  EXPECT_EQ(walk.tally().evaluations, 6u);
}

}  // namespace
}  // namespace vmcons::core
