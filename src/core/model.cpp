#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "core/batch_eval.hpp"
#include "core/scenario_batch.hpp"
#include "queueing/erlang.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/error.hpp"

namespace vmcons::core {

std::uint64_t FleetPlan::dedicated_total() const {
  std::uint64_t total = 0;
  for (const ClassAllocation& allocation : classes) {
    total += allocation.dedicated_servers;
  }
  return total;
}

std::uint64_t FleetPlan::consolidated_total() const {
  std::uint64_t total = 0;
  for (const ClassAllocation& allocation : classes) {
    total += allocation.consolidated_servers;
  }
  return total;
}

UtilityAnalyticModel::UtilityAnalyticModel(ModelInputs inputs)
    : inputs_(std::move(inputs)) {
  VMCONS_REQUIRE(inputs_.target_loss > 0.0 && inputs_.target_loss < 1.0,
                 "target loss must be in (0, 1)");
  VMCONS_REQUIRE(!inputs_.services.empty(), "model needs at least one service");
  for (const auto& service : inputs_.services) {
    VMCONS_REQUIRE(service.arrival_rate > 0.0,
                   "service '" + service.name + "' needs arrival rate > 0");
    VMCONS_REQUIRE(service.native_rates.all_finite_non_negative(),
                   "service '" + service.name +
                       "' needs finite native rates >= 0");
    VMCONS_REQUIRE(service.native_rates.any_positive(),
                   "service '" + service.name + "' demands no resource");
  }
}

double UtilityAnalyticModel::eval_erlang_b(std::uint64_t servers,
                                           double rho) const {
  return kernel_ ? kernel_->erlang_b(servers, rho)
                 : queueing::erlang_b(servers, rho);
}

std::uint64_t UtilityAnalyticModel::eval_erlang_b_servers(
    double rho, double target) const {
  return kernel_ ? kernel_->erlang_b_servers(rho, target)
                 : queueing::erlang_b_servers(rho, target);
}

unsigned UtilityAnalyticModel::vm_count() const {
  if (inputs_.vms_per_server.has_value()) {
    return *inputs_.vms_per_server;
  }
  return static_cast<unsigned>(inputs_.services.size());
}

double UtilityAnalyticModel::clamped_impact(std::size_t service,
                                            dc::Resource resource) const {
  return inputs_.services[service].impact_factor(resource, vm_count());
}

double UtilityAnalyticModel::dedicated_offered_load(std::size_t service,
                                                    dc::Resource resource) const {
  VMCONS_REQUIRE(service < inputs_.services.size(), "service index out of range");
  const double mu = inputs_.services[service].native_rates[resource];
  if (mu <= 0.0) {
    return 0.0;
  }
  return queueing::offered_load(inputs_.services[service].arrival_rate, mu);
}

double UtilityAnalyticModel::consolidated_offered_load(dc::Resource resource) const {
  // Eq. (4)/(5), restricted to the services that demand this resource:
  // requests with no demand never visit the resource's queue.
  double merged_lambda = 0.0;
  double weighted_capacity = 0.0;  // sum_i lambda_i * mu_ij * a_ij
  for (std::size_t i = 0; i < inputs_.services.size(); ++i) {
    const auto& service = inputs_.services[i];
    const double mu = service.native_rates[resource];
    if (mu <= 0.0) {
      continue;
    }
    merged_lambda += service.arrival_rate;
    weighted_capacity += service.arrival_rate * mu * clamped_impact(i, resource);
  }
  if (merged_lambda <= 0.0) {
    return 0.0;
  }
  // rho' = lambda / mu' with mu' = weighted_capacity / lambda (Eq. 4).
  return merged_lambda * merged_lambda / weighted_capacity;
}

ModelResult UtilityAnalyticModel::solve() const {
  // The scalar path is a batch of one: the same span kernels the
  // BatchEvaluator runs over whole grids, so the two are bit-identical by
  // construction (there is exactly one implementation of the math). Both
  // staffing kernels share one walk: one scenario keeps few of the walk's
  // lanes live, so each lane run costs its longest chain's latency, and 2
  // runs instead of 4 pay it half as often (see batch_eval.hpp for why
  // BatchEvaluator keeps one walk per kernel).
  //
  // The batch of one is this thread's batch, cleared and refilled on every
  // call: its columns keep their capacity (about 1 KB for a few services),
  // so a warm call stages without allocating. Every call starts with
  // clear(), so a solve() that threw leaves nothing the next one reads; no
  // kernel calls back into solve(), so one batch per thread suffices.
  thread_local ScenarioBatch batch;
  batch.clear();
  batch.append(inputs_);
  ModelResult result;
  const std::span<ModelResult> out(&result, 1);
  batch_kernels::staff_deployments(batch, 0, 1, kernel_, out);
  batch_kernels::staff_fleet(batch, 0, 1, out);
  batch_kernels::derive_utility(batch, 0, 1, out);
  batch_kernels::derive_power(batch, 0, 1, out);
  return result;
}

double UtilityAnalyticModel::dedicated_loss(
    const std::vector<std::uint64_t>& servers_per_service) const {
  VMCONS_REQUIRE(servers_per_service.size() == inputs_.services.size(),
                 "one server count per service required");
  // Loss by requests: lambda-weighted blocking, each service at its own
  // bottleneck resource.
  double lost = 0.0;
  double offered = 0.0;
  for (std::size_t i = 0; i < inputs_.services.size(); ++i) {
    double blocking = 0.0;
    for (const dc::Resource resource : dc::all_resources()) {
      const double rho = dedicated_offered_load(i, resource);
      if (rho > 0.0) {
        blocking = std::max(
            blocking, eval_erlang_b(servers_per_service[i], rho));
      }
    }
    lost += inputs_.services[i].arrival_rate * blocking;
    offered += inputs_.services[i].arrival_rate;
  }
  return offered > 0.0 ? lost / offered : 0.0;
}

double UtilityAnalyticModel::consolidated_loss(std::uint64_t servers) const {
  double worst = 0.0;
  for (const dc::Resource resource : dc::all_resources()) {
    const double rho = consolidated_offered_load(resource);
    if (rho > 0.0) {
      worst = std::max(worst, eval_erlang_b(servers, rho));
    }
  }
  return worst;
}

double intensive_workload(const dc::ServiceSpec& service,
                          std::uint64_t dedicated_servers, double target_loss,
                          double fraction) {
  VMCONS_REQUIRE(dedicated_servers >= 1, "need at least one dedicated server");
  VMCONS_REQUIRE(fraction >= 0.0 && fraction <= 1.0,
                 "fraction must be in [0, 1]");
  const double mu = service.native_bottleneck_rate();
  // The service needs exactly n servers when rho lies in
  // (capacity(n-1), capacity(n)] — capacity(0) = 0.
  const double hi = queueing::erlang_b_capacity(dedicated_servers, target_loss);
  const double lo =
      dedicated_servers == 1
          ? 0.0
          : queueing::erlang_b_capacity(dedicated_servers - 1, target_loss);
  const double rho = lo + fraction * (hi - lo);
  return rho * mu;
}

}  // namespace vmcons::core
