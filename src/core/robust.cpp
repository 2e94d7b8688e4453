#include "core/robust.hpp"

#include <algorithm>
#include <cmath>

#include "core/batch_eval.hpp"
#include "core/scenario_batch.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"
#include "virt/impact.hpp"

namespace vmcons::core {
namespace {

/// Lognormal multiplier with mean 1 and the given coefficient of variation.
double lognormal_factor(double cv, Rng& rng) {
  if (cv <= 0.0) {
    return 1.0;
  }
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = -0.5 * sigma2;
  return std::exp(rng.normal(mu, std::sqrt(sigma2)));
}

}  // namespace

ModelInputs perturb_inputs(const ModelInputs& inputs,
                           const ParameterUncertainty& uncertainty, Rng& rng) {
  VMCONS_REQUIRE(uncertainty.arrival_cv >= 0.0 &&
                     uncertainty.service_cv >= 0.0 &&
                     uncertainty.impact_sd >= 0.0,
                 "uncertainty parameters must be >= 0");
  ModelInputs sample = inputs;
  const unsigned vm_count =
      inputs.vms_per_server.value_or(
          static_cast<unsigned>(inputs.services.size()));
  for (auto& service : sample.services) {
    service.arrival_rate *= lognormal_factor(uncertainty.arrival_cv, rng);
    for (const dc::Resource resource : dc::all_resources()) {
      const double mu = service.native_rates[resource];
      if (mu <= 0.0) {
        continue;
      }
      const double perturbed_mu =
          mu * lognormal_factor(uncertainty.service_cv, rng);
      // Perturb the impact factor at the planning VM count and freeze it as
      // a constant: the sampled world has one concrete (mu, a) pair.
      double factor = service.impact_factor(resource, vm_count);
      if (uncertainty.impact_sd > 0.0) {
        factor = std::clamp(factor + rng.normal(0.0, uncertainty.impact_sd),
                            virt::Impact::kMinFactor, 1.0);
      }
      service.demand(resource, perturbed_mu, virt::Impact::constant(factor));
    }
  }
  return sample;
}

RobustPlan robust_consolidated_plan(const ModelInputs& inputs,
                                    const ParameterUncertainty& uncertainty,
                                    std::size_t samples, std::uint64_t seed,
                                    double quantile,
                                    const RunControl& control) {
  VMCONS_REQUIRE(samples >= 1, "need at least one sample");
  VMCONS_REQUIRE(quantile > 0.0 && quantile <= 1.0,
                 "quantile must be in (0, 1]");

  RobustPlan plan;
  plan.quantile = quantile;

  // One columnar batch holds the unperturbed point estimate (scenario 0)
  // plus every Monte Carlo draw; sampling stays deterministic per index.
  // Memoization is off: perturbed offered loads are almost surely distinct,
  // so caching them would fill every worker's extension arena with
  // single-use prefixes and the end-of-batch merge would flush that churn
  // into the shared snapshot, evicting genuinely reusable states. Keeping
  // the Monte Carlo pass off the kernel leaves its merge epochs to the
  // sweep/validation paths that actually revisit their loads.
  const std::vector<ModelInputs> sampled = parallel_map(
      samples,
      [&](std::size_t index) {
        Rng rng = make_stream(seed, index);
        return perturb_inputs(inputs, uncertainty, rng);
      },
      ThreadPool::shared(), 0, &control);
  ScenarioBatch batch;
  batch.append(inputs);
  for (const ModelInputs& sample : sampled) {
    batch.append(sample);
  }
  BatchOptions options;
  options.control = control;
  const std::vector<ModelResult> results =
      BatchEvaluator(options).evaluate(batch);
  plan.point_estimate_n = results[0].consolidated_servers;

  double total = 0.0;
  std::size_t above_point = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    const std::uint64_t n = results[i].consolidated_servers;
    ++plan.n_histogram[n];
    total += static_cast<double>(n);
    if (n > plan.point_estimate_n) {
      ++above_point;
    }
  }
  plan.mean_n = total / static_cast<double>(samples);
  plan.underprovision_risk =
      static_cast<double>(above_point) / static_cast<double>(samples);

  const auto target =
      static_cast<std::size_t>(std::ceil(quantile * static_cast<double>(samples)));
  std::size_t covered = 0;
  for (const auto& [n, count] : plan.n_histogram) {
    covered += count;
    if (covered >= target) {
      plan.n_at_quantile = n;
      break;
    }
  }
  return plan;
}

}  // namespace vmcons::core
