#include "core/validation.hpp"

#include <cmath>

#include "core/batch_eval.hpp"
#include "core/scenario_batch.hpp"
#include "util/error.hpp"

namespace vmcons::core {
namespace {

sim::ReplicatedEstimate summarize(const std::vector<double>& values) {
  sim::ReplicatedEstimate estimate;
  for (const double value : values) {
    estimate.summary.add(value);
  }
  if (estimate.summary.count() >= 2) {
    estimate.interval = mean_confidence_interval(estimate.summary);
  } else {
    estimate.interval.mean = estimate.summary.mean();
    estimate.interval.lower = estimate.interval.upper = estimate.interval.mean;
  }
  return estimate;
}

DeploymentMeasurement aggregate(const std::vector<dc::PoolOutcome>& outcomes,
                                std::uint64_t servers) {
  VMCONS_ASSERT(!outcomes.empty());
  DeploymentMeasurement measurement;
  measurement.servers = servers;

  std::vector<double> losses;
  std::vector<double> utilizations;
  std::vector<double> powers;
  const std::size_t service_count = outcomes.front().services.size();
  std::vector<std::vector<double>> service_loss(service_count);
  std::vector<std::vector<double>> service_throughput(service_count);
  std::vector<std::vector<double>> service_response(service_count);

  for (const auto& outcome : outcomes) {
    losses.push_back(outcome.overall_loss());
    utilizations.push_back(outcome.mean_utilization);
    powers.push_back(outcome.mean_power_watts);
    for (std::size_t i = 0; i < service_count; ++i) {
      const auto& service = outcome.services[i];
      service_loss[i].push_back(service.loss_probability());
      service_throughput[i].push_back(service.throughput(outcome.measured_span));
      service_response[i].push_back(service.response_time.mean());
    }
  }

  measurement.loss = summarize(losses);
  measurement.utilization = summarize(utilizations);
  measurement.power_watts = summarize(powers);
  for (std::size_t i = 0; i < service_count; ++i) {
    measurement.per_service_loss.push_back(summarize(service_loss[i]));
    measurement.per_service_throughput.push_back(summarize(service_throughput[i]));
    measurement.per_service_response.push_back(summarize(service_response[i]));
  }
  return measurement;
}

}  // namespace

double ValidationReport::consolidated_loss_error() const {
  return std::abs(consolidated.loss.summary.mean() -
                  model.consolidated_blocking);
}

double ValidationReport::measured_utilization_improvement() const {
  const double dedicated_utilization = dedicated.utilization.summary.mean();
  if (dedicated_utilization <= 0.0) {
    return 0.0;
  }
  return consolidated.utilization.summary.mean() / dedicated_utilization;
}

double ValidationReport::measured_power_saving() const {
  const double dedicated_power = dedicated.power_watts.summary.mean();
  if (dedicated_power <= 0.0) {
    return 0.0;
  }
  return 1.0 - consolidated.power_watts.summary.mean() / dedicated_power;
}

DeploymentMeasurement measure_consolidated(
    const std::vector<dc::ServiceSpec>& services, unsigned servers,
    const ValidationOptions& options) {
  VMCONS_REQUIRE(servers >= 1, "need at least one consolidated server");
  const auto outcomes =
      sim::replicate(options.replications, options.seed,
                     [&](std::size_t, Rng& rng) {
                       return dc::simulate_consolidated(services, servers,
                                                        options.scenario, rng);
                     });
  return aggregate(outcomes, servers);
}

DeploymentMeasurement measure_dedicated(
    const std::vector<dc::ServiceSpec>& services,
    const std::vector<unsigned>& servers_per_service,
    const ValidationOptions& options) {
  std::uint64_t total = 0;
  for (const unsigned count : servers_per_service) {
    total += count;
  }
  const auto outcomes =
      sim::replicate(options.replications, options.seed + 1,
                     [&](std::size_t, Rng& rng) {
                       return dc::simulate_dedicated(
                           services, servers_per_service, options.scenario, rng);
                     });
  return aggregate(outcomes, total);
}

ValidationReport validate(const ModelInputs& inputs,
                          const ValidationOptions& options) {
  return std::move(validate_many(std::span(&inputs, 1), options).front());
}

std::vector<ValidationReport> validate_many(std::span<const ModelInputs> inputs,
                                            const ValidationOptions& options) {
  // Solve every scenario through one columnar batch; the simulated
  // measurements then run per scenario at the model's staffing. The batch
  // keeps no Erlang state past its own staffing passes, so nothing below
  // contends with the simulation threads.
  const ScenarioBatch batch = ScenarioBatch::from_inputs(inputs);
  BatchOptions batch_options;
  batch_options.control = options.control;
  std::vector<ModelResult> solutions =
      BatchEvaluator(batch_options).evaluate(batch);

  std::vector<ValidationReport> reports(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    // The simulation phase dwarfs the analytic solve, so scenario
    // boundaries are the abort points: latency is one scenario's
    // replications.
    options.control.raise_if_stopped("validate_many (scenario " +
                                     std::to_string(i) + ")");
    ValidationReport& report = reports[i];
    report.model = std::move(solutions[i]);

    std::vector<unsigned> dedicated_staffing = options.dedicated_servers;
    if (dedicated_staffing.empty()) {
      for (const auto& plan : report.model.dedicated) {
        dedicated_staffing.push_back(static_cast<unsigned>(plan.servers));
      }
    }
    const auto consolidated_servers = static_cast<unsigned>(
        options.consolidated_servers != 0 ? options.consolidated_servers
                                          : report.model.consolidated_servers);

    report.dedicated =
        measure_dedicated(inputs[i].services, dedicated_staffing, options);
    report.consolidated =
        measure_consolidated(inputs[i].services, consolidated_servers, options);
  }
  return reports;
}

}  // namespace vmcons::core
