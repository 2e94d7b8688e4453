#include "core/planner.hpp"

#include "util/error.hpp"

namespace vmcons::core {

ConsolidationPlanner& ConsolidationPlanner::set_target_loss(double b) {
  VMCONS_REQUIRE(b > 0.0 && b < 1.0, "target loss must be in (0, 1)");
  target_loss_ = b;
  return *this;
}

ConsolidationPlanner& ConsolidationPlanner::add_service(dc::ServiceSpec service) {
  services_.push_back(std::move(service));
  return *this;
}

ConsolidationPlanner& ConsolidationPlanner::set_vms_per_server(unsigned vms) {
  VMCONS_REQUIRE(vms >= 1, "need at least one VM per server");
  vms_per_server_ = vms;
  return *this;
}

ConsolidationPlanner& ConsolidationPlanner::set_fleet(dc::Fleet fleet) {
  fleet_ = std::move(fleet);
  return *this;
}

ConsolidationPlanner& ConsolidationPlanner::scale_workloads(double factor) {
  VMCONS_REQUIRE(factor > 0.0, "workload scale must be positive");
  workload_scale_ *= factor;
  return *this;
}

ModelInputs ConsolidationPlanner::make_inputs() const {
  VMCONS_REQUIRE(!services_.empty(), "planner has no services");
  ModelInputs inputs;
  inputs.target_loss = target_loss_;
  inputs.services = services_;
  for (auto& service : inputs.services) {
    service.arrival_rate *= workload_scale_;
  }
  inputs.vms_per_server = vms_per_server_;
  inputs.fleet = fleet_;
  return inputs;
}

PlanReport ConsolidationPlanner::plan() const { return plan_with(nullptr); }

PlanReport ConsolidationPlanner::plan_with(
    queueing::ErlangKernel* kernel) const {
  UtilityAnalyticModel model(make_inputs());
  model.use_kernel(kernel);
  PlanReport report;
  report.model = model.solve();
  const std::vector<dc::ServiceSpec>& services = model.inputs().services;
  report.arrival_rates.reserve(services.size());
  for (const auto& service : services) {
    report.arrival_rates.push_back(service.arrival_rate);
  }
  return report;
}

std::vector<PlanReport> ConsolidationPlanner::sweep_target_loss(
    const std::vector<double>& losses) const {
  SweepGrid grid;
  grid.target_losses(losses);
  std::vector<SweepCell> cells = sweep(grid);
  std::vector<PlanReport> reports;
  reports.reserve(cells.size());
  for (auto& cell : cells) {
    reports.push_back(std::move(cell.report));
  }
  return reports;
}

}  // namespace vmcons::core
