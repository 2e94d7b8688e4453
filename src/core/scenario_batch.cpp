#include "core/scenario_batch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "virt/impact.hpp"

namespace vmcons::core {
namespace {

/// One service row's bottleneck and effective rates from its native rates
/// and clamped impact factors, with the exact arithmetic of the scalar
/// accessors (ServiceSpec::native_bottleneck_rate / effective_rate):
/// resources in all_resources() order, zero rates skipped,
/// min-accumulation. write_rows derives the stored columns with it and
/// from_columns checks stored columns against it.
struct DerivedRates {
  double bottleneck = std::numeric_limits<double>::infinity();
  double effective = std::numeric_limits<double>::infinity();
};

DerivedRates derive_rates(
    const dc::ResourceVector& native,
    const std::array<double, dc::kResourceCount>& factor) {
  DerivedRates rates;
  for (const dc::Resource resource : dc::all_resources()) {
    const double mu = native[resource];
    if (mu <= 0.0) {
      continue;
    }
    rates.bottleneck = std::min(rates.bottleneck, mu);
    rates.effective = std::min(
        rates.effective, mu * factor[static_cast<std::size_t>(resource)]);
  }
  return rates;
}

}  // namespace

std::size_t ScenarioBatch::append(const ModelInputs& inputs) {
  // Same preconditions as the UtilityAnalyticModel constructor, so a batch
  // can only hold scenarios the scalar path would also accept.
  VMCONS_REQUIRE(inputs.target_loss > 0.0 && inputs.target_loss < 1.0,
                 "target loss must be in (0, 1)");
  VMCONS_REQUIRE(!inputs.services.empty(), "model needs at least one service");
  for (const auto& service : inputs.services) {
    VMCONS_REQUIRE(service.arrival_rate > 0.0,
                   "service '" + service.name + "' needs arrival rate > 0");
    VMCONS_REQUIRE(service.native_rates.all_finite_non_negative(),
                   "service '" + service.name +
                       "' needs finite native rates >= 0");
    VMCONS_REQUIRE(service.native_rates.any_positive(),
                   "service '" + service.name + "' demands no resource");
  }

  const std::size_t scenario = size();
  const unsigned v = inputs.vms_per_server.value_or(
      static_cast<unsigned>(inputs.services.size()));
  target_loss_.push_back(inputs.target_loss);
  vm_count_.push_back(v);
  dedicated_power_.push_back(inputs.dedicated_power);
  consolidated_power_.push_back(inputs.consolidated_power);
  row_begin_.push_back(service_rows() + inputs.services.size());
  class_begin_.push_back(class_rows() + inputs.fleet.size());
  for (const auto& service : inputs.services) {
    arrival_rate_.push_back(service.arrival_rate);
  }
  write_rows(inputs.services, v, inputs.fleet);
  return scenario;
}

void ScenarioBatch::write_rows(std::span<const dc::ServiceSpec> services,
                               unsigned v, const dc::Fleet& fleet) {
  for (const dc::ServiceSpec& service : services) {
    service_name_.push_back(service.name);
    std::array<double, dc::kResourceCount> factor{};
    for (const dc::Resource resource : dc::all_resources()) {
      const auto r = static_cast<std::size_t>(resource);
      factor[r] = service.impacts[r].factor(v);
      native_rate_[r].push_back(service.native_rates[resource]);
      impact_[r].push_back(factor[r]);
    }
    const DerivedRates rates = derive_rates(service.native_rates, factor);
    bottleneck_rate_.push_back(rates.bottleneck);
    effective_rate_.push_back(rates.effective);
  }

  // Fleet-class rows. A Fleet is valid by construction (its only mutator
  // validates), so the columns adopt the classes as-is.
  for (const dc::ServerClass& server_class : fleet.classes()) {
    class_name_.push_back(server_class.name);
    for (const dc::Resource resource : dc::all_resources()) {
      class_capacity_[static_cast<std::size_t>(resource)].push_back(
          server_class.capacity[resource]);
    }
    class_base_watts_.push_back(server_class.power.base_watts);
    class_max_watts_.push_back(server_class.power.max_watts);
    class_count_.push_back(server_class.count);
    class_speed_.push_back(server_class.speed());
  }
}

template <typename S, typename R, typename C>
void ScenarioBatch::for_each_column(S&& scenario, R&& row, C&& cls) {
  scenario(target_loss_);
  scenario(vm_count_);
  scenario(dedicated_power_);
  scenario(consolidated_power_);
  row(arrival_rate_);
  row(service_name_);
  row(bottleneck_rate_);
  row(effective_rate_);
  cls(class_name_);
  cls(class_base_watts_);
  cls(class_max_watts_);
  cls(class_count_);
  cls(class_speed_);
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    row(native_rate_[r]);
    row(impact_[r]);
    cls(class_capacity_[r]);
  }
}

void ScenarioBatch::reserve(std::size_t scenarios, std::size_t services,
                            std::size_t classes) {
  const std::size_t scenario_total = size() + scenarios;
  const std::size_t row_total = service_rows() + services;
  const std::size_t class_total = class_rows() + classes;
  row_begin_.reserve(scenario_total + 1);
  class_begin_.reserve(scenario_total + 1);
  for_each_column([&](auto& column) { column.reserve(scenario_total); },
                  [&](auto& column) { column.reserve(row_total); },
                  [&](auto& column) { column.reserve(class_total); });
}

void ScenarioBatch::clear() {
  row_begin_.resize(1);  // the leading 0 offsets stay
  class_begin_.resize(1);
  const auto drop = [](auto& column) { column.clear(); };
  for_each_column(drop, drop, drop);
}

ScenarioBatch::Prototype::Prototype(const ModelInputs& shape)
    : vm_count_(shape.vms_per_server.value_or(
          static_cast<unsigned>(shape.services.size()))),
      dedicated_power_(shape.dedicated_power),
      consolidated_power_(shape.consolidated_power) {
  demands_.reserve(shape.services.size());
  for (const dc::ServiceSpec& service : shape.services) {
    VMCONS_REQUIRE(service.native_rates.all_finite_non_negative(),
                   "service '" + service.name +
                       "' needs finite native rates >= 0");
    demands_.push_back(service.native_rates.any_positive() ? 1 : 0);
  }
  rows_.write_rows(shape.services, vm_count_, shape.fleet);
}

namespace {

template <typename T>
void append_all(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

std::size_t ScenarioBatch::append(const Prototype& prototype,
                                  double target_loss,
                                  std::span<const double> arrival,
                                  std::span<const std::uint64_t> class_counts) {
  const ScenarioBatch& rows = prototype.rows_;
  const std::size_t count = prototype.demands_.size();
  VMCONS_REQUIRE(target_loss > 0.0 && target_loss < 1.0,
                 "target loss must be in (0, 1)");
  VMCONS_REQUIRE(count > 0, "model needs at least one service");
  VMCONS_REQUIRE(arrival.size() == count,
                 "a prototype scenario needs one arrival rate per service");
  for (std::size_t i = 0; i < count; ++i) {
    VMCONS_REQUIRE(arrival[i] > 0.0, "service '" + rows.service_name_[i] +
                                         "' needs arrival rate > 0");
    VMCONS_REQUIRE(prototype.demands_[i] != 0,
                   "service '" + rows.service_name_[i] +
                       "' demands no resource");
  }
  VMCONS_REQUIRE(
      class_counts.empty() || class_counts.size() == rows.class_rows(),
      "a prototype scenario needs one count per fleet class");

  const std::size_t scenario = size();
  target_loss_.push_back(target_loss);
  vm_count_.push_back(prototype.vm_count_);
  dedicated_power_.push_back(prototype.dedicated_power_);
  consolidated_power_.push_back(prototype.consolidated_power_);
  row_begin_.push_back(service_rows() + count);
  arrival_rate_.insert(arrival_rate_.end(), arrival.begin(), arrival.end());
  append_all(service_name_, rows.service_name_);
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    append_all(native_rate_[r], rows.native_rate_[r]);
    append_all(impact_[r], rows.impact_[r]);
  }
  append_all(bottleneck_rate_, rows.bottleneck_rate_);
  append_all(effective_rate_, rows.effective_rate_);

  class_begin_.push_back(class_rows() + rows.class_rows());
  append_all(class_name_, rows.class_name_);
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    append_all(class_capacity_[r], rows.class_capacity_[r]);
  }
  append_all(class_base_watts_, rows.class_base_watts_);
  append_all(class_max_watts_, rows.class_max_watts_);
  if (class_counts.empty()) {
    append_all(class_count_, rows.class_count_);
  } else {
    class_count_.insert(class_count_.end(), class_counts.begin(),
                        class_counts.end());
  }
  append_all(class_speed_, rows.class_speed_);
  return scenario;
}

ScenarioBatch ScenarioBatch::from_columns(Columns&& columns) {
  const std::size_t scenarios = columns.target_loss.size();
  VMCONS_REQUIRE(columns.vm_count.size() == scenarios &&
                     columns.dedicated_power.size() == scenarios &&
                     columns.consolidated_power.size() == scenarios,
                 "scenario columns disagree on the scenario count");
  VMCONS_REQUIRE(columns.row_begin.size() == scenarios + 1,
                 "row_begin must hold scenario count + 1 offsets");
  VMCONS_REQUIRE(columns.row_begin.front() == 0,
                 "row_begin must start at offset 0");
  for (std::size_t s = 0; s < scenarios; ++s) {
    VMCONS_REQUIRE(columns.row_begin[s] < columns.row_begin[s + 1],
                   "row_begin must be strictly increasing (every scenario "
                   "needs at least one service)");
  }
  const std::size_t rows = columns.row_begin.back();
  bool rows_consistent =
      columns.arrival_rate.size() == rows &&
      columns.bottleneck_rate.size() == rows &&
      columns.effective_rate.size() == rows &&
      columns.service_name.size() == rows;
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    rows_consistent = rows_consistent && columns.native_rate[r].size() == rows &&
                      columns.impact[r].size() == rows;
  }
  VMCONS_REQUIRE(rows_consistent,
                 "service-row columns disagree with the row_begin offsets");
  for (std::size_t s = 0; s < scenarios; ++s) {
    VMCONS_REQUIRE(
        columns.target_loss[s] > 0.0 && columns.target_loss[s] < 1.0,
        "target loss must be in (0, 1)");
    VMCONS_REQUIRE(columns.vm_count[s] >= 1, "need at least one VM per server");
  }
  for (std::size_t row = 0; row < rows; ++row) {
    const std::string& name = columns.service_name[row];
    VMCONS_REQUIRE(columns.arrival_rate[row] > 0.0,
                   "service '" + name + "' needs arrival rate > 0");
    // The rate columns are untrusted too: re-derive the stored rates, so a
    // corrupted row cannot plan with rates append() would never write.
    dc::ResourceVector native;
    std::array<double, dc::kResourceCount> factor{};
    for (const dc::Resource resource : dc::all_resources()) {
      const auto r = static_cast<std::size_t>(resource);
      native[resource] = columns.native_rate[r][row];
      factor[r] = columns.impact[r][row];
      VMCONS_REQUIRE(factor[r] >= virt::Impact::kMinFactor && factor[r] <= 1.0,
                     "service '" + name +
                         "' stores an impact factor outside the planning "
                         "range [Impact::kMinFactor, 1]");
    }
    VMCONS_REQUIRE(native.all_finite_non_negative(),
                   "service '" + name +
                       "' stores a native rate that is not finite and >= 0");
    VMCONS_REQUIRE(native.any_positive(),
                   "service '" + name + "' demands no resource");
    const DerivedRates rates = derive_rates(native, factor);
    VMCONS_REQUIRE(columns.bottleneck_rate[row] == rates.bottleneck,
                   "service '" + name +
                       "' stores a bottleneck rate its native rates do not "
                       "derive");
    VMCONS_REQUIRE(columns.effective_rate[row] == rates.effective,
                   "service '" + name +
                       "' stores an effective rate its native rates and "
                       "impact factors do not derive");
  }

  if (columns.class_begin.empty()) {
    // Pre-fleet column sets (and hand-built legacy Columns) carry no class
    // offsets at all; that is the "no scenario owns a fleet" shape.
    columns.class_begin.assign(scenarios + 1, 0);
  }
  VMCONS_REQUIRE(columns.class_begin.size() == scenarios + 1,
                 "class_begin must hold scenario count + 1 offsets");
  VMCONS_REQUIRE(columns.class_begin.front() == 0,
                 "class_begin must start at offset 0");
  for (std::size_t s = 0; s < scenarios; ++s) {
    VMCONS_REQUIRE(columns.class_begin[s] <= columns.class_begin[s + 1],
                   "class_begin must be non-decreasing (a scenario may own "
                   "zero class rows, never a negative count)");
  }
  const std::size_t class_rows = columns.class_begin.back();
  bool class_rows_consistent =
      columns.class_name.size() == class_rows &&
      columns.class_base_watts.size() == class_rows &&
      columns.class_max_watts.size() == class_rows &&
      columns.class_count.size() == class_rows &&
      columns.class_speed.size() == class_rows;
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    class_rows_consistent =
        class_rows_consistent && columns.class_capacity[r].size() == class_rows;
  }
  VMCONS_REQUIRE(class_rows_consistent,
                 "fleet-class columns disagree with the class_begin offsets");
  for (std::size_t row = 0; row < class_rows; ++row) {
    // The same validation Fleet::add applies, read straight from the
    // columns, so corrupted columns cannot smuggle in a class append()
    // would reject.
    const std::string& name = columns.class_name[row];
    dc::ResourceVector capacity;
    for (const dc::Resource resource : dc::all_resources()) {
      capacity[resource] =
          columns.class_capacity[static_cast<std::size_t>(resource)][row];
    }
    dc::validate_server_class(name, capacity, columns.class_base_watts[row],
                              columns.class_max_watts[row]);
    VMCONS_REQUIRE(columns.class_speed[row] > 0.0 &&
                       std::isfinite(columns.class_speed[row]),
                   "class '" + name + "' stores a non-positive derived speed");
  }

  ScenarioBatch batch;
  batch.target_loss_ = std::move(columns.target_loss);
  batch.vm_count_ = std::move(columns.vm_count);
  batch.dedicated_power_ = std::move(columns.dedicated_power);
  batch.consolidated_power_ = std::move(columns.consolidated_power);
  batch.row_begin_ = std::move(columns.row_begin);
  batch.arrival_rate_ = std::move(columns.arrival_rate);
  batch.native_rate_ = std::move(columns.native_rate);
  batch.impact_ = std::move(columns.impact);
  batch.bottleneck_rate_ = std::move(columns.bottleneck_rate);
  batch.effective_rate_ = std::move(columns.effective_rate);
  batch.service_name_ = std::move(columns.service_name);
  batch.class_begin_ = std::move(columns.class_begin);
  batch.class_name_ = std::move(columns.class_name);
  batch.class_capacity_ = std::move(columns.class_capacity);
  batch.class_base_watts_ = std::move(columns.class_base_watts);
  batch.class_max_watts_ = std::move(columns.class_max_watts);
  batch.class_count_ = std::move(columns.class_count);
  batch.class_speed_ = std::move(columns.class_speed);
  return batch;
}

ScenarioBatch ScenarioBatch::from_inputs(std::span<const ModelInputs> inputs) {
  ScenarioBatch batch;
  batch.target_loss_.reserve(inputs.size());
  for (const ModelInputs& scenario : inputs) {
    batch.append(scenario);
  }
  return batch;
}

}  // namespace vmcons::core
