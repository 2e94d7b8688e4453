#include "core/scenario_io.hpp"

#include <array>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "virt/impact.hpp"

namespace vmcons::core {
namespace {

struct ResourceKey {
  dc::Resource resource;
  const char* rate_key;
  const char* impact_key;
};

constexpr ResourceKey kResourceKeys[] = {
    {dc::Resource::kCpu, "cpu_rate", "cpu_impact"},
    {dc::Resource::kDiskIo, "disk_rate", "disk_impact"},
    {dc::Resource::kMemory, "memory_rate", "memory_impact"},
    {dc::Resource::kNetwork, "network_rate", "network_impact"},
};

/// "service 'web': cpu_impact = 1.5" — the shared prefix of every
/// field-level validation error, so users can find the offending line.
std::string field_value(const std::string& service, const char* field,
                        double value) {
  std::ostringstream out;
  out.precision(17);
  out << "service '" << service << "': " << field << " = " << value;
  return out.str();
}

/// "[power]: base_watts = inf" — the section-level analogue of field_value
/// for keys that do not belong to a [service].
std::string section_field_value(const char* section, const char* field,
                                double value) {
  std::ostringstream out;
  out.precision(17);
  out << "[" << section << "]: " << field << " = " << value;
  return out.str();
}

constexpr const char* kCapacityKeys[dc::kResourceCount] = {
    "cpu_capacity", "disk_capacity", "memory_capacity", "network_capacity"};

/// Parses one `[class.NAME]` section into a ServerClass. Every field error
/// names the section and the key ("[class.old-gen]: cpu_capacity = -1 ...")
/// so operators can find the offending line; structural validation
/// (positive finite capacities, max_watts >= base_watts) is re-checked by
/// Fleet::add with class-naming messages.
dc::ServerClass parse_server_class(const IniSection& section,
                                   const std::string& class_name) {
  const std::string label = "[" + section.name + "]";
  dc::ServerClass server_class;
  server_class.name = class_name;

  const double uniform = section.get_double("capacity", 1.0);
  VMCONS_REQUIRE(std::isfinite(uniform) && uniform > 0.0,
                 label + ": capacity = " + std::to_string(uniform) +
                     " must be finite and > 0 (relative to the reference "
                     "server)");
  for (const dc::Resource resource : dc::all_resources()) {
    const char* key = kCapacityKeys[static_cast<std::size_t>(resource)];
    const double capacity = section.get_double(key, uniform);
    VMCONS_REQUIRE(std::isfinite(capacity) && capacity > 0.0,
                   label + ": " + key + " = " + std::to_string(capacity) +
                       " must be finite and > 0");
    server_class.capacity[resource] = capacity;
  }

  const dc::PowerModel defaults;
  const double base = section.get_double("base_watts", defaults.base_watts);
  const double max = section.get_double("max_watts", defaults.max_watts);
  VMCONS_REQUIRE(std::isfinite(base) && base > 0.0,
                 section_field_value(section.name.c_str(), "base_watts",
                                     base) +
                     " must be finite and > 0");
  VMCONS_REQUIRE(std::isfinite(max),
                 section_field_value(section.name.c_str(), "max_watts", max) +
                     " must be finite");
  VMCONS_REQUIRE(max >= base,
                 section_field_value(section.name.c_str(), "max_watts", max) +
                     " must be >= base_watts");
  server_class.power.base_watts = base;
  server_class.power.max_watts = max;

  if (section.has("count")) {
    const long long count = section.get_int("count", 0);
    VMCONS_REQUIRE(count >= 0,
                   label + ": count = " + std::to_string(count) +
                       " must be >= 0 (omit the key for an unbounded class)");
    server_class.count = static_cast<std::uint64_t>(count);
  }
  return server_class;
}

dc::ServiceSpec parse_service(const IniSection& section) {
  dc::ServiceSpec spec;
  spec.name = section.get("name", "service");
  for (const auto& key : kResourceKeys) {
    const double rate = section.get_double(key.rate_key, 0.0);
    // NaN/inf rates would propagate silently through the Erlang recursion
    // (every comparison against a target is false for NaN), so they are
    // rejected here at the boundary, before any model code runs.
    VMCONS_REQUIRE(std::isfinite(rate),
                   field_value(spec.name, key.rate_key, rate) +
                       " must be finite");
    VMCONS_REQUIRE(rate >= 0.0,
                   field_value(spec.name, key.rate_key, rate) +
                       " must be >= 0 (omit the key for no demand)");
    if (rate > 0.0) {
      const double impact = section.get_double(key.impact_key, 1.0);
      VMCONS_REQUIRE(std::isfinite(impact),
                     field_value(spec.name, key.impact_key, impact) +
                         " must be finite");
      VMCONS_REQUIRE(impact > 0.0 && impact <= 1.0,
                     field_value(spec.name, key.impact_key, impact) +
                         " must be in (0, 1]");
      spec.demand(key.resource, rate, virt::Impact::constant(impact));
    }
  }
  VMCONS_REQUIRE(spec.native_rates.any_positive(),
                 "service '" + spec.name +
                     "' declares no resource rates: set at least one of "
                     "cpu_rate, disk_rate, memory_rate, network_rate");
  return spec;
}

}  // namespace

ModelInputs scenario_inputs(const IniDocument& document) {
  VMCONS_REQUIRE(document.first("server_class") == nullptr,
                 "[server_class] sections are not supported: declare each "
                 "server type as a [class.<name>] section with `capacity` "
                 "(relative to the reference server) and `count` (owned "
                 "servers)");
  ModelInputs inputs;
  if (const IniSection* plan = document.first("plan")) {
    inputs.target_loss = plan->get_double("target_loss", 0.01);
    VMCONS_REQUIRE(std::isfinite(inputs.target_loss),
                   section_field_value("plan", "target_loss",
                                       inputs.target_loss) +
                       " must be finite");
    if (plan->has("vms_per_server")) {
      const long long vms = plan->get_int("vms_per_server", 0);
      VMCONS_REQUIRE(vms >= 1 && static_cast<unsigned long long>(vms) <=
                                     std::numeric_limits<unsigned>::max(),
                     "[plan]: vms_per_server = " + std::to_string(vms) +
                         " must be in [1, " +
                         std::to_string(std::numeric_limits<unsigned>::max()) +
                         "]");
      inputs.vms_per_server = static_cast<unsigned>(vms);
    }
  }
  if (const IniSection* power = document.first("power")) {
    const dc::PowerModel defaults;
    const double base = power->get_double("base_watts", defaults.base_watts);
    const double max = power->get_double("max_watts", defaults.max_watts);
    VMCONS_REQUIRE(std::isfinite(base),
                   section_field_value("power", "base_watts", base) +
                       " must be finite");
    VMCONS_REQUIRE(std::isfinite(max),
                   section_field_value("power", "max_watts", max) +
                       " must be finite");
    VMCONS_REQUIRE(base > 0.0,
                   section_field_value("power", "base_watts", base) +
                       " must be > 0");
    VMCONS_REQUIRE(max >= base,
                   section_field_value("power", "max_watts", max) +
                       " must be >= base_watts");
    // One testbed wattage pair drives both deployments; the platform
    // deltas (idle/dynamic Xen factors) stay inside PowerModel::watts.
    inputs.dedicated_power.base_watts = base;
    inputs.dedicated_power.max_watts = max;
    inputs.consolidated_power.base_watts = base;
    inputs.consolidated_power.max_watts = max;
  }
  // Heterogeneous fleet: one [class.NAME] section per server class, in
  // declaration order. Fleet::add rejects duplicates loudly.
  constexpr const char* kClassPrefix = "class.";
  for (const IniSection& section : document.sections) {
    if (section.name.rfind(kClassPrefix, 0) != 0) {
      continue;
    }
    const std::string class_name =
        section.name.substr(std::string(kClassPrefix).size());
    VMCONS_REQUIRE(!class_name.empty(),
                   "[" + section.name +
                       "]: section header needs a class name after 'class.'");
    inputs.fleet.add(parse_server_class(section, class_name));
  }
  const auto services = document.all("service");
  VMCONS_REQUIRE(!services.empty(), "scenario declares no [service] sections");
  // Erlang staffing walks one step per server, so the scenario's summed
  // dedicated_servers and, per resource, the consolidated offered load
  // sum_i lambda_i / (mu_ij * a_ij) (Eq. 5; it bounds every dedicated
  // lambda_i / mu_ij too) bound how long loading and planning can take.
  std::uint64_t dedicated_total = 0;
  std::array<double, dc::kResourceCount> offered_load{};
  const unsigned vm_count = inputs.vms_per_server.value_or(
      static_cast<unsigned>(services.size()));
  for (const IniSection* section : services) {
    dc::ServiceSpec spec = parse_service(*section);
    const double arrival = section->get_double("arrival_rate", 0.0);
    VMCONS_REQUIRE(std::isfinite(arrival),
                   field_value(spec.name, "arrival_rate", arrival) +
                       " must be finite");
    const long long dedicated = section->get_int("dedicated_servers", 0);
    if (arrival > 0.0) {
      spec.arrival_rate = arrival;
    } else if (dedicated > 0) {
      dedicated_total += static_cast<std::uint64_t>(dedicated);
      VMCONS_REQUIRE(dedicated_total <= kMaxScenarioLoad,
                     "service '" + spec.name + "': dedicated_servers = " +
                         std::to_string(dedicated) + " brings the scenario's "
                         "total to " + std::to_string(dedicated_total) +
                         ", over " + std::to_string(kMaxScenarioLoad) +
                         " (kMaxScenarioLoad)");
      spec.arrival_rate = intensive_workload(
          spec, static_cast<std::uint64_t>(dedicated), inputs.target_loss);
    } else {
      std::ostringstream why;
      why.precision(17);
      why << "service '" << spec.name
          << "': set arrival_rate or dedicated_servers to a positive value";
      if (arrival != 0.0) {
        why << " (got arrival_rate = " << arrival << ")";
      }
      if (dedicated != 0) {
        why << " (got dedicated_servers = " << dedicated << ")";
      }
      throw InvalidArgument(why.str());
    }
    for (const auto& key : kResourceKeys) {
      const double rate = spec.native_rates[key.resource];
      if (rate > 0.0) {
        double& load = offered_load[static_cast<std::size_t>(key.resource)];
        load += spec.arrival_rate /
                (rate * spec.impact_factor(key.resource, vm_count));
        if (!(load <= static_cast<double>(kMaxScenarioLoad))) {
          std::ostringstream why;
          why << field_value(spec.name, key.rate_key, rate)
              << " brings the offered load on "
              << dc::resource_name(key.resource) << " to " << load
              << ", over " << kMaxScenarioLoad << " (kMaxScenarioLoad)";
          throw InvalidArgument(why.str());
        }
      }
    }
    inputs.services.push_back(std::move(spec));
  }
  return inputs;
}

ConsolidationPlanner scenario_planner(const IniDocument& document) {
  const ModelInputs inputs = scenario_inputs(document);
  ConsolidationPlanner planner;
  planner.set_target_loss(inputs.target_loss);
  if (inputs.vms_per_server) {
    planner.set_vms_per_server(*inputs.vms_per_server);
  }
  if (!inputs.fleet.empty()) {
    planner.set_fleet(inputs.fleet);
  }
  for (const auto& service : inputs.services) {
    planner.add_service(service);
  }
  return planner;
}

ConsolidationPlanner load_scenario(const std::string& path) {
  return scenario_planner(ini_parse_file(path));
}

std::string scenario_to_ini(const ModelInputs& inputs) {
  std::ostringstream out;
  out.precision(17);  // lossless double round-trip
  out << "[plan]\n";
  out << "target_loss = " << inputs.target_loss << "\n";
  if (inputs.vms_per_server) {
    out << "vms_per_server = " << *inputs.vms_per_server << "\n";
  }
  for (const dc::ServerClass& server_class : inputs.fleet.classes()) {
    out << "\n[class." << server_class.name << "]\n";
    for (const dc::Resource resource : dc::all_resources()) {
      out << kCapacityKeys[static_cast<std::size_t>(resource)] << " = "
          << server_class.capacity[resource] << "\n";
    }
    out << "base_watts = " << server_class.power.base_watts << "\n";
    out << "max_watts = " << server_class.power.max_watts << "\n";
    if (server_class.count != dc::ServerClass::kUnbounded) {
      out << "count = " << server_class.count << "\n";
    }
  }
  const unsigned vm_count = inputs.vms_per_server.value_or(
      static_cast<unsigned>(inputs.services.size()));
  for (const auto& service : inputs.services) {
    out << "\n[service]\n";
    out << "name = " << service.name << "\n";
    out << "arrival_rate = " << service.arrival_rate << "\n";
    for (const auto& key : kResourceKeys) {
      const double rate = service.native_rates[key.resource];
      if (rate > 0.0) {
        out << key.rate_key << " = " << rate << "\n";
        out << key.impact_key << " = "
            << service.impact_factor(key.resource, vm_count) << "\n";
      }
    }
  }
  return out.str();
}

}  // namespace vmcons::core
