// Scenario files: declare services, workloads, and targets in INI form and
// plan without recompiling. Used by examples/plan_from_file and any CLI
// integration a downstream user builds.
//
// Format (see examples/scenarios/case_study.ini):
//
//   [plan]
//   target_loss = 0.01
//   vms_per_server = 2          ; optional
//
//   [service]
//   name = web
//   arrival_rate = 127.7        ; or: dedicated_servers = 3 (intensive pick)
//   cpu_rate = 3360             ; native mu per resource (0/absent = none)
//   cpu_impact = 0.65           ; constant impact factor (default 1)
//   disk_rate = 420
//   disk_impact = 0.8
//
//   [class.old-gen]             ; optional heterogeneous fleet class
//   capacity = 0.5              ; uniform capacity vs the reference server
//   cpu_capacity = 0.6          ; per-resource override (default: capacity)
//   base_watts = 180            ; this class's S_base/S_max pair
//   max_watts = 210
//   count = 12                  ; owned servers (omit for unbounded)
#pragma once

#include <cstdint>
#include <string>

#include "core/model.hpp"
#include "core/planner.hpp"
#include "util/ini.hpp"

namespace vmcons::core {

/// Largest sum of `dedicated_servers` over a scenario's [service]s, and
/// largest consolidated offered load sum_i lambda_i / (mu_ij * a_ij) on any
/// resource: Erlang staffing costs one step per server, so this bounds how
/// long loading and planning one scenario file can take.
inline constexpr std::uint64_t kMaxScenarioLoad = 1'000'000;

/// Builds model inputs from a parsed scenario document.
ModelInputs scenario_inputs(const IniDocument& document);

/// Builds a planner (target, VMs per server, fleet, services) from a
/// scenario document.
ConsolidationPlanner scenario_planner(const IniDocument& document);

/// Convenience: parse a file and build the planner.
ConsolidationPlanner load_scenario(const std::string& path);

/// Serializes model inputs back to scenario-INI text (round-trip support).
std::string scenario_to_ini(const ModelInputs& inputs);

}  // namespace vmcons::core
