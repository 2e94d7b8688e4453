// Plan a consolidation from a scenario file — no recompilation needed.
//
// Usage:
//   ./build/examples/example_plan_from_file [path/to/scenario.ini]
// Defaults to the bundled case-study scenario. The scenario format is
// documented in src/core/scenario_io.hpp.
#include <iostream>

#include "core/report.hpp"
#include "core/scenario_io.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  using namespace vmcons;

  const std::string path =
      argc > 1 ? argv[1] : "examples/scenarios/case_study.ini";
  std::cout << "Planning from scenario: " << path << "\n\n";

  try {
    const core::ConsolidationPlanner planner = core::load_scenario(path);
    const core::PlanReport report = planner.plan();

    core::print_model_result(std::cout, report.model);
  } catch (const Error& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
  return 0;
}
