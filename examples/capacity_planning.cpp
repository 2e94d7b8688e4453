// Capacity planning for a heterogeneous data center.
//
// Scenario: an operator runs an e-commerce Web service and an e-book DB
// service (the paper's case study) and owns a mixed fleet — a few dual
// quad-core machines and a shelf of older single quad-cores. The planner
// answers, before deploying anything:
//   1. how many (normalized) servers each deployment style needs;
//   2. which real machines to rack for the consolidated plan;
//   3. how the plan moves as the traffic grows 2x and 4x;
//   4. how expensive tighter loss targets are;
//   5. the full loss-target x growth grid in one parallel sweep;
//   6. how the model itself staffs a two-class fleet (dc::Fleet): per-class
//      server counts and the power split between generations.
//
// Run: ./build/examples/example_capacity_planning
#include <iostream>

#include "core/planner.hpp"
#include "core/sweep.hpp"
#include "util/ascii_table.hpp"

int main() {
  using namespace vmcons;

  dc::ServiceSpec web = dc::paper_web_service();
  dc::ServiceSpec db = dc::paper_db_service();
  web.arrival_rate = core::intensive_workload(web, 3, 0.01);
  db.arrival_rate = core::intensive_workload(db, 3, 0.01);

  // The owned machines: the paper's reference server (two 2.0 GHz
  // quad-cores) and a shelf of single quad-cores at half its capacity.
  dc::Fleet owned;
  owned.add(dc::ServerClass::reference("dual-quad-2.0GHz", {}, 4));
  dc::ServerClass single_quad;
  single_quad.name = "single-quad-2.0GHz";
  for (const dc::Resource resource : dc::all_resources()) {
    single_quad.capacity[resource] = 0.5;
  }
  single_quad.count = 12;
  owned.add(single_quad);

  core::ConsolidationPlanner planner;
  planner.set_target_loss(0.01).add_service(web).add_service(db).set_fleet(
      owned);

  std::cout << "Capacity planning: Web + DB on a mixed fleet\n\n";

  // --- 1+2: today's plan ---------------------------------------------------
  const core::PlanReport today = planner.plan();
  std::cout << "today's workloads: lambda_w = "
            << AsciiTable::format(today.arrival_rates[0], 1)
            << " req/s, lambda_d = "
            << AsciiTable::format(today.arrival_rates[1], 1) << " req/s\n";
  std::cout << "dedicated deployment needs " << today.model.dedicated_servers
            << " reference servers; consolidated needs "
            << today.model.consolidated_servers << ".\n";
  std::cout << "consolidated racking plan: ";
  for (const core::ClassAllocation& alloc : today.model.fleet.classes) {
    if (alloc.consolidated_servers > 0) {
      std::cout << alloc.consolidated_servers << "x " << alloc.name << "  ";
    }
  }
  std::cout << (today.model.fleet.consolidated_feasible ? "(feasible)"
                                                        : "(INFEASIBLE)")
            << "\n\n";

  // --- 3: growth what-ifs --------------------------------------------------
  AsciiTable growth;
  growth.set_header({"traffic", "M (dedicated)", "N (consolidated)",
                     "power saving %", "plan feasible"});
  for (const double scale : {1.0, 2.0, 4.0}) {
    core::ConsolidationPlanner what_if = planner;
    what_if.scale_workloads(scale);
    const core::PlanReport report = what_if.plan();
    growth.add_row({AsciiTable::format(scale, 0) + "x",
                    std::to_string(report.model.dedicated_servers),
                    std::to_string(report.model.consolidated_servers),
                    AsciiTable::format(report.model.power_saving * 100.0, 1),
                    report.model.fleet.consolidated_feasible ? "yes" : "NO"});
  }
  growth.print(std::cout, "growth what-ifs");

  // --- 4: the price of nines ----------------------------------------------
  const std::vector<double> targets{0.05, 0.01, 0.001, 0.0001};
  const auto reports = planner.sweep_target_loss(targets);
  AsciiTable nines;
  nines.set_header({"loss target B", "M", "N", "blocking at N"});
  for (std::size_t i = 0; i < reports.size(); ++i) {
    nines.add_row({AsciiTable::format(targets[i], 4),
                   std::to_string(reports[i].model.dedicated_servers),
                   std::to_string(reports[i].model.consolidated_servers),
                   AsciiTable::format(reports[i].model.consolidated_blocking, 5)});
  }
  nines.print(std::cout, "\nthe price of nines (same workloads)");

  // --- 5: the joint grid ---------------------------------------------------
  // Sections 3 and 4 one axis at a time; SweepGrid crosses them. The 12
  // plans become one columnar core::ScenarioBatch evaluated in shards over
  // the thread pool, each shard walking its Erlang recurrences once per
  // distinct load, and the cells come back in grid index order (loss varies
  // fastest) no matter how many workers ran them — bit-identical to solving
  // each point on its own.
  core::SweepGrid grid;
  grid.target_losses(targets).workload_scales({1.0, 2.0, 4.0});
  const auto cells = planner.sweep(grid);
  AsciiTable joint;
  joint.set_header({"traffic", "B=0.05", "B=0.01", "B=0.001", "B=0.0001"});
  for (std::size_t row = 0; row < 3; ++row) {
    std::vector<std::string> line{
        AsciiTable::format(*grid.point(row * targets.size()).workload_scale,
                           0) +
        "x"};
    for (std::size_t col = 0; col < targets.size(); ++col) {
      line.push_back(std::to_string(
          cells[row * targets.size() + col].report.model.consolidated_servers));
    }
    joint.add_row(line);
  }
  joint.print(std::cout, "\nconsolidated servers N, loss target x growth");

  // --- 6: fleet-aware staffing --------------------------------------------
  // The owned fleet above has one wattage pair for both machine types.
  // Here the planner gets a different fleet: a shelf of reference-speed old
  // machines plus six new boxes that are twice as fast but hungrier. The
  // fastest class fills first, so the new generation absorbs the
  // consolidated load and the old shelf only backfills what is left.
  dc::Fleet fleet;
  fleet.add(dc::ServerClass::reference("old-gen",
                                       dc::PowerModel{250.0, 292.5}));
  dc::ServerClass new_gen;
  new_gen.name = "new-gen";
  for (const dc::Resource resource : dc::all_resources()) {
    new_gen.capacity[resource] = 2.0;
  }
  new_gen.power = dc::PowerModel{310.0, 390.0};
  new_gen.count = 6;
  fleet.add(new_gen);

  core::ConsolidationPlanner fleet_planner = planner;
  fleet_planner.set_fleet(fleet);
  const core::ModelResult fleet_plan = fleet_planner.plan().model;
  AsciiTable fleet_table;
  fleet_table.set_header(
      {"class", "speed", "M_c", "N_c", "P_M (W)", "P_N (W)"});
  for (const core::ClassAllocation& alloc : fleet_plan.fleet.classes) {
    fleet_table.add_row(
        {alloc.name, AsciiTable::format(alloc.speed, 1),
         std::to_string(alloc.dedicated_servers),
         std::to_string(alloc.consolidated_servers),
         AsciiTable::format(alloc.dedicated_power_watts, 1),
         AsciiTable::format(alloc.consolidated_power_watts, 1)});
  }
  fleet_table.print(std::cout, "\ntwo-class fleet staffing (model-level)");
  std::cout << "fleet totals: M = " << fleet_plan.fleet.dedicated_total()
            << " physical servers (vs " << fleet_plan.dedicated_servers
            << " reference), N = " << fleet_plan.fleet.consolidated_total()
            << " (vs " << fleet_plan.consolidated_servers << "); power "
            << AsciiTable::format(fleet_plan.dedicated_power_watts, 0)
            << " W -> "
            << AsciiTable::format(fleet_plan.consolidated_power_watts, 0)
            << " W consolidated.\n";

  std::cout << "\nTakeaway: consolidation halves the fleet at every growth "
               "step, and each order of magnitude on the loss target costs "
               "at most one extra shared server at this scale.\n";
  return 0;
}
