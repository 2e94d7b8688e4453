// Ablation: heterogeneous-server normalization (the paper's future work,
// Section V, motivated by the AMD-vs-Intel discussion of Section IV-D).
//
// The model staffs a heterogeneous fleet (dc::Fleet) in reference-server
// units, then maps the normalized requirement onto the owned machines,
// fastest class first. We compare the normalized plan with a naive plan
// that ignores capacity differences, across inventories.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace vmcons;
  Flags flags(argc, argv);
  bench::finish_flags(flags);

  bench::banner("Ablation -- heterogeneous-server normalization",
                "Song et al., CLUSTER 2009, Sections III-B1 and V");

  const core::ModelInputs inputs = bench::case_study_inputs(4);

  struct Owned {
    const char* name;
    double capacity;  ///< relative to the reference server
    std::uint64_t count;
  };
  struct Inventory {
    const char* name;
    std::vector<Owned> classes;
  };
  const Inventory inventories[] = {
      {"homogeneous dual-quad", {{"dual-quad", 1.0, 16}}},
      {"mixed dual/single quad",
       {{"dual-quad", 1.0, 2}, {"single-quad", 0.5, 16}}},
      {"AMD-heavy (paper's 20% faster DB host)",
       {{"amd-2.0GHz", 1.2, 3}, {"intel-2.33GHz", 1.0, 8}}},
      {"underpowered fleet", {{"single-quad", 0.5, 4}}},
  };

  AsciiTable table;
  table.set_header({"inventory", "normalized N", "machines picked",
                    "capacity", "feasible", "naive machine count"});
  for (const Inventory& inventory : inventories) {
    core::ModelInputs owned = inputs;
    for (const Owned& machine : inventory.classes) {
      dc::ServerClass server_class;
      server_class.name = machine.name;
      for (const dc::Resource resource : dc::all_resources()) {
        server_class.capacity[resource] = machine.capacity;
      }
      server_class.count = machine.count;
      owned.fleet.add(server_class);
    }
    const core::ModelResult result = core::UtilityAnalyticModel(owned).solve();

    std::string picks;
    double capacity = 0.0;
    for (const core::ClassAllocation& alloc : result.fleet.classes) {
      if (alloc.consolidated_servers == 0) {
        continue;
      }
      if (!picks.empty()) {
        picks += " + ";
      }
      picks += std::to_string(alloc.consolidated_servers) + "x " + alloc.name;
      capacity += alloc.speed * static_cast<double>(alloc.consolidated_servers);
    }
    // The naive plan treats every machine as a full reference server, so
    // its machine count is N itself.
    const std::string n = std::to_string(result.consolidated_servers);
    table.add_row({inventory.name, n, picks.empty() ? "-" : picks,
                   AsciiTable::format(capacity, 2),
                   result.fleet.consolidated_feasible ? "yes" : "NO", n});
  }
  table.print(std::cout);

  std::cout << "\nconclusion: with capacity normalization, a mixed fleet "
               "covers the normalized requirement with more (smaller) "
               "machines, and an underpowered fleet is correctly flagged "
               "infeasible -- the naive count would deploy it anyway and "
               "miss the QoS target.\n";
  return 0;
}
