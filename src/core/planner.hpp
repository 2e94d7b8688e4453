// ConsolidationPlanner: the high-level planning API on top of the model.
//
// Adds the two things a data-center operator needs beyond the raw model:
//   * heterogeneous-server normalization (Section III-B1 assumption 1 and
//     the paper's stated future work): servers of differing capacity are
//     normalized against a reference server before solving, and the
//     resulting normalized server count is mapped back onto the actual
//     inventory;
//   * what-if sweeps over the target loss probability and workload scale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/sweep.hpp"

namespace vmcons::core {

/// One physical server type in a heterogeneous inventory.
struct ServerClass {
  std::string name;
  /// Capacity relative to the reference server (the paper's example: two
  /// 2.0 GHz quad-cores = 1.0, one quad-core = 0.5).
  double capacity_factor = 1.0;
  /// How many of these the operator owns.
  unsigned available = 0;
  dc::PowerModel power;
};

/// Mapping of a normalized server requirement onto real inventory.
struct InventoryAssignment {
  std::vector<std::pair<std::string, unsigned>> picked;  ///< class -> count
  double normalized_capacity = 0.0;  ///< total capacity of picked servers
  bool feasible = false;             ///< inventory covered the requirement
};

struct PlanReport {
  ModelResult model;
  /// lambda per service actually used (after any scaling).
  std::vector<double> arrival_rates;
  InventoryAssignment dedicated_assignment;
  InventoryAssignment consolidated_assignment;
};

/// One evaluated grid point of a sweep. `evaluated` is false for cells a
/// quarantined sweep isolated (see SweepOutcome::failures) or a stop left
/// unreached; their report is default-constructed.
struct SweepCell {
  SweepPoint point;
  PlanReport report;
  bool evaluated = true;
};

/// Fault-tolerant sweep result: every grid cell plus the structured record
/// of what went wrong (quarantined cells, cancellation, deadline expiry).
struct SweepOutcome {
  std::vector<SweepCell> cells;
  /// Failed cells under FailurePolicy::kQuarantine, sorted by grid index
  /// (CellFailure::scenario_index is the SweepPoint index).
  std::vector<CellFailure> failures;
  bool cancelled = false;
  bool deadline_exceeded = false;
  bool complete() const noexcept {
    return failures.empty() && !cancelled && !deadline_exceeded;
  }
};

class ConsolidationPlanner {
 public:
  ConsolidationPlanner& set_target_loss(double b);
  ConsolidationPlanner& add_service(dc::ServiceSpec service);
  ConsolidationPlanner& set_vms_per_server(unsigned vms);
  /// Registers heterogeneous inventory; when empty, planning stays in
  /// normalized (homogeneous reference) units.
  ConsolidationPlanner& add_server_class(ServerClass server_class);

  /// Sets the model-level heterogeneous fleet (dc::Fleet): the solver's
  /// staff_fleet pass maps M and N onto per-class counts and derives power
  /// from per-class wattages (ModelResult::fleet). Orthogonal to
  /// add_server_class, which only post-maps normalized counts onto
  /// inventory without touching the model's power answers.
  ConsolidationPlanner& set_fleet(dc::Fleet fleet);
  const dc::Fleet& fleet() const { return fleet_; }

  /// Scales every service's arrival rate by `factor` (what-if growth).
  ConsolidationPlanner& scale_workloads(double factor);

  /// Solves the model and maps the result onto the inventory (if any).
  PlanReport plan() const;

  /// Evaluates every point of `grid` (loss x scale x VMs-per-server what-if
  /// cartesian product), returning cells in grid index order. By default the
  /// points fan out over the shared thread pool and share one memoized
  /// Erlang kernel; both are pure accelerations — output is bit-identical
  /// to a serial, unmemoized run. Implemented in sweep.cpp.
  std::vector<SweepCell> sweep(const SweepGrid& grid,
                               const SweepOptions& options = {}) const;

  /// The fault-tolerant face of sweep(): honors options.policy and
  /// options.control, reporting quarantined cells and aborts in the
  /// SweepOutcome instead of throwing. Healthy cells are bit-identical to
  /// the same cells of a clean sweep() run. Implemented in sweep.cpp.
  SweepOutcome sweep_all(const SweepGrid& grid,
                         const SweepOptions& options = {}) const;

  /// Sweeps the target loss probability, returning one report per point.
  /// Thin wrapper over sweep() with a single-axis grid.
  std::vector<PlanReport> sweep_target_loss(const std::vector<double>& losses) const;

  /// Model inputs for one grid point: this planner's configuration with the
  /// point's set axes applied. A pure function of (planner, point), so a
  /// streaming sweep can rebuild any scenario range of a grid without ever
  /// materializing the whole grid. Implemented in sweep.cpp.
  ModelInputs point_inputs(const SweepPoint& point) const;

  const std::vector<dc::ServiceSpec>& services() const { return services_; }

 private:
  ModelInputs make_inputs() const;
  /// plan() with every Erlang-B evaluation routed through `kernel`
  /// (nullptr = a call-local queueing::ErlangWalk per staffing pass).
  PlanReport plan_with(queueing::ErlangKernel* kernel) const;
  InventoryAssignment assign(double normalized_servers) const;

  double target_loss_ = 0.01;
  std::vector<dc::ServiceSpec> services_;
  std::vector<ServerClass> inventory_;
  dc::Fleet fleet_;
  std::optional<unsigned> vms_per_server_;
  double workload_scale_ = 1.0;
};

}  // namespace vmcons::core
