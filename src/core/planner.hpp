// ConsolidationPlanner: the high-level planning API on top of the model.
//
// Adds the two things a data-center operator needs beyond the raw model:
//   * heterogeneous servers (Section III-B1 assumption 1 and the paper's
//     stated future work): set_fleet hands the model a dc::Fleet, which
//     staffs M and N in reference units and maps them onto per-class
//     physical counts and per-class power (ModelResult::fleet);
//   * what-if sweeps over the target loss probability and workload scale.
#pragma once

#include <vector>

#include "core/model.hpp"
#include "core/sweep.hpp"

namespace vmcons::core {

struct PlanReport {
  ModelResult model;
  /// lambda per service actually used (after any scaling).
  std::vector<double> arrival_rates;
};

/// One grid point of a sweep; cell i of a sweep is grid.point(i).
/// `evaluated` is false for cells a quarantined sweep isolated (see
/// SweepOutcome::failures) or a stop left unreached; their report is
/// default-constructed.
struct SweepCell {
  PlanReport report;
  bool evaluated = false;
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

  /// Sets the heterogeneous fleet (dc::Fleet): the solver's staff_fleet
  /// pass maps M and N onto per-class counts and derives power from
  /// per-class wattages (ModelResult::fleet). Without a fleet, planning
  /// stays in homogeneous reference-server units.
  ConsolidationPlanner& set_fleet(dc::Fleet fleet);
  const dc::Fleet& fleet() const { return fleet_; }

  /// Scales every service's arrival rate by `factor` (what-if growth).
  ConsolidationPlanner& scale_workloads(double factor);

  /// Solves the model (staffing the fleet, if one is set).
  PlanReport plan() const;

  /// Evaluates every point of `grid` (the loss x VMs-per-server x scale x
  /// fleet-mix what-if cartesian product), returning cells in grid index
  /// order. By default the points fan out over the shared thread pool, a
  /// pure acceleration — output is bit-identical to a serial run.
  /// Implemented in sweep.cpp.
  std::vector<SweepCell> sweep(const SweepGrid& grid,
                               const SweepOptions& options = {}) const;

  /// The fault-tolerant face of sweep(): honors options.policy and
  /// options.control, reporting quarantined cells and aborts in the
  /// SweepOutcome instead of throwing. Healthy cells are bit-identical to
  /// the same cells of a clean sweep() run. Implemented in sweep.cpp.
  ///
  /// Evaluation order: the grid is evaluated in load-coherent order — loss
  /// fastest, then VMs, fleet mix, scale — so the cells that share an
  /// offered load (a fleet mix and a loss target change none) are
  /// contiguous and land in one evaluator shard, whose Erlang walk answers
  /// them from kept values. Each shard builds its slice of that order,
  /// evaluates it and writes its own cells, inside its parallel_for chunk;
  /// no whole-grid batch is built. The planner checks run once, before the
  /// fan-out. A cell's build error propagates under either policy, never as
  /// a CellFailure; of several, the lowest failing shard's is raised.
  /// Results, `evaluated` flags and failure indexes land at grid indices. Beyond
  /// speed, the order matters only to fault placement: `batch.cell` is
  /// drawn at a cell's evaluation position (its grid index when the grid
  /// has at most one fleet mix), and under kFailFast the first failure in
  /// evaluation order propagates.
  SweepOutcome sweep_all(const SweepGrid& grid,
                         const SweepOptions& options = {}) const;

  /// Sweeps the target loss probability, returning one report per point.
  /// Thin wrapper over sweep() with a single-axis grid.
  std::vector<PlanReport> sweep_target_loss(const std::vector<double>& losses) const;

  /// Model inputs for one grid point: this planner's configuration with the
  /// point's set axes applied. A pure function of (planner, point): the
  /// per-point reference that sweep_batch must match column for column.
  /// Implemented in sweep.cpp.
  ModelInputs point_inputs(const SweepPoint& point) const;

  /// The scenarios of grid indices [begin, end) as one ScenarioBatch,
  /// bit-identical to appending point_inputs(grid.point(i)) for each i in
  /// order, and raising the same errors at the same cell. Everything that
  /// is constant across cells — planner validation, impact factors and
  /// effective rates per VM-count axis value, bottleneck rates, class
  /// speeds — is derived once per call; each cell writes only its target
  /// loss, VM count, scaled arrival rates and class counts. sweep_all
  /// builds each shard's slice and write_sweep_store each shard this way, so any
  /// index range of a grid is rebuilt without materializing the rest. The
  /// batch is built in `recycled`'s cleared columns, so a caller walking a
  /// grid range by range reuses one allocation. Implemented in sweep.cpp.
  ScenarioBatch sweep_batch(const SweepGrid& grid, std::size_t begin,
                            std::size_t end,
                            ScenarioBatch recycled = {}) const;

  const std::vector<dc::ServiceSpec>& services() const { return services_; }

 private:
  ModelInputs make_inputs() const;
  /// plan() with its Erlang walks' counters added to `kernel` (nullptr:
  /// none). Answers never depend on it.
  PlanReport plan_with(queueing::ErlangKernel* kernel) const;
  /// point_inputs' planner checks, which no cell changes: the fleet-mix
  /// length against the fleet, then "planner has no services".
  void check_sweep(const SweepGrid& grid) const;
  /// Appends the scenario of grid index index_at(j), for each j in
  /// [0, count), to `batch`: the one per-cell build loop behind sweep_batch
  /// (index_at(j) = begin + j) and sweep_all (the load-coherent order).
  /// Defined and instantiated in sweep.cpp only.
  template <class IndexAt>
  void append_sweep_cells(const SweepGrid& grid, std::size_t count,
                          IndexAt index_at, ScenarioBatch& batch) const;

  double target_loss_ = 0.01;
  std::vector<dc::ServiceSpec> services_;
  dc::Fleet fleet_;
  std::optional<unsigned> vms_per_server_;
  double workload_scale_ = 1.0;
};

}  // namespace vmcons::core
