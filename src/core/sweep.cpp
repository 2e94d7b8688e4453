#include "core/sweep.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <sstream>
#include <utility>

#include "core/batch_eval.hpp"
#include "core/planner.hpp"
#include "core/scenario_batch.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace vmcons::core {

SweepGrid& SweepGrid::target_losses(std::vector<double> losses) {
  for (const double loss : losses) {
    VMCONS_REQUIRE(loss > 0.0 && loss < 1.0, "target loss must be in (0, 1)");
  }
  target_losses_ = std::move(losses);
  return *this;
}

SweepGrid& SweepGrid::workload_scales(std::vector<double> scales) {
  for (const double scale : scales) {
    VMCONS_REQUIRE(scale > 0.0, "workload scale must be positive");
  }
  workload_scales_ = std::move(scales);
  return *this;
}

SweepGrid& SweepGrid::vms_per_server(std::vector<unsigned> vms) {
  for (const unsigned v : vms) {
    VMCONS_REQUIRE(v >= 1, "need at least one VM per server");
  }
  vms_per_server_ = std::move(vms);
  return *this;
}

SweepGrid& SweepGrid::fleet_mixes(std::vector<std::vector<std::uint64_t>> mixes) {
  for (const std::vector<std::uint64_t>& mix : mixes) {
    VMCONS_REQUIRE(!mix.empty(),
                   "a fleet mix needs at least one per-class count");
    VMCONS_REQUIRE(mix.size() == mixes.front().size(),
                   "every fleet mix must list the same class count (got " +
                       std::to_string(mix.size()) + " and " +
                       std::to_string(mixes.front().size()) + ")");
  }
  fleet_mixes_ = std::move(mixes);
  return *this;
}

std::size_t SweepGrid::size() const {
  const std::size_t losses = std::max<std::size_t>(1, target_losses_.size());
  const std::size_t vms = std::max<std::size_t>(1, vms_per_server_.size());
  const std::size_t scales = std::max<std::size_t>(1, workload_scales_.size());
  const std::size_t mixes = std::max<std::size_t>(1, fleet_mixes_.size());
  std::size_t losses_vms = 0;
  std::size_t losses_vms_scales = 0;
  std::size_t total = 0;
  if (__builtin_mul_overflow(losses, vms, &losses_vms) ||
      __builtin_mul_overflow(losses_vms, scales, &losses_vms_scales) ||
      __builtin_mul_overflow(losses_vms_scales, mixes, &total)) {
    std::ostringstream why;
    why << "SweepGrid: grid size overflows std::size_t: " << losses
        << " target losses x " << vms << " VMs-per-server x " << scales
        << " workload scales x " << mixes
        << " fleet mixes; split the request into sub-grids";
    throw NumericError(why.str());
  }
  return total;
}

SweepGrid::Coordinates SweepGrid::coordinates(std::size_t index) const {
  const std::size_t losses = std::max<std::size_t>(1, target_losses_.size());
  const std::size_t vms = std::max<std::size_t>(1, vms_per_server_.size());
  const std::size_t scales = std::max<std::size_t>(1, workload_scales_.size());
  Coordinates at;
  at.loss = index % losses;
  at.vms = (index / losses) % vms;
  at.scale = index / (losses * vms) % scales;
  at.mix = index / (losses * vms * scales);
  return at;
}

std::size_t SweepGrid::load_coherent_index(std::size_t position) const {
  const std::size_t losses_vms =
      std::max<std::size_t>(1, target_losses_.size()) *
      std::max<std::size_t>(1, vms_per_server_.size());
  const std::size_t scales = std::max<std::size_t>(1, workload_scales_.size());
  const std::size_t mixes = std::max<std::size_t>(1, fleet_mixes_.size());
  const std::size_t mix = position / losses_vms % mixes;
  const std::size_t scale = position / (losses_vms * mixes);
  return position % losses_vms + losses_vms * (scale + scales * mix);
}

SweepPoint SweepGrid::point(std::size_t index) const {
  VMCONS_REQUIRE(index < size(), "sweep point index out of range");
  const Coordinates at = coordinates(index);
  SweepPoint point;
  point.index = index;
  if (!target_losses_.empty()) {
    point.target_loss = target_losses_[at.loss];
  }
  if (!vms_per_server_.empty()) {
    point.vms_per_server = vms_per_server_[at.vms];
  }
  if (!workload_scales_.empty()) {
    point.workload_scale = workload_scales_[at.scale];
  }
  if (!fleet_mixes_.empty()) {
    point.fleet_mix = fleet_mixes_[at.mix];
  }
  return point;
}

std::vector<SweepPoint> SweepGrid::points() const {
  std::vector<SweepPoint> all;
  all.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) {
    all.push_back(point(i));
  }
  return all;
}

ModelInputs ConsolidationPlanner::point_inputs(const SweepPoint& point) const {
  ConsolidationPlanner instance = *this;
  if (point.target_loss) {
    instance.set_target_loss(*point.target_loss);
  }
  if (point.workload_scale) {
    instance.scale_workloads(*point.workload_scale);
  }
  if (point.vms_per_server) {
    instance.set_vms_per_server(*point.vms_per_server);
  }
  if (point.fleet_mix) {
    // Throws InvalidArgument naming both sizes if the mix length does not
    // match the planner's fleet (including the no-fleet case: 0 classes).
    instance.set_fleet(fleet_.with_counts(*point.fleet_mix));
  }
  return instance.make_inputs();
}

void ConsolidationPlanner::check_sweep(const SweepGrid& grid) const {
  // point_inputs' planner checks do not depend on the cell, so they run
  // once, in its order: the fleet-mix length (every mix has the same one;
  // with_counts throws InvalidArgument naming both sizes), then services.
  if (!grid.fleet_mixes_.empty()) {
    static_cast<void>(fleet_.with_counts(grid.fleet_mixes_.front()));
  }
  VMCONS_REQUIRE(!services_.empty(), "planner has no services");
}

template <class IndexAt>
void ConsolidationPlanner::append_sweep_cells(const SweepGrid& grid,
                                              std::size_t count,
                                              IndexAt index_at,
                                              ScenarioBatch& batch) const {
  if (count == 0) {
    return;
  }
  // The derived rows depend only on the VM count: one prototype per VM-count
  // axis value, built when a cell of the sequence first needs it.
  ModelInputs shape;
  shape.services = services_;
  shape.fleet = fleet_;
  std::vector<std::optional<ScenarioBatch::Prototype>> prototypes(
      std::max<std::size_t>(1, grid.vms_per_server_.size()));
  std::vector<double> arrival(services_.size());
  batch.reserve(batch.size() + count,
                batch.service_rows() + count * services_.size(),
                batch.class_rows() + count * fleet_.size());
  for (std::size_t j = 0; j < count; ++j) {
    const SweepGrid::Coordinates at = grid.coordinates(index_at(j));
    std::optional<ScenarioBatch::Prototype>& prototype = prototypes[at.vms];
    if (!prototype) {
      shape.vms_per_server = grid.vms_per_server_.empty()
                                 ? vms_per_server_
                                 : grid.vms_per_server_[at.vms];
      prototype.emplace(shape);
    }
    const double loss = grid.target_losses_.empty()
                            ? target_loss_
                            : grid.target_losses_[at.loss];
    // scale_workloads folds the point's scale into the planner's before
    // make_inputs multiplies: base * (planner scale * point scale).
    const double scale =
        grid.workload_scales_.empty()
            ? workload_scale_
            : workload_scale_ * grid.workload_scales_[at.scale];
    for (std::size_t k = 0; k < services_.size(); ++k) {
      arrival[k] = services_[k].arrival_rate * scale;
    }
    std::span<const std::uint64_t> counts;
    if (!grid.fleet_mixes_.empty()) {
      counts = grid.fleet_mixes_[at.mix];
    }
    batch.append(*prototype, loss, arrival, counts);
  }
}

ScenarioBatch ConsolidationPlanner::sweep_batch(const SweepGrid& grid,
                                               std::size_t begin,
                                               std::size_t end,
                                               ScenarioBatch recycled) const {
  VMCONS_REQUIRE(begin <= end && end <= grid.size(),
                 "sweep batch range must lie within the grid");
  ScenarioBatch batch = std::move(recycled);
  batch.clear();
  if (begin < end) {
    check_sweep(grid);
  }
  append_sweep_cells(grid, end - begin,
                     [begin](std::size_t j) { return begin + j; }, batch);
  return batch;
}

SweepOutcome ConsolidationPlanner::sweep_all(const SweepGrid& grid,
                                             const SweepOptions& options) const {
  const std::size_t count = grid.size();

  metrics::ScopedTimer wall(metrics::registry().timer("sweep.wall"));
  metrics::registry().counter("sweep.points").add(count);
  check_sweep(grid);

  // Evaluation position p holds grid index at(p): the load-coherent order,
  // in which every cell of one offered load is contiguous, so one shard's
  // Erlang walk answers all its losses and fleet mixes instead of each
  // shard walking the load again. Each shard builds its own slice of that
  // order, evaluates it and moves its results into its cells, which no
  // other shard touches; no whole-grid batch exists. Each scenario derives
  // from its grid index alone, so the outcome is independent of the worker
  // count and of which participant ran which shard.
  const auto at = [&grid](std::size_t p) {
    return grid.load_coherent_index(p);
  };
  SweepOutcome outcome;
  outcome.cells.resize(count);

  BatchOptions batch_options;
  batch_options.parallel = options.parallel;
  batch_options.kernel = options.kernel;
  batch_options.pool = options.pool;
  batch_options.policy = options.policy;
  batch_options.control = options.control;
  BatchOutcome evaluated;
  BatchEvaluator(batch_options)
      .run_shards(
          count,
          [&](std::size_t first, std::size_t last,
              const BatchEvaluator::EvaluateShard& evaluate) {
            const std::size_t n = last - first;
            ScenarioBatch slice;
            append_sweep_cells(
                grid, n, [&](std::size_t j) { return at(first + j); }, slice);
            std::vector<ModelResult> results(n);
            std::vector<std::uint8_t> solved(n, 0);
            evaluate(slice, 0, results, solved);
            const auto arrival = slice.arrival_rate();
            for (std::size_t j = 0; j < n; ++j) {
              if (solved[j] == 0) {
                continue;  // quarantined or unreached: keep the default cell
              }
              SweepCell& cell = outcome.cells[at(first + j)];
              cell.evaluated = true;
              cell.report.model = std::move(results[j]);
              cell.report.arrival_rates.assign(
                  arrival.begin() +
                      static_cast<std::ptrdiff_t>(slice.services_begin(j)),
                  arrival.begin() +
                      static_cast<std::ptrdiff_t>(slice.services_end(j)));
            }
          },
          evaluated);
  outcome.failures = std::move(evaluated.failures);
  outcome.cancelled = evaluated.cancelled;
  outcome.deadline_exceeded = evaluated.deadline_exceeded;
  for (CellFailure& failure : outcome.failures) {
    failure.scenario_index = at(failure.scenario_index);
  }
  std::sort(outcome.failures.begin(), outcome.failures.end(),
            [](const CellFailure& a, const CellFailure& b) {
              return a.scenario_index < b.scenario_index;
            });
  return outcome;
}

std::vector<SweepCell> ConsolidationPlanner::sweep(
    const SweepGrid& grid, const SweepOptions& options) const {
  SweepOutcome outcome = sweep_all(grid, options);
  if (outcome.cancelled) {
    throw CancelledError("sweep cancelled by caller");
  }
  if (outcome.deadline_exceeded) {
    throw DeadlineExceededError("sweep deadline exceeded");
  }
  return std::move(outcome.cells);
}

}  // namespace vmcons::core
