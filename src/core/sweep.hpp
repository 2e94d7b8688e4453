// Cartesian what-if grids for the ConsolidationPlanner.
//
// The paper's whole point is cheap offline what-if analysis: sweep the
// target loss B, the workload scale, and the consolidation density (VMs per
// server) and read off M vs N before deploying anything. SweepGrid
// enumerates such a grid deterministically — point(i) is a pure function of
// the index, independent of thread count — so ConsolidationPlanner::sweep
// can fan the points out over the shared thread pool and still return
// results in a stable, reproducible order.
//
// Axis semantics: an axis left empty contributes one point that inherits
// the planner's current setting (so a grid with only target_losses set is
// exactly the classic sweep_target_loss). The loss axis varies fastest,
// which keeps points that share an offered load adjacent, so a shard's
// Erlang walk meets each load at several targets. The fleet mix is the
// slowest grid axis but changes no offered load, so sweep_all evaluates in
// a load-coherent order that moves it inside the scale axis.
//
// sweep_all cuts that order into BatchEvaluator's shards; each shard builds
// its own slice (ConsolidationPlanner::sweep_batch's per-cell loop),
// evaluates it and writes its cells inside its parallel_for chunk, so no
// whole-grid batch exists. A cell stores its report and evaluated flag,
// not its point: cell i is point(i), recomputed from the index.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/batch_eval.hpp"
#include "util/run_control.hpp"

namespace vmcons {
class ThreadPool;
namespace queueing {
class ErlangKernel;
}  // namespace queueing
}  // namespace vmcons

namespace vmcons::core {

class ConsolidationPlanner;

/// One grid point; unset fields inherit the planner's configuration.
struct SweepPoint {
  std::size_t index = 0;
  std::optional<double> target_loss;
  std::optional<double> workload_scale;
  std::optional<unsigned> vms_per_server;
  /// Per-class owned counts applied to the planner's fleet via
  /// Fleet::with_counts (declaration order; ServerClass::kUnbounded allowed).
  std::optional<std::vector<std::uint64_t>> fleet_mix;
};

class SweepGrid {
 public:
  /// Target loss probabilities B, each in (0, 1).
  SweepGrid& target_losses(std::vector<double> losses);
  /// Multiplicative workload scales, each > 0.
  SweepGrid& workload_scales(std::vector<double> scales);
  /// Consolidation densities (VMs per server), each >= 1.
  SweepGrid& vms_per_server(std::vector<unsigned> vms);
  /// Fleet-mix axis: each entry is one vector of per-class owned counts
  /// (declaration order), applied via Fleet::with_counts at point_inputs
  /// time — so a mismatched length fails loudly there, naming both sizes.
  /// Every mix must have the same length; the planner it is swept against
  /// must carry a fleet of that many classes.
  SweepGrid& fleet_mixes(std::vector<std::vector<std::uint64_t>> mixes);

  /// Number of grid points: the product of the (non-empty) axis sizes.
  /// Throws NumericError (with the axis sizes in the message) if the product
  /// overflows std::size_t — a wrapped grid size would otherwise make a
  /// 10^7-point request silently iterate the wrong cell count.
  std::size_t size() const;

  /// The index-derived point: loss varies fastest, then VMs, then scale,
  /// then fleet mix (slowest). sweep_all evaluates in load_coherent_index
  /// order but still reports cells in this index order: cell i of a sweep
  /// is point(i).
  SweepPoint point(std::size_t index) const;

  /// All points in index order.
  std::vector<SweepPoint> points() const;

 private:
  /// ConsolidationPlanner::sweep_batch walks the axes directly instead of
  /// materializing a SweepPoint (and a fleet-mix copy) per cell.
  friend class ConsolidationPlanner;

  /// Axis positions of `index`: loss fastest, then VMs, scale, fleet mix.
  struct Coordinates {
    std::size_t loss = 0;
    std::size_t vms = 0;
    std::size_t scale = 0;
    std::size_t mix = 0;
  };
  Coordinates coordinates(std::size_t index) const;

  /// The grid index sweep_all evaluates at batch position `position`. The
  /// evaluation order is load-coherent: loss fastest, then VMs, fleet mix,
  /// scale. A fleet mix changes no offered load, so every cell of one
  /// workload scale is contiguous in it and lands in one evaluator shard.
  /// With at most one fleet mix it is the identity.
  std::size_t load_coherent_index(std::size_t position) const;

  std::vector<double> target_losses_;
  std::vector<double> workload_scales_;
  std::vector<unsigned> vms_per_server_;
  std::vector<std::vector<std::uint64_t>> fleet_mixes_;
};

/// Execution knobs for ConsolidationPlanner::sweep.
struct SweepOptions {
  /// Fan points out over a thread pool (results stay in index order and
  /// bit-identical to a serial run).
  bool parallel = true;
  /// Counter sink for the sweep's Erlang walks; see BatchOptions::kernel.
  queueing::ErlangKernel* kernel = nullptr;
  /// Pool to fan out over; nullptr uses ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Failure handling for degenerate grid cells: kFailFast propagates the
  /// first cell's exception (classic behavior); kQuarantine isolates
  /// failing cells as CellFailures so the rest of the grid survives.
  FailurePolicy policy = FailurePolicy::kFailFast;
  /// Cooperative cancellation + deadline for the whole sweep.
  RunControl control;
};

}  // namespace vmcons::core
