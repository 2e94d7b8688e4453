// Out-of-core sweeps: shard-by-shard evaluation with checkpoint/resume.
//
// ScenarioStore (scenario_store.hpp) bounds the *space* of a huge sweep;
// StreamingSweep bounds its *risk*. The driver walks a store shard at a
// time — materialize one shard as a ScenarioBatch, run BatchEvaluator on it
// (inner parallelism, quarantine, run control all apply per shard), deliver
// the shard's results to a sink, drop them — so resident memory is one
// shard's inputs plus one shard's results no matter how many millions of
// scenarios the store holds. Each shard's staffing passes walk their own
// Erlang-B recurrences, so no state outlives a shard.
//
// After each completed shard the driver appends a record to a sidecar
// *checkpoint manifest* (CSV, written via util CsvWriter and flushed per
// shard): the shard's quarantined CellFailures (global scenario indices)
// followed by one `shard` row carrying the store's checksum and an XXH64
// checksum of the shard's results. A sweep that is cancelled, hits its
// deadline, or dies outright can then be re-run with the same options: the
// manifest is loaded, shards it records as complete are skipped (their
// failures and result checksums are restored from the manifest), and
// evaluation resumes at the first uncommitted shard — producing results
// bit-identical to an uninterrupted run, which the manifest's per-shard
// result checksums make checkable.
//
// Crash tolerance of the manifest itself: a process killed mid-append
// leaves a partial trailing line (no final newline) — that line is
// discarded on load, sacrificing at most one shard of progress. A complete
// but garbled line is corruption, not a crash artifact, and throws IoError.
// A manifest whose store checksum disagrees with the store refuses to
// resume (it checkpoints some other sweep).
//
// The manifest has exactly one writer: a checkpointing run() holds an
// exclusive pid lock (`<checkpoint_path>.lock`) for its duration, so a
// second sweep pointed at the same checkpoint fails fast with IoError
// instead of interleaving rows. A lock whose pid is dead (the crashed-sweep
// case) is detected as stale and taken over. Multi-process sharded sweeps
// should not share a manifest at all — see core/sharded_sweep.hpp, whose
// claim ledger is built for concurrent writers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/scenario_store.hpp"
#include "core/sweep.hpp"
#include "util/run_control.hpp"

namespace vmcons::core {

class ConsolidationPlanner;

/// Enumerates `grid` against `planner` straight into a store file, one
/// shard of `shard_size` points at a time: each shard is built whole by
/// ConsolidationPlanner::sweep_batch and written with
/// ScenarioStoreWriter::write_shard, so the bytes equal a writer fed
/// point_inputs per point in index order, and the grid is never
/// materialized in memory. The control is polled before every shard; a stop
/// raises CancelledError / DeadlineExceededError and leaves an unfinished
/// (unopenable) store.
ScenarioStoreWriter::Summary write_sweep_store(
    const ConsolidationPlanner& planner, const SweepGrid& grid,
    const std::string& path, std::size_t shard_size,
    const RunControl& control = {});

/// Order-sensitive XXH64 digest (util::Digest64) of a shard's results:
/// each evaluated flag, then for evaluated cells every numeric field of the
/// ModelResult (plans included) in a fixed canonical order. Two shards agree
/// iff their results are bit-identical, which is what the manifest's result
/// checksums assert across kill/resume boundaries.
std::uint64_t checksum_model_results(std::span<const ModelResult> results,
                                     std::span<const std::uint8_t> evaluated);

/// One store shard's evaluation, as delivered to the sink. `outcome`
/// indexes scenarios shard-locally; add `scenario_begin` for global indices.
struct ShardOutcome {
  std::size_t shard_index = 0;
  std::size_t scenario_begin = 0;
  BatchOutcome outcome;
  std::uint64_t result_checksum = 0;
};

/// Called once per *newly evaluated* shard, in shard order. Shards skipped
/// via the manifest are not re-materialized and not delivered — a resumed
/// run's sink sees exactly the shards the interrupted run did not commit.
using ShardSink = std::function<void(ShardOutcome&&)>;

struct StreamingSweepOptions {
  /// Per-shard evaluation knobs. policy/parallel/kernel/pool behave as in
  /// BatchEvaluator; control stops the sweep between shards (and within a
  /// shard, via the evaluator) without losing committed shards.
  BatchOptions batch;
  /// Sidecar manifest path; empty disables checkpointing (every run starts
  /// from shard 0 and nothing is written).
  std::string checkpoint_path;
  /// Load an existing manifest and skip its committed shards. When false an
  /// existing manifest is overwritten and the sweep starts clean.
  bool resume = true;
};

/// What a streaming sweep did. Failures carry *global* scenario indices;
/// shard_checksums[i] is shard i's result digest (present for both resumed
/// and newly evaluated shards, so a clean run and a killed-then-resumed run
/// can be compared checksum-for-checksum).
struct StreamingSweepReport {
  std::size_t shards_total = 0;
  std::size_t shards_resumed = 0;    ///< skipped via the manifest
  std::size_t shards_completed = 0;  ///< evaluated and committed this run
  std::uint64_t scenarios_evaluated = 0;
  std::vector<CellFailure> failures;
  std::vector<std::uint64_t> shard_checksums;
  bool cancelled = false;
  bool deadline_exceeded = false;

  /// Every shard committed (resumed or evaluated), no stop.
  bool complete() const noexcept {
    return shards_resumed + shards_completed == shards_total && !cancelled &&
           !deadline_exceeded;
  }
};

class StreamingSweep {
 public:
  explicit StreamingSweep(StreamingSweepOptions options);

  /// Runs the sweep over `store`, delivering newly evaluated shards to
  /// `sink` (which may be null). Stops — cancellation, deadline — are
  /// reported in the returned flags, not thrown, and never lose committed
  /// shards. Throws IoError for store/manifest corruption and propagates
  /// evaluation exceptions under FailurePolicy::kFailFast; in both cases
  /// the manifest still holds every shard committed before the throw.
  StreamingSweepReport run(const ScenarioStore& store,
                           const ShardSink& sink = nullptr) const;

 private:
  StreamingSweepOptions options_;
};

}  // namespace vmcons::core
