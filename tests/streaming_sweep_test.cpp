// StreamingSweep: out-of-core sweeps stay bit-identical to in-memory batch
// evaluation, and the checkpoint manifest makes kill-and-resume lossless —
// a run killed by an injected fault (or cancelled mid-grid) resumes from
// the last committed shard and the union of delivered shards matches a
// clean run checksum-for-checksum.
//
// The fault seed is overridable via VMCONS_FAULT_SEED (scripts/tier1.sh
// pins it), so the kill-and-resume suite replays exactly.
#include "core/streaming_sweep.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/planner.hpp"
#include "core/scenario_store.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"
#include "virt/impact.hpp"

namespace vmcons::core {
namespace {

using util::FaultInjector;
using util::ScopedFaults;
namespace sites = util::fault_sites;

std::uint64_t fault_seed() {
  if (const char* env = std::getenv("VMCONS_FAULT_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 2009;
}

/// The run-control suite's small planner: two services, cheap cells.
ConsolidationPlanner small_planner() {
  ConsolidationPlanner planner;
  planner.set_target_loss(0.01);
  dc::ServiceSpec web;
  web.name = "web";
  web.arrival_rate = 120.0;
  web.demand(dc::Resource::kCpu, 180.0, virt::Impact::constant(0.8));
  web.demand(dc::Resource::kNetwork, 400.0, virt::Impact::constant(0.9));
  planner.add_service(web);
  dc::ServiceSpec db;
  db.name = "db";
  db.arrival_rate = 60.0;
  db.demand(dc::Resource::kCpu, 90.0, virt::Impact::constant(0.75));
  db.demand(dc::Resource::kDiskIo, 150.0, virt::Impact::constant(0.7));
  planner.add_service(db);
  return planner;
}

/// 3 losses x 2 VM densities x 2 scales = 12 points; shard size 2 -> 6
/// shards, enough boundaries for kill/resume placement.
SweepGrid small_grid() {
  SweepGrid grid;
  grid.target_losses({0.005, 0.01, 0.05})
      .vms_per_server({2, 3})
      .workload_scales({1.0, 1.4});
  return grid;
}
constexpr std::size_t kGridPoints = 12;
constexpr std::size_t kShardSize = 2;
constexpr std::size_t kShards = 6;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "vmcons_streaming_" + name;
  std::remove(path.c_str());  // drop leftovers of an earlier (failed) run
  return path;
}

struct CollectedRun {
  std::vector<ModelResult> results;            // by global scenario index
  std::vector<std::uint8_t> evaluated;         // ditto
  std::vector<std::size_t> delivered_shards;   // sink call order
  StreamingSweepReport report;
};

/// Runs a streaming sweep, scattering delivered shard results into global
/// scenario positions.
CollectedRun run_streaming(const ScenarioStore& store,
                           StreamingSweepOptions options) {
  CollectedRun run;
  run.results.resize(store.scenario_count());
  run.evaluated.assign(store.scenario_count(), 0);
  const StreamingSweep sweep(std::move(options));
  run.report = sweep.run(store, [&run](ShardOutcome&& shard) {
    run.delivered_shards.push_back(shard.shard_index);
    for (std::size_t i = 0; i < shard.outcome.results.size(); ++i) {
      run.results[shard.scenario_begin + i] =
          std::move(shard.outcome.results[i]);
      run.evaluated[shard.scenario_begin + i] = shard.outcome.evaluated[i];
    }
  });
  return run;
}

void expect_identical(const ModelResult& a, const ModelResult& b,
                      std::size_t index) {
  SCOPED_TRACE("scenario " + std::to_string(index));
  ASSERT_EQ(a.dedicated.size(), b.dedicated.size());
  for (std::size_t i = 0; i < a.dedicated.size(); ++i) {
    EXPECT_EQ(a.dedicated[i].servers, b.dedicated[i].servers);
    EXPECT_EQ(a.dedicated[i].blocking, b.dedicated[i].blocking);
  }
  EXPECT_EQ(a.dedicated_servers, b.dedicated_servers);
  EXPECT_EQ(a.consolidated_servers, b.consolidated_servers);
  EXPECT_EQ(a.consolidated_blocking, b.consolidated_blocking);
  EXPECT_EQ(a.dedicated_utilization, b.dedicated_utilization);
  EXPECT_EQ(a.consolidated_utilization, b.consolidated_utilization);
  EXPECT_EQ(a.utilization_improvement, b.utilization_improvement);
  EXPECT_EQ(a.dedicated_power_watts, b.dedicated_power_watts);
  EXPECT_EQ(a.consolidated_power_watts, b.consolidated_power_watts);
  EXPECT_EQ(a.power_saving, b.power_saving);
  EXPECT_EQ(a.infrastructure_saving, b.infrastructure_saving);
}

/// Writes the standard small store; caller owns cleanup of `path`.
ScenarioStoreWriter::Summary write_small_store(const std::string& path) {
  return write_sweep_store(small_planner(), small_grid(), path, kShardSize);
}

TEST(StreamingSweep, CleanRunMatchesInMemoryBatchBitIdentically) {
  const std::string store_path = temp_path("clean.store");
  const auto summary = write_small_store(store_path);
  EXPECT_EQ(summary.scenarios, kGridPoints);
  EXPECT_EQ(summary.shards, kShards);
  const ScenarioStore store(store_path);

  // Reference: the whole grid as one in-memory batch.
  const ConsolidationPlanner planner = small_planner();
  const SweepGrid grid = small_grid();
  std::vector<ModelInputs> inputs;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    inputs.push_back(planner.point_inputs(grid.point(i)));
  }
  const BatchEvaluator evaluator;
  const std::vector<ModelResult> reference =
      evaluator.evaluate(ScenarioBatch::from_inputs(inputs));

  const CollectedRun run = run_streaming(store, StreamingSweepOptions{});
  EXPECT_TRUE(run.report.complete());
  EXPECT_EQ(run.report.shards_completed, kShards);
  EXPECT_EQ(run.report.shards_resumed, 0u);
  EXPECT_EQ(run.report.scenarios_evaluated, kGridPoints);
  EXPECT_TRUE(run.report.failures.empty());
  ASSERT_EQ(run.results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    ASSERT_TRUE(run.evaluated[i]);
    expect_identical(run.results[i], reference[i], i);
  }
  std::remove(store_path.c_str());
}

TEST(StreamingSweep, FullResumeSkipsEveryShardWithoutReEvaluating) {
  const std::string store_path = temp_path("resume_all.store");
  const std::string manifest = temp_path("resume_all.manifest.csv");
  write_small_store(store_path);
  const ScenarioStore store(store_path);

  StreamingSweepOptions options;
  options.checkpoint_path = manifest;
  const CollectedRun first = run_streaming(store, options);
  EXPECT_TRUE(first.report.complete());
  EXPECT_EQ(first.report.shards_completed, kShards);

  const CollectedRun second = run_streaming(store, options);
  EXPECT_TRUE(second.report.complete());
  EXPECT_EQ(second.report.shards_resumed, kShards);
  EXPECT_EQ(second.report.shards_completed, 0u);
  EXPECT_TRUE(second.delivered_shards.empty());  // nothing re-materialized
  EXPECT_EQ(second.report.shard_checksums, first.report.shard_checksums);
  // scenarios_evaluated counts restored work too, so totals agree.
  EXPECT_EQ(second.report.scenarios_evaluated,
            first.report.scenarios_evaluated);

  // resume=false starts clean and re-evaluates everything.
  options.resume = false;
  const CollectedRun fresh = run_streaming(store, options);
  EXPECT_EQ(fresh.report.shards_completed, kShards);
  EXPECT_EQ(fresh.report.shard_checksums, first.report.shard_checksums);

  std::remove(store_path.c_str());
  std::remove(manifest.c_str());
}

TEST(StreamingSweep, KilledRunResumesBitIdentically) {
  const std::string store_path = temp_path("kill.store");
  const std::string manifest = temp_path("kill.manifest.csv");
  write_small_store(store_path);
  const ScenarioStore store(store_path);

  // Clean baseline, no checkpointing.
  const CollectedRun clean = run_streaming(store, StreamingSweepOptions{});
  ASSERT_TRUE(clean.report.complete());

  // Killed run: sweep.shard faults fire outside the evaluator's quarantine,
  // so a firing shard aborts run() exactly like a process kill — after the
  // preceding shards were committed to the manifest. The sink arms the site
  // at rate 1.0 once two shards have been delivered, so the kill lands
  // mid-run (shard 2) deterministically at every seed.
  ScopedFaults guard;
  FaultInjector::global().set_seed(fault_seed());
  constexpr std::size_t kKillAfter = 2;

  StreamingSweepOptions options;
  options.checkpoint_path = manifest;
  CollectedRun killed;
  killed.results.resize(store.scenario_count());
  killed.evaluated.assign(store.scenario_count(), 0);
  const StreamingSweep sweep(options);
  try {
    sweep.run(store, [&killed](ShardOutcome&& shard) {
      killed.delivered_shards.push_back(shard.shard_index);
      for (std::size_t i = 0; i < shard.outcome.results.size(); ++i) {
        killed.results[shard.scenario_begin + i] =
            std::move(shard.outcome.results[i]);
        killed.evaluated[shard.scenario_begin + i] = 1;
      }
      if (killed.delivered_shards.size() == kKillAfter) {
        FaultInjector::global().arm(sites::kSweepShard, {.error_rate = 1.0});
      }
    });
    FAIL() << "expected the injected fault to escape run()";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kFaultInjected);
  }
  EXPECT_EQ(killed.delivered_shards.size(), kKillAfter);
  FaultInjector::global().disarm_all();

  // Resumed run: committed shards are skipped, the rest are evaluated.
  const CollectedRun resumed = run_streaming(store, options);
  EXPECT_TRUE(resumed.report.complete());
  EXPECT_EQ(resumed.report.shards_resumed, kKillAfter);
  EXPECT_EQ(resumed.report.shards_completed, kShards - kKillAfter);
  EXPECT_EQ(resumed.report.shard_checksums, clean.report.shard_checksums);

  // The union of (killed run's delivered shards, resumed run's delivered
  // shards) covers every scenario exactly once, bit-identical to clean.
  for (std::size_t i = 0; i < store.scenario_count(); ++i) {
    const bool from_killed = killed.evaluated[i] != 0;
    const bool from_resumed = resumed.evaluated[i] != 0;
    ASSERT_TRUE(from_killed != from_resumed) << "scenario " << i;
    const ModelResult& delivered =
        from_killed ? killed.results[i] : resumed.results[i];
    expect_identical(delivered, clean.results[i], i);
  }

  std::remove(store_path.c_str());
  std::remove(manifest.c_str());
}

TEST(StreamingSweep, CancelledRunKeepsCommittedShardsAndResumes) {
  const std::string store_path = temp_path("cancel.store");
  const std::string manifest = temp_path("cancel.manifest.csv");
  write_small_store(store_path);
  const ScenarioStore store(store_path);

  const CollectedRun clean = run_streaming(store, StreamingSweepOptions{});

  StreamingSweepOptions options;
  options.checkpoint_path = manifest;
  CancelToken token = options.batch.control.token;
  CollectedRun cancelled;
  cancelled.results.resize(store.scenario_count());
  cancelled.evaluated.assign(store.scenario_count(), 0);
  const StreamingSweep sweep(options);
  cancelled.report = sweep.run(store, [&](ShardOutcome&& shard) {
    cancelled.delivered_shards.push_back(shard.shard_index);
    if (cancelled.delivered_shards.size() == 2) {
      token.cancel();  // stop after two committed shards
    }
  });
  EXPECT_TRUE(cancelled.report.cancelled);
  EXPECT_FALSE(cancelled.report.complete());
  EXPECT_EQ(cancelled.report.shards_completed, 2u);

  StreamingSweepOptions resume_options;
  resume_options.checkpoint_path = manifest;
  const CollectedRun resumed = run_streaming(store, resume_options);
  EXPECT_TRUE(resumed.report.complete());
  EXPECT_EQ(resumed.report.shards_resumed, 2u);
  EXPECT_EQ(resumed.report.shards_completed, kShards - 2);
  EXPECT_EQ(resumed.report.shard_checksums, clean.report.shard_checksums);

  std::remove(store_path.c_str());
  std::remove(manifest.c_str());
}

TEST(StreamingSweep, QuarantinedFailuresAreRestoredFromManifest) {
  const std::string store_path = temp_path("quarantine.store");
  const std::string manifest = temp_path("quarantine.manifest.csv");
  write_small_store(store_path);
  const ScenarioStore store(store_path);

  // First run: quarantine policy with per-cell faults. batch.cell draws on
  // the shard-local cell index — {0, 1} at this shard size — and at the
  // pinned seed rate 0.8 fires for exactly one of the two, so every shard
  // commits a mix of healthy and quarantined cells.
  ScopedFaults guard;
  FaultInjector::global().set_seed(fault_seed());
  FaultInjector::global().arm(sites::kBatchCell, {.error_rate = 0.8});
  StreamingSweepOptions options;
  options.checkpoint_path = manifest;
  options.batch.policy = FailurePolicy::kQuarantine;
  const CollectedRun faulty = run_streaming(store, options);
  EXPECT_TRUE(faulty.report.cancelled == false &&
              faulty.report.deadline_exceeded == false);
  ASSERT_FALSE(faulty.report.failures.empty())
      << "fault seed " << fault_seed() << " quarantines no cell at rate 0.8";
  for (const CellFailure& failure : faulty.report.failures) {
    EXPECT_EQ(failure.code, ErrorCode::kFaultInjected);
    EXPECT_LT(failure.scenario_index, kGridPoints);  // global indices
  }
  FaultInjector::global().disarm_all();

  // Second run, faults disarmed: every shard resumes from the manifest and
  // the failure report is reproduced from it, not re-evaluated.
  const CollectedRun restored = run_streaming(store, options);
  EXPECT_EQ(restored.report.shards_resumed, kShards);
  ASSERT_EQ(restored.report.failures.size(), faulty.report.failures.size());
  for (std::size_t i = 0; i < restored.report.failures.size(); ++i) {
    EXPECT_EQ(restored.report.failures[i].scenario_index,
              faulty.report.failures[i].scenario_index);
    EXPECT_EQ(restored.report.failures[i].code,
              faulty.report.failures[i].code);
    EXPECT_EQ(restored.report.failures[i].message,
              faulty.report.failures[i].message);
  }
  EXPECT_EQ(restored.report.shard_checksums, faulty.report.shard_checksums);

  std::remove(store_path.c_str());
  std::remove(manifest.c_str());
}

TEST(StreamingSweep, PartialTrailingManifestLineIsDiscarded) {
  const std::string store_path = temp_path("partial.store");
  const std::string manifest = temp_path("partial.manifest.csv");
  write_small_store(store_path);
  const ScenarioStore store(store_path);

  StreamingSweepOptions options;
  options.checkpoint_path = manifest;
  const CollectedRun first = run_streaming(store, options);
  ASSERT_TRUE(first.report.complete());

  // A crash mid-append leaves a line with no trailing newline; the loader
  // must drop it (and only it) rather than reject the manifest.
  {
    std::ofstream out(manifest, std::ios::binary | std::ios::app);
    out << "shard,4,8,2,deadbeef";  // cut off mid-record
  }
  const CollectedRun resumed = run_streaming(store, options);
  EXPECT_TRUE(resumed.report.complete());
  EXPECT_EQ(resumed.report.shards_resumed, kShards);
  EXPECT_EQ(resumed.report.shard_checksums, first.report.shard_checksums);

  std::remove(store_path.c_str());
  std::remove(manifest.c_str());
}

TEST(StreamingSweep, GarbledManifestLineIsRejected) {
  const std::string store_path = temp_path("garbled.store");
  const std::string manifest = temp_path("garbled.manifest.csv");
  write_small_store(store_path);
  const ScenarioStore store(store_path);

  StreamingSweepOptions options;
  options.checkpoint_path = manifest;
  run_streaming(store, options);
  {
    // A *complete* nonsense line is corruption, not a crash artifact.
    std::ofstream out(manifest, std::ios::binary | std::ios::app);
    out << "blob,x,y,z,1,2,3,4,5\n";
  }
  EXPECT_THROW(run_streaming(store, options), IoError);

  std::remove(store_path.c_str());
  std::remove(manifest.c_str());
}

TEST(StreamingSweep, ManifestOfDifferentStoreIsRejected) {
  const std::string store_path = temp_path("mismatch_a.store");
  const std::string other_path = temp_path("mismatch_b.store");
  const std::string manifest = temp_path("mismatch.manifest.csv");
  write_small_store(store_path);
  {
    // A different grid -> different contents -> different store checksum.
    SweepGrid other_grid;
    other_grid.target_losses({0.02, 0.03});
    write_sweep_store(small_planner(), other_grid, other_path, kShardSize);
  }
  const ScenarioStore store(store_path);
  const ScenarioStore other(other_path);
  ASSERT_NE(store.checksum(), other.checksum());

  StreamingSweepOptions options;
  options.checkpoint_path = manifest;
  run_streaming(store, options);
  try {
    run_streaming(other, options);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("different store"),
              std::string::npos);
  }

  std::remove(store_path.c_str());
  std::remove(other_path.c_str());
  std::remove(manifest.c_str());
}

TEST(StreamingSweep, WriteSweepStoreHonorsRunControl) {
  const std::string store_path = temp_path("write_cancel.store");
  RunControl control;
  control.token.cancel();
  EXPECT_THROW(write_sweep_store(small_planner(), small_grid(), store_path,
                                 kShardSize, control),
               CancelledError);
  // The aborted store never finished, so it must not open.
  EXPECT_THROW(ScenarioStore{store_path}, IoError);
  std::remove(store_path.c_str());
}

TEST(StreamingSweep, ChecksumIsOrderAndValueSensitive) {
  const std::string store_path = temp_path("checksum.store");
  write_small_store(store_path);
  const ScenarioStore store(store_path);
  const ScenarioBatch batch = store.read_shard(0);
  const BatchEvaluator evaluator;
  BatchOutcome outcome = evaluator.evaluate_all(batch);
  const std::uint64_t base =
      checksum_model_results(outcome.results, outcome.evaluated);
  EXPECT_EQ(checksum_model_results(outcome.results, outcome.evaluated), base);

  BatchOutcome tweaked = outcome;
  tweaked.results[0].power_saving += 1e-12;
  EXPECT_NE(checksum_model_results(tweaked.results, tweaked.evaluated), base);

  BatchOutcome masked = outcome;
  masked.evaluated[1] = 0;
  EXPECT_NE(checksum_model_results(masked.results, masked.evaluated), base);

  std::remove(store_path.c_str());
}

/// A hand-built result span for the pinned digest: an unevaluated cell
/// with nonzero fields (which the digest must skip), empty names, a name
/// longer than the digest's 4096-byte stack block, and ~40 KB of names of
/// every length 0..300 so that many of them meet a block's end part-way.
/// Values are plain arithmetic plus -0.0, inf and a quiet NaN, so their
/// bits are the same on every host.
struct PinnedSpan {
  std::vector<ModelResult> results;
  std::vector<std::uint8_t> evaluated;
};

PinnedSpan pinned_span() {
  PinnedSpan span;
  std::size_t name_length = 0;
  for (std::size_t i = 0; i < 48; ++i) {
    ModelResult result;
    const double x = static_cast<double>(i);
    const std::size_t plans = i % 5;
    for (std::size_t p = 0; p < plans; ++p) {
      ServicePlan plan;
      plan.name = std::string(name_length, static_cast<char>('a' + (i + p) % 26));
      name_length = (name_length + 37) % 301;
      for (const dc::Resource resource : dc::all_resources()) {
        const auto r = static_cast<std::size_t>(resource);
        plan.offered_load[resource] = x * 0.25 + static_cast<double>(r) / 3.0;
        plan.servers_per_resource[r] = i * 11 + p * 3 + r;
      }
      plan.servers = i + p + 1;
      plan.blocking = 1e-3 / (x + 1.0);
      result.dedicated.push_back(std::move(plan));
    }
    result.dedicated_servers = 10 * i + 1;
    for (const dc::Resource resource : dc::all_resources()) {
      const auto r = static_cast<std::size_t>(resource);
      ConsolidatedResourcePlan& plan = result.consolidated[r];
      plan.resource = resource;
      plan.merged_arrival_rate = 100.0 + x + static_cast<double>(r);
      plan.effective_service_rate = 7.5 * static_cast<double>(r + 1);
      plan.offered_load = plan.merged_arrival_rate / plan.effective_service_rate;
      plan.servers = (i + r) % 4 == 0 ? 0 : i + r;
      plan.demanded = (i + r) % 4 != 0;
    }
    result.consolidated_servers = 5 * i + 2;
    result.consolidated_blocking = i % 7 == 3 ? -0.0 : 0.01 / (x + 2.0);
    result.dedicated_utilization = 0.4 + x / 100.0;
    result.consolidated_utilization = 0.6 + x / 200.0;
    result.utilization_improvement =
        i % 11 == 5 ? std::numeric_limits<double>::infinity() : 1.5;
    result.dedicated_power_watts = 200.0 * x;
    result.consolidated_power_watts = 150.0 * x;
    result.power_ratio =
        i % 13 == 6 ? std::numeric_limits<double>::quiet_NaN() : 0.75;
    result.power_saving = 0.25;
    result.infrastructure_saving = 1.0 - x / 64.0;
    span.results.push_back(std::move(result));
    span.evaluated.push_back(i % 9 == 4 ? 0 : 1);
  }
  // Empty names, then one name longer than the block.
  span.results[1].dedicated.front().name.clear();
  span.results[2].dedicated.back().name.clear();
  span.results[7].dedicated[1].name = std::string(10000, 'L');
  return span;
}

/// The canonical digest bytes of `span`, built independently of
/// checksum_model_results: host bytes of each field in the documented
/// order. `name_meets_block_end` counts names that do not fit what is left
/// of a 4096-byte block filled the way the digest fills it, and
/// `names_over_block` names longer than a whole block.
struct CanonicalBytes {
  std::string bytes;
  std::size_t name_meets_block_end = 0;
  std::size_t names_over_block = 0;
};

CanonicalBytes canonical_bytes(const PinnedSpan& span) {
  constexpr std::size_t kBlock = 4096;
  CanonicalBytes out;
  std::size_t fill = 0;  // shadow of the digest's block fill
  const auto word = [&](std::uint64_t value) {
    out.bytes.append(reinterpret_cast<const char*>(&value), sizeof value);
    fill = fill > kBlock - sizeof value ? sizeof value : fill + sizeof value;
  };
  const auto real = [&](double value) {
    word(std::bit_cast<std::uint64_t>(value));
  };
  const auto name = [&](const std::string& text) {
    out.bytes.append(text);
    if (text.size() > kBlock - fill) {
      ++out.name_meets_block_end;
      out.names_over_block += text.size() > kBlock ? 1 : 0;
      fill = text.size() > kBlock ? 0 : text.size();
    } else {
      fill += text.size();
    }
  };
  for (std::size_t i = 0; i < span.results.size(); ++i) {
    word(span.evaluated[i]);
    if (!span.evaluated[i]) {
      continue;
    }
    const ModelResult& result = span.results[i];
    word(result.dedicated.size());
    for (const ServicePlan& plan : result.dedicated) {
      word(plan.name.size());
      name(plan.name);
      for (const dc::Resource resource : dc::all_resources()) {
        real(plan.offered_load[resource]);
      }
      for (const std::uint64_t servers : plan.servers_per_resource) {
        word(servers);
      }
      word(plan.servers);
      real(plan.blocking);
    }
    word(result.dedicated_servers);
    for (const ConsolidatedResourcePlan& plan : result.consolidated) {
      word(static_cast<std::uint64_t>(plan.resource));
      real(plan.merged_arrival_rate);
      real(plan.effective_service_rate);
      real(plan.offered_load);
      word(plan.servers);
      word(plan.demanded ? 1 : 0);
    }
    word(result.consolidated_servers);
    for (const double value :
         {result.consolidated_blocking, result.dedicated_utilization,
          result.consolidated_utilization, result.utilization_improvement,
          result.dedicated_power_watts, result.consolidated_power_watts,
          result.power_ratio, result.power_saving,
          result.infrastructure_saving}) {
      real(value);
    }
  }
  return out;
}

// The result digest is a durable format: manifests and result files hold
// it, and a resumed or merged sweep compares against digests an older build
// wrote. This value was computed by the field-at-a-time digest that
// preceded the block-fed one; any change to the canonical bytes breaks it.
TEST(StreamingSweep, ResultDigestIsPinnedToItsCanonicalBytes) {
  const PinnedSpan span = pinned_span();
  const CanonicalBytes canonical = canonical_bytes(span);
  EXPECT_GE(canonical.name_meets_block_end, 3u);
  EXPECT_EQ(canonical.names_over_block, 1u);
  EXPECT_GT(canonical.bytes.size(), 8 * 4096u);

  const std::uint64_t digest =
      checksum_model_results(span.results, span.evaluated);
  EXPECT_EQ(digest,
            util::digest64(canonical.bytes.data(), canonical.bytes.size()));
  EXPECT_EQ(digest, 0x5e63c5d4ab10c71eULL) << std::hex << digest;
}

}  // namespace
}  // namespace vmcons::core
