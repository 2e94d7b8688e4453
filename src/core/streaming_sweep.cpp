#include "core/streaming_sweep.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "core/planner.hpp"
#include "util/csv.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"
#include "util/file_lock.hpp"
#include "util/fs.hpp"
#include "util/metrics.hpp"

namespace vmcons::core {
namespace {

// Manifest schema (one CSV document per sweep). Records are line-oriented
// on purpose — failure messages are sanitized of newlines — so "last line
// has no trailing newline" is a reliable crash-truncation signal.
const std::vector<std::string> kManifestHeader = {
    "kind",           "shard",         "first_scenario",
    "scenarios",      "store_checksum", "result_checksum",
    "failure_index",  "failure_code",  "failure_message"};
constexpr std::size_t kManifestColumns = 9;

[[noreturn]] void manifest_fail(const std::string& path,
                                const std::string& what) {
  throw IoError("checkpoint manifest '" + path + "': " + what);
}

std::uint64_t parse_u64(const std::string& field, int base,
                        const std::string& path, const std::string& what) {
  std::uint64_t value = 0;
  const char* begin = field.data();
  const char* end = begin + field.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value, base);
  if (ec != std::errc{} || ptr != end || field.empty()) {
    manifest_fail(path, "unparseable " + what + " '" + field + "'");
  }
  return value;
}

std::string sanitize_message(std::string message) {
  for (char& c : message) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  return message;
}

/// What the manifest says about one committed shard.
struct ManifestShard {
  std::uint64_t result_checksum = 0;
  // keyed by global scenario index: re-appended failure rows from a
  // re-evaluated shard dedupe here (deterministic runs repeat them exactly).
  std::map<std::size_t, CellFailure> failures;
};

/// Parsed manifest: committed shards plus the byte length of the valid
/// prefix (everything up to and including the last newline) so a resuming
/// writer can drop a crash-truncated trailing line before appending.
struct Manifest {
  std::map<std::size_t, ManifestShard> committed;
  std::uintmax_t valid_prefix_bytes = 0;
  bool has_header = false;
};

Manifest load_manifest(const std::string& path, const ScenarioStore& store) {
  Manifest manifest;
  std::string text;
  const util::fs::Status read =
      util::fs::read_file(path, text, util::fs::sites::kManifestOpen);
  if (read.err == ENOENT) {
    return manifest;  // no manifest yet: nothing committed
  }
  if (!read.ok()) {
    manifest_fail(path, "read failed after " + std::to_string(read.bytes) +
                            " bytes: " + read.message());
  }

  // A trailing line without '\n' is the footprint of a process killed
  // mid-append; drop it (losing at most that one record) rather than
  // parsing half a row.
  const std::size_t last_newline = text.rfind('\n');
  if (last_newline == std::string::npos) {
    return manifest;  // nothing ever fully committed, start from scratch
  }
  manifest.valid_prefix_bytes = last_newline + 1;

  // Uncommitted failure rows: a shard's failures only count once its own
  // `shard` row landed, so a crash between the two re-evaluates the shard.
  std::map<std::size_t, ManifestShard> pending;
  std::size_t pos = 0;
  bool header_seen = false;
  while (pos < manifest.valid_prefix_bytes) {
    std::size_t eol = text.find('\n', pos);
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') {
      line.pop_back();
    }
    if (line.empty()) {
      continue;
    }
    std::vector<std::string> fields;
    try {
      fields = csv_parse_line(line);
    } catch (const Error& error) {
      manifest_fail(path, std::string("corrupted line: ") + error.what());
    }
    if (!header_seen) {
      if (fields != kManifestHeader) {
        manifest_fail(path, "unexpected header (not a sweep manifest)");
      }
      header_seen = true;
      continue;
    }
    if (fields.size() != kManifestColumns) {
      manifest_fail(path, "line has " + std::to_string(fields.size()) +
                              " fields, expected " +
                              std::to_string(kManifestColumns));
    }
    const std::string& kind = fields[0];
    const std::size_t shard = static_cast<std::size_t>(
        parse_u64(fields[1], 10, path, "shard index"));
    if (kind == "failure") {
      CellFailure failure;
      failure.scenario_index = static_cast<std::size_t>(
          parse_u64(fields[6], 10, path, "failure index"));
      failure.code = static_cast<ErrorCode>(
          parse_u64(fields[7], 10, path, "failure code"));
      failure.message = fields[8];
      pending[shard].failures.insert_or_assign(failure.scenario_index,
                                               std::move(failure));
    } else if (kind == "shard") {
      if (shard >= store.shard_count()) {
        manifest_fail(path, "records shard " + std::to_string(shard) +
                                " but the store has only " +
                                std::to_string(store.shard_count()));
      }
      const std::uint64_t store_checksum =
          parse_u64(fields[4], 16, path, "store checksum");
      if (store_checksum != store.checksum()) {
        manifest_fail(path,
                      "store checksum mismatch: the manifest checkpoints a "
                      "different store (refusing to resume)");
      }
      const ShardInfo& info = store.shard(shard);
      if (parse_u64(fields[2], 10, path, "first scenario") !=
              info.scenario_begin ||
          parse_u64(fields[3], 10, path, "scenario count") != info.scenarios) {
        manifest_fail(path, "shard " + std::to_string(shard) +
                                " geometry disagrees with the store footer");
      }
      ManifestShard committed = std::move(pending[shard]);
      pending.erase(shard);
      committed.result_checksum =
          parse_u64(fields[5], 16, path, "result checksum");
      manifest.committed.insert_or_assign(shard, std::move(committed));
    } else {
      manifest_fail(path, "unknown record kind '" + kind + "'");
    }
  }
  manifest.has_header = header_seen;
  return manifest;
}

void append_shard_records(CsvWriter& writer, std::size_t shard,
                          const ShardInfo& info, std::uint64_t store_checksum,
                          std::uint64_t result_checksum,
                          std::span<const CellFailure> failures,
                          std::size_t scenario_begin) {
  for (const CellFailure& failure : failures) {
    writer.row({std::string("failure"),
                static_cast<long long>(shard),
                static_cast<long long>(info.scenario_begin),
                static_cast<long long>(info.scenarios),
                std::string(),
                std::string(),
                static_cast<long long>(scenario_begin +
                                       failure.scenario_index),
                static_cast<long long>(static_cast<std::uint32_t>(
                    failure.code)),
                sanitize_message(failure.message)});
  }
  // The shard row is the commit point: failures above only become durable
  // when this row's newline hits the file.
  writer.row({std::string("shard"),
              static_cast<long long>(shard),
              static_cast<long long>(info.scenario_begin),
              static_cast<long long>(info.scenarios),
              util::hex64(store_checksum),
              util::hex64(result_checksum),
              0LL,
              0LL,
              std::string()});
}

}  // namespace

ScenarioStoreWriter::Summary write_sweep_store(
    const ConsolidationPlanner& planner, const SweepGrid& grid,
    const std::string& path, std::size_t shard_size,
    const RunControl& control) {
  ScenarioStoreWriter writer(path, shard_size);
  const std::size_t points = grid.size();
  ScenarioBatch shard;
  for (std::size_t begin = 0; begin < points;) {
    control.raise_if_stopped("write_sweep_store");
    const std::size_t end = begin + std::min(shard_size, points - begin);
    shard = planner.sweep_batch(grid, begin, end, std::move(shard));
    writer.write_shard(shard);
    begin = end;
  }
  return writer.finish();
}

std::uint64_t checksum_model_results(std::span<const ModelResult> results,
                                     std::span<const std::uint8_t> evaluated) {
  VMCONS_REQUIRE(results.size() == evaluated.size(),
                 "results and evaluated flags must have the same length");
  // The fields' host bytes are appended to a stack block and each full
  // block is hashed with one update(), which keeps the hash lanes in
  // registers. Digest64 is split-invariant, so the digest is that of
  // feeding every field on its own. The block and its fill are plain
  // locals so the compiler keeps `fill` in a register across the stores.
  constexpr std::size_t kBlock = 4096;
  util::Digest64 hash;
  char block[kBlock];
  std::size_t fill = 0;
  const auto flush = [&] {
    hash.update(block, fill);
    fill = 0;
  };
  const auto u64 = [&](std::uint64_t value) {
    if (fill > kBlock - sizeof value) {
      flush();
    }
    std::memcpy(block + fill, &value, sizeof value);
    fill += sizeof value;
  };
  const auto f64 = [&](double value) {
    u64(std::bit_cast<std::uint64_t>(value));
  };
  const auto bytes = [&](const std::string& text) {
    if (text.size() > kBlock - fill) {
      flush();
      if (text.size() > kBlock) {
        hash.update(text.data(), text.size());
        return;
      }
    }
    std::memcpy(block + fill, text.data(), text.size());
    fill += text.size();
  };

  for (std::size_t i = 0; i < results.size(); ++i) {
    u64(evaluated[i]);
    if (!evaluated[i]) {
      continue;
    }
    const ModelResult& result = results[i];
    u64(result.dedicated.size());
    for (const ServicePlan& plan : result.dedicated) {
      u64(plan.name.size());
      bytes(plan.name);
      for (const dc::Resource resource : dc::all_resources()) {
        f64(plan.offered_load[resource]);
      }
      for (const std::uint64_t servers : plan.servers_per_resource) {
        u64(servers);
      }
      u64(plan.servers);
      f64(plan.blocking);
    }
    u64(result.dedicated_servers);
    for (const ConsolidatedResourcePlan& plan : result.consolidated) {
      u64(static_cast<std::uint64_t>(plan.resource));
      f64(plan.merged_arrival_rate);
      f64(plan.effective_service_rate);
      f64(plan.offered_load);
      u64(plan.servers);
      u64(plan.demanded ? 1 : 0);
    }
    u64(result.consolidated_servers);
    f64(result.consolidated_blocking);
    f64(result.dedicated_utilization);
    f64(result.consolidated_utilization);
    f64(result.utilization_improvement);
    f64(result.dedicated_power_watts);
    f64(result.consolidated_power_watts);
    f64(result.power_ratio);
    f64(result.power_saving);
    f64(result.infrastructure_saving);
  }
  flush();
  return hash.digest();
}

StreamingSweep::StreamingSweep(StreamingSweepOptions options)
    : options_(std::move(options)) {}

StreamingSweepReport StreamingSweep::run(const ScenarioStore& store,
                                         const ShardSink& sink) const {
  StreamingSweepReport report;
  report.shards_total = store.shard_count();
  report.shard_checksums.assign(report.shards_total, 0);

  const bool checkpointing = !options_.checkpoint_path.empty();

  // The manifest assumes a single writer: two sweeps appending to the same
  // checkpoint would interleave rows and corrupt both runs' resume state.
  // An exclusive pid lock makes the second sweep fail fast and loudly; a
  // lock left by a crashed sweep (dead pid) is detected as stale and taken
  // over, so a kill-and-resume cycle never wedges on its own leftovers.
  std::optional<util::PidLockFile> manifest_lock;
  if (checkpointing) {
    manifest_lock.emplace(options_.checkpoint_path + ".lock",
                          "checkpoint manifest '" + options_.checkpoint_path +
                              "'");
  }

  Manifest manifest;
  if (checkpointing && options_.resume) {
    manifest = load_manifest(options_.checkpoint_path, store);
  }

  // Durable manifest writer: rows go through util::fs (site
  // fs.manifest.append) so every append is checked, and commit() fsyncs —
  // the per-shard fsync is what turns the shard row into a real commit
  // point that survives power loss, not just a process kill.
  util::fs::File manifest_file;
  CsvWriter writer(manifest_file, util::fs::sites::kManifestAppend);
  if (checkpointing) {
    if (manifest.has_header) {
      // Appending: first drop the crash-truncated tail (if any), then adopt
      // the existing header so new records extend the same document.
      const util::fs::Status truncated = util::fs::truncate_file(
          options_.checkpoint_path, manifest.valid_prefix_bytes,
          util::fs::sites::kManifestOpen);
      if (!truncated.ok()) {
        manifest_fail(options_.checkpoint_path,
                      "cannot drop the torn tail at byte " +
                          std::to_string(manifest.valid_prefix_bytes) + ": " +
                          truncated.message());
      }
      const util::fs::Status opened = util::fs::open_append(
          options_.checkpoint_path, util::fs::sites::kManifestOpen,
          manifest_file);
      if (!opened.ok()) {
        manifest_fail(options_.checkpoint_path,
                      "cannot open for appending: " + opened.message());
      }
      writer.continue_rows(kManifestColumns);
    } else {
      const util::fs::Status opened = util::fs::create_truncate(
          options_.checkpoint_path, util::fs::sites::kManifestOpen,
          manifest_file);
      if (!opened.ok()) {
        manifest_fail(options_.checkpoint_path,
                      "cannot open for writing: " + opened.message());
      }
      writer.header(kManifestHeader);
      writer.commit();
    }
  }

  BatchEvaluator evaluator(options_.batch);
  auto& resumed_counter =
      metrics::registry().counter(metrics::names::kSweepShardsResumed);
  auto& completed_counter =
      metrics::registry().counter(metrics::names::kSweepShardsCompleted);

  for (std::size_t shard = 0; shard < report.shards_total; ++shard) {
    if (const auto it = manifest.committed.find(shard);
        it != manifest.committed.end()) {
      // Committed by an earlier run: restore its report entries without
      // touching the store.
      const ShardInfo& info = store.shard(shard);
      report.shard_checksums[shard] = it->second.result_checksum;
      report.scenarios_evaluated +=
          info.scenarios - it->second.failures.size();
      for (const auto& [global_index, failure] : it->second.failures) {
        report.failures.push_back(failure);
      }
      ++report.shards_resumed;
      resumed_counter.add();
      continue;
    }

    if (options_.batch.control.stop_requested()) {
      break;
    }
    // Kill-and-resume test hook: fires with the global shard index, outside
    // the evaluator's quarantine, so an injected error escapes run() with
    // every earlier shard already committed — exactly like a process kill.
    if (util::FaultInjector::enabled()) {
      util::FaultInjector::global().check(util::fault_sites::kSweepShard,
                                          shard);
    }

    const ShardInfo& info = store.shard(shard);
    const ScenarioBatch batch = store.read_shard(shard);
    BatchOutcome outcome = evaluator.evaluate_all(batch);
    if (outcome.cancelled || outcome.deadline_exceeded) {
      // The shard is partial: do not commit it, do not deliver it. The next
      // run re-evaluates it from the store.
      break;
    }

    const std::uint64_t result_checksum =
        checksum_model_results(outcome.results, outcome.evaluated);
    report.shard_checksums[shard] = result_checksum;
    report.scenarios_evaluated += outcome.evaluated_count();
    const std::size_t scenario_begin =
        static_cast<std::size_t>(info.scenario_begin);
    for (const CellFailure& failure : outcome.failures) {
      CellFailure global = failure;
      global.scenario_index += scenario_begin;
      report.failures.push_back(std::move(global));
    }

    if (checkpointing) {
      try {
        append_shard_records(writer, shard, info, store.checksum(),
                             result_checksum, outcome.failures,
                             scenario_begin);
        // fsync: the shard row only counts as committed once it is durable.
        writer.commit();
      } catch (const IoError& error) {
        manifest_fail(options_.checkpoint_path,
                      "write failed while committing shard " +
                          std::to_string(shard) + ": " + error.what());
      }
      // Progress point: keep the manifest lock fresh so remote hosts never
      // see a live single-writer as lease-stale.
      manifest_lock->refresh();
    }
    ++report.shards_completed;
    completed_counter.add();
    if (sink) {
      sink(ShardOutcome{shard, scenario_begin, std::move(outcome),
                        result_checksum});
    }
  }

  switch (options_.batch.control.stop_reason()) {
    case StopReason::kCancelled:
      report.cancelled = true;
      break;
    case StopReason::kDeadlineExceeded:
      report.deadline_exceeded = true;
      break;
    case StopReason::kNone:
      break;
  }
  return report;
}

}  // namespace vmcons::core
