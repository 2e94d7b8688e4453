// vmbench: the vmcons benchmark. One closed-loop workload per sweep path,
// selected with --workload; --trace 0 prints the end-to-end metrics, --trace
// 1 runs the separate traced run that prints the per-layer metrics and
// writes its spans as Chrome trace-event JSON. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   vmbench --workload grid_batch|stream_ckpt|sharded_2w|single_plan
//           --seed N --seconds S --trace 0|1 --workdir DIR
//           [--trace-out FILE] [--git-rev REV] [--src-digest HEX]
//   vmbench --selftest --workdir DIR
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <span>
#include <string>

#include "bench.hpp"

namespace vmbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload prints every metric of the list its mode selects. A layer
// a workload never enters reads 0 there (fs.* on the in-memory workloads,
// for example); see README.md for which workload moves which metric.
constexpr MetricSpec kEndToEnd[] = {
    {"plans_per_s", "1/s"},    {"setup_s", "s"},
    {"latency_p50_us", "us"},  {"peak_rss_mb", "MB"},
    {"cpu_us_per_plan", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"planner.inputs_ms", "ms"},
    {"planner.plan_overhead_us", "us"},
    {"model.solve_us_p50", "us"},
    {"model.solve_us_p99", "us"},
    {"queueing.erlang_steps", "count"},
    {"queueing.memo_hit_ratio", "ratio"},
    {"queueing.snapshot_hits", "count"},
    {"queueing.arena_extensions", "count"},
    {"queueing.merges", "count"},
    {"batch_eval.staff_dedicated_ms", "ms"},
    {"batch_eval.staff_consolidated_ms", "ms"},
    {"batch_eval.staff_fleet_ms", "ms"},
    {"batch_eval.derive_utility_ms", "ms"},
    {"batch_eval.derive_power_ms", "ms"},
    {"batch_eval.overhead_ms", "ms"},
    {"batch_eval.pool_speedup", "ratio"},
    {"batch_eval.lock_wait_ms", "ms"},
    {"batch_eval.shard_evaluate_ms_p50", "ms"},
    {"batch_eval.shard_evaluate_ms_p99", "ms"},
    {"scenario_store.write_ms", "ms"},
    {"scenario_store.write_mb_per_s", "MB/s"},
    {"scenario_store.open_ms", "ms"},
    {"scenario_store.read_shard_ms_p50", "ms"},
    {"scenario_store.read_shard_ms_p99", "ms"},
    {"scenario_store.bytes_per_plan", "B"},
    {"streaming_sweep.shard_cycle_ms_p50", "ms"},
    {"streaming_sweep.shard_cycle_ms_p99", "ms"},
    {"streaming_sweep.checkpoint_ms_per_shard", "ms"},
    {"sharded_sweep.shard_cycle_ms_p50", "ms"},
    {"sharded_sweep.shard_cycle_ms_p99", "ms"},
    {"sharded_sweep.worker_busy_ratio", "ratio"},
    {"sharded_sweep.merge_ms", "ms"},
    {"sharded_sweep.spawn_ms", "ms"},
    {"sharded_sweep.claim_conflicts_per_shard", "count"},
    {"sharded_sweep.duplicate_eval_ratio", "ratio"},
    {"sharded_sweep.leases_reclaimed", "count"},
    {"fs.fsyncs_per_shard", "count"},
    {"fs.commits_per_shard", "count"},
    {"fs.bytes_written_per_plan", "B"},
    {"fs.eio_retries", "count"},
    {"run.disk_bytes_per_plan", "B"},
    {"trace.overhead_pct", "%"},
    {"trace.unaccounted_pct", "%"},
};

/// Layer spans must cover all but this share of each traced request.
constexpr double kUnaccountedTolerancePct = 5.0;

std::string number(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

/// Prints the header, the metrics of the selected list (in list order,
/// zero for layers the workload never entered) and the JSON result line.
/// Throws if the workload produced a metric outside the list.
void report(const RunResult& result, std::span<const MetricSpec> specs,
            bool per_layer) {
  std::map<std::string, Metric> produced;
  for (const Metric& metric : result.metrics) {
    produced[metric.name] = metric;
  }
  for (const auto& [name, metric] : produced) {
    bool known = false;
    for (const MetricSpec& spec : specs) {
      known = known || (name == spec.name && metric.unit == spec.unit);
    }
    if (!known) {
      throw std::logic_error("unlisted metric or unit: " + name + " [" +
                             metric.unit + "]");
    }
  }
  for (const std::string& line : result.notes) {
    std::cout << "# " << line << "\n";
  }
  std::string json = "{\"correct\": " + std::string(result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto it = produced.find(specs[i].name);
    const double value = it == produced.end() ? 0.0 : it->second.value;
    std::cout << specs[i].name << " = " << number(value) << " "
              << specs[i].unit << "\n";
    json += std::string(i == 0 ? "" : ", ") + "\"" + specs[i].name +
            "\": {\"value\": " + number(value) + ", \"unit\": \"" +
            specs[i].unit + "\"}";
  }
  json += "}}";
  const double ratio =
      result.attempted == 0
          ? 0.0
          : static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::cout << "failed_ratio = " << number(ratio) << " (" << result.failed
            << " failed of " << result.attempted
            << " scenarios attempted, verification included)\n";
  if (per_layer) {
    const auto it = produced.find("trace.unaccounted_pct");
    const double unaccounted = it == produced.end() ? 0.0 : it->second.value;
    std::cout << "# unaccounted tolerance " << kUnaccountedTolerancePct
              << "%: "
              << (unaccounted <= kUnaccountedTolerancePct ? "within"
                                                          : "EXCEEDED")
              << "\n";
  }
  std::cout << json << std::endl;
}

int usage(const std::string& why) {
  std::cerr << "vmbench: " << why
            << "\nusage: vmbench --workload W --seed N --seconds S --trace "
               "0|1 --workdir DIR [--trace-out FILE] [--git-rev REV] "
               "[--src-digest HEX]\n       vmbench --selftest --workdir DIR\n";
  return 2;
}

int run(int argc, char** argv) {
  Config config;
  bool selftest_mode = false;
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest_mode = true;
    } else if (arg.rfind("--", 0) == 0 && i + 1 < argc) {
      flags[arg.substr(2)] = argv[++i];
    } else {
      return usage("unexpected argument '" + arg + "'");
    }
  }
  const auto take = [&flags](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    std::string value = it == flags.end() ? fallback : it->second;
    if (it != flags.end()) {
      flags.erase(it);
    }
    return value;
  };
  config.workload = take("workload", "");
  config.seed = std::strtoull(take("seed", "1").c_str(), nullptr, 10);
  config.seconds = std::strtod(take("seconds", "10").c_str(), nullptr);
  config.trace = take("trace", "0") == "1";
  config.workdir = take("workdir", "");
  config.trace_out = take("trace-out", config.workdir + "/trace.json");
  config.git_rev = take("git-rev", "unknown");
  config.src_digest = take("src-digest", "unknown");
  if (!flags.empty()) {
    return usage("unknown flag --" + flags.begin()->first);
  }
  if (config.workdir.empty() || !std::filesystem::is_directory(config.workdir)) {
    return usage("--workdir must name an existing directory");
  }
  if (selftest_mode) {
    const int failures = selftest(config.workdir);
    std::cout << (failures == 0 ? "selftest: ok" : "selftest: FAILED") << "\n";
    return failures == 0 ? 0 : 1;
  }
  if (!(config.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }

  RunResult result;
  if (config.workload == "grid_batch") {
    result = run_grid_batch(config);
  } else if (config.workload == "stream_ckpt") {
    result = run_stream_ckpt(config);
  } else if (config.workload == "sharded_2w") {
    result = run_sharded_2w(config);
  } else if (config.workload == "single_plan") {
    result = run_single_plan(config);
  } else {
    return usage("unknown workload '" + config.workload + "'");
  }
  if (config.trace) {
    report(result, kPerLayer, true);
  } else {
    report(result, kEndToEnd, false);
  }
  return result.correct ? 0 : 1;
}

}  // namespace

int selftest(const std::string& workdir) {
  int failures = 0;
  const auto check = [&failures](bool ok, const std::string& what) {
    std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
    failures += ok ? 0 : 1;
  };

  const GridShape shape{3, 2, 8, 2, 5.0, 200.0};
  check(make_grid(shape, 7).digest == make_grid(shape, 7).digest,
        "grid: same seed, same inputs");
  check(make_grid(shape, 7).digest != make_grid(shape, 8).digest,
        "grid: different seed, different inputs");

  const PlanDigests plan_a = small_plan_digests(64, 7);
  const PlanDigests plan_b = small_plan_digests(64, 7);
  const PlanDigests plan_c = small_plan_digests(64, 8);
  check(plan_a.inputs == plan_b.inputs && plan_a.plans == plan_b.plans,
        "single_plan: same seed, identical input and result digests");
  check(plan_a.inputs != plan_c.inputs,
        "single_plan: different seed, different inputs");

  const StoreDigests store_a = small_store_digests(shape, 7, 16, workdir);
  const StoreDigests store_b = small_store_digests(shape, 7, 16, workdir);
  const StoreDigests store_c = small_store_digests(shape, 8, 16, workdir);
  check(store_a.store_checksum == store_b.store_checksum &&
            store_a.shards == store_b.shards && !store_a.shards.empty(),
        "store: same seed, identical store checksum and shard digests");
  check(store_a.store_checksum != store_c.store_checksum,
        "store: different seed, different store");

  std::vector<std::uint64_t> corrupted = store_a.shards;
  corrupted[corrupted.size() / 2] ^= 1;
  check(digest_mismatches(corrupted, store_a.shards) == 1,
        "a digest with one flipped bit is caught");
  corrupted.pop_back();
  check(digest_mismatches(corrupted, store_a.shards) >= 1,
        "a missing shard digest is caught");
  std::vector<std::uint64_t> plans = plan_a.plans;
  plans.front() ^= 1ULL << 63;
  check(digest_mismatches(plans, plan_a.plans) == 1,
        "a corrupted plan digest is caught");
  return failures;
}

}  // namespace vmbench

int main(int argc, char** argv) {
  try {
    return vmbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "vmbench: " << error.what() << "\n";
    return 2;
  }
}
