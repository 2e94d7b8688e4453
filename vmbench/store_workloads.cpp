// Durable workloads over a ScenarioStore: stream_ckpt (one checkpointed
// StreamingSweep per request) and sharded_2w (two forked ShardedSweepDriver
// workers plus a merge per request).
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include <sys/wait.h>
#include <unistd.h>

#include "bench.hpp"
#include "core/scenario_store.hpp"
#include "core/sharded_sweep.hpp"
#include "core/streaming_sweep.hpp"
#include "queueing/erlang_kernel.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace vmbench {

using namespace vmcons;
namespace stdfs = std::filesystem;

namespace {

// stream_ckpt: 8 x 4 x 1000 x 8 = 256000 scenarios in 8192-scenario shards,
// at most ~2000 dedicated servers per scenario (1000 per service).
constexpr GridShape kStreamShape{8, 4, 1000, 8, 10.0, 1000.0};
constexpr std::size_t kStreamShard = 8192;
// sharded_2w: the same generator at 8 x 2 x 250 x 8 = 32000 scenarios in
// 2048-scenario shards (16 shards, 8 per worker). Shards this size keep the
// Erlang work per shard above the claim/commit/fsync work: at 64-scenario
// shards the run-to-run spread on a shared ext4 volume was 50-90%, far
// beyond any usable bound (see README.md).
constexpr GridShape kShardedShape{8, 2, 250, 8, 10.0, 1000.0};
constexpr std::size_t kShardedShard = 2048;
constexpr std::size_t kWorkers = 2;
constexpr int kStreamSetupReps = 3;
constexpr int kShardedSetupReps = 3;
constexpr std::size_t kSpanCapacity = 400000;
constexpr std::size_t kMinRequests = 3;

std::uint64_t counter(const char* name) {
  return metrics::registry().counter(name).value();
}

struct StoreSetup {
  std::string path;
  std::unique_ptr<core::ScenarioStore> store;
  std::uint64_t grid_digest = 0;
  double inputs_ms = 0.0;  ///< point_inputs + append probe (traced runs)
  double write_ms = 0.0;
  double open_ms = 0.0;
};

/// Builds the planner and grid, writes the store `<workdir>/<name>-<rep>.bin`
/// and opens it; repeated `reps` times into fresh files (set-up times go to
/// `setup_ms`), keeping the last. A traced run also times the planner's
/// share of the write: point_inputs + ScenarioBatch::append per scenario,
/// shard by shard.
StoreSetup setup_store(const Config& config, const GridShape& shape,
                       std::size_t shard_size, int reps, Tracer& tracer,
                       std::vector<double>& setup_ms,
                       const std::string& name = "store") {
  StoreSetup setup;
  for (int rep = 0; rep < reps; ++rep) {
    if (!setup.path.empty()) {
      setup.store.reset();
      stdfs::remove(setup.path);
    }
    setup.path =
        config.workdir + "/" + name + "-" + std::to_string(rep) + ".bin";
    const int root = tracer.open("setup");
    double t0 = now_ms();
    int span = tracer.open("planner.build");
    const core::ConsolidationPlanner planner = grid_planner();
    const GridInputs inputs = make_grid(shape, config.seed);
    tracer.close(span);
    double elapsed = now_ms() - t0;
    if (tracer.enabled()) {
      span = tracer.open("planner.inputs");
      core::ScenarioBatch batch;
      for (std::size_t i = 0; i < inputs.grid.size(); ++i) {
        if (batch.size() == shard_size) {
          batch = core::ScenarioBatch{};
        }
        batch.append(planner.point_inputs(inputs.grid.point(i)));
      }
      tracer.close(span);
      setup.inputs_ms = tracer.ms(span);
    }
    t0 = now_ms();
    span = tracer.open("scenario_store.write");
    core::write_sweep_store(planner, inputs.grid, setup.path, shard_size);
    tracer.close(span);
    const double t1 = now_ms();
    span = tracer.open("scenario_store.open");
    setup.store = std::make_unique<core::ScenarioStore>(setup.path);
    tracer.close(span);
    const double t2 = now_ms();
    tracer.close(root);
    setup.write_ms = t1 - t0;
    setup.open_ms = t2 - t1;
    setup.grid_digest = inputs.digest;
    setup_ms.push_back(elapsed + (t2 - t0));
  }
  return setup;
}

/// Deletes the store file when the run ends, however it ends.
struct StoreCleanup {
  explicit StoreCleanup(std::string store_path) : path(std::move(store_path)) {}
  ~StoreCleanup() {
    std::error_code ec;
    stdfs::remove(path, ec);
  }
  StoreCleanup(const StoreCleanup&) = delete;
  StoreCleanup& operator=(const StoreCleanup&) = delete;
  std::string path;
};

struct Reference {
  std::vector<std::uint64_t> digests;  ///< per shard
  std::size_t quarantined = 0;
};

/// The independent path: every shard read with read_shard and evaluated by
/// a 1-thread BatchEvaluator with its own fresh kernel.
Reference reference_digests(const core::ScenarioStore& store, ThreadPool& pool,
                            Tracer& tracer) {
  queueing::ErlangKernel kernel;
  core::BatchOptions options;
  options.parallel = false;
  options.kernel = &kernel;
  options.pool = &pool;
  options.policy = core::FailurePolicy::kQuarantine;
  const core::BatchEvaluator evaluator(options);
  Reference reference;
  for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
    const auto id = static_cast<std::int64_t>(shard);
    int span = tracer.open("scenario_store.read_shard", id);
    const core::ScenarioBatch batch = store.read_shard(shard);
    tracer.close(span);
    span = tracer.open("batch_eval.evaluate_all", id);
    const core::BatchOutcome outcome = evaluator.evaluate_all(batch);
    tracer.close(span);
    reference.digests.push_back(
        core::checksum_model_results(outcome.results, outcome.evaluated));
    reference.quarantined += outcome.failures.size();
  }
  return reference;
}

/// Scenarios in the shards whose digests differ.
std::uint64_t mismatched_scenarios(const core::ScenarioStore& store,
                                   std::span<const std::uint64_t> got,
                                   std::span<const std::uint64_t> want) {
  if (digest_mismatches(got, want) == 0) {
    return 0;
  }
  if (got.size() != want.size()) {
    return store.scenario_count();
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    bad += got[i] != want[i] ? store.shard(i).scenarios : 0;
  }
  return bad;
}

void add_store_layers(RunResult& result, const StoreSetup& setup,
                      std::uint64_t store_bytes, double scenarios) {
  result.add("planner.inputs_ms", setup.inputs_ms, "ms");
  result.add("scenario_store.write_ms", setup.write_ms, "ms");
  result.add("scenario_store.write_mb_per_s",
             static_cast<double>(store_bytes) / 1e6 / (setup.write_ms / 1000.0),
             "MB/s");
  result.add("scenario_store.open_ms", setup.open_ms, "ms");
  result.add("scenario_store.bytes_per_plan",
             static_cast<double>(store_bytes) / scenarios, "B");
}

void add_reference_layers(RunResult& result, const Tracer& tracer) {
  const auto read = tracer.durations("scenario_store.read_shard");
  const auto eval = tracer.durations("batch_eval.evaluate_all");
  result.add("scenario_store.read_shard_ms_p50", median(read), "ms");
  result.add("scenario_store.read_shard_ms_p99", percentile(read, 99.0), "ms");
  result.add("batch_eval.shard_evaluate_ms_p50", median(eval), "ms");
  result.add("batch_eval.shard_evaluate_ms_p99", percentile(eval, 99.0), "ms");
}

/// fs.* per-layer metrics: medians of per-request figures.
void add_fs(RunResult& result, const std::vector<double>& fsyncs_per_shard,
            const std::vector<double>& commits_per_shard,
            const std::vector<double>& bytes_written_per_plan,
            const std::vector<double>& eio_retries) {
  result.add("fs.fsyncs_per_shard", median(fsyncs_per_shard), "count");
  result.add("fs.commits_per_shard", median(commits_per_shard), "count");
  result.add("fs.bytes_written_per_plan", median(bytes_written_per_plan), "B");
  result.add("fs.eio_retries", median(eio_retries), "count");
}

// --- stream_ckpt ------------------------------------------------------------

struct SweepRun {
  double ms = 0.0;
  double cpu_ms = 0.0;
  std::vector<double> cycles_ms;  ///< gaps between sink deliveries
  std::vector<std::uint64_t> sink_digests;
  core::StreamingSweepReport report;
  queueing::ErlangKernel::Stats stats;
  std::uint64_t fsyncs = 0, commits = 0, bytes_written = 0, eio_retries = 0;
  std::uint64_t checkpoint_bytes = 0;
};

/// One StreamingSweep::run over `store` with a fresh kernel, checkpointing
/// into a fresh `checkpoint_dir` (empty: no checkpoint). The directory is
/// removed afterwards.
SweepRun stream_once(const core::ScenarioStore& store, ThreadPool& pool,
                     const std::string& checkpoint_dir, Tracer& tracer,
                     const char* name) {
  queueing::ErlangKernel kernel;
  core::StreamingSweepOptions options;
  options.batch.parallel = false;
  options.batch.kernel = &kernel;
  options.batch.pool = &pool;
  options.batch.policy = core::FailurePolicy::kQuarantine;
  options.resume = false;
  if (!checkpoint_dir.empty()) {
    stdfs::create_directories(checkpoint_dir);
    options.checkpoint_path = checkpoint_dir + "/manifest.csv";
  }
  SweepRun run;
  run.sink_digests.reserve(store.shard_count());
  std::vector<double> stamps;
  stamps.reserve(store.shard_count());
  const std::uint64_t fsyncs = counter(metrics::names::kFsFsyncs);
  const std::uint64_t commits = counter(metrics::names::kFsCommits);
  const std::uint64_t written = counter(metrics::names::kFsBytesWritten);
  const std::uint64_t eio = counter(metrics::names::kFsEioRetries);

  const int span = tracer.open(name);
  const double c0 = cpu_ms();
  const double t0 = now_ms();
  run.report = core::StreamingSweep(options).run(
      store, [&](core::ShardOutcome&& shard) {
        stamps.push_back(now_ms());
        run.sink_digests.push_back(shard.result_checksum);
      });
  run.ms = now_ms() - t0;
  run.cpu_ms = cpu_ms() - c0;
  tracer.close(span);

  double previous = t0;
  for (std::size_t i = 0; i < stamps.size(); ++i) {
    run.cycles_ms.push_back(stamps[i] - previous);
    if (span >= 0) {
      tracer.add("streaming_sweep.shard", previous, stamps[i], span,
                 static_cast<std::int64_t>(i), ::getpid());
    }
    previous = stamps[i];
  }
  run.stats = kernel.stats();
  run.fsyncs = counter(metrics::names::kFsFsyncs) - fsyncs;
  run.commits = counter(metrics::names::kFsCommits) - commits;
  run.bytes_written = counter(metrics::names::kFsBytesWritten) - written;
  run.eio_retries = counter(metrics::names::kFsEioRetries) - eio;
  if (!checkpoint_dir.empty()) {
    run.checkpoint_bytes = disk_bytes(checkpoint_dir);
    stdfs::remove_all(checkpoint_dir);
  }
  return run;
}

void verify_sweep(RunResult& result, const core::ScenarioStore& store,
                  const SweepRun& run, const Reference& reference) {
  result.attempted += store.scenario_count();
  if (!run.report.complete() || !run.report.failures.empty()) {
    result.fail(run.report.failures.empty() ? store.scenario_count()
                                            : run.report.failures.size(),
                "streamed sweep incomplete or quarantined cells");
  }
  const std::uint64_t bad =
      std::max(mismatched_scenarios(store, run.report.shard_checksums,
                                    reference.digests),
               mismatched_scenarios(store, run.sink_digests,
                                    reference.digests));
  if (bad > 0) {
    result.fail(bad, "streamed shard digests differ from the fresh-kernel "
                     "read_shard -> evaluate_all reference");
  }
}

// --- sharded_2w ---------------------------------------------------------------

struct WorkerTimeline {
  long pid = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
  std::vector<std::pair<double, std::int64_t>> claims;  ///< on_claimed stamps
};

/// Body of one forked worker: a fresh registry and kernel, the store opened
/// the way a separate worker process opens it, run_worker, the metrics file,
/// then its timeline for the parent. Never returns.
[[noreturn]] void worker_main(const std::string& store_path,
                              const std::string& ledger,
                              const std::string& timeline_path,
                              const std::string& worker_id, ThreadPool& pool) {
  const double start = now_ms();
  int code = 0;
  try {
    metrics::registry().reset();
    queueing::ErlangKernel kernel;
    std::vector<double> claims;
    claims.reserve(4096);
    core::ShardedSweepOptions options;
    options.batch.parallel = false;
    options.batch.kernel = &kernel;
    options.batch.pool = &pool;
    options.batch.policy = core::FailurePolicy::kQuarantine;
    options.ledger_dir = ledger;
    options.worker_id = worker_id;
    options.lease = std::chrono::seconds(60);
    options.poll = std::chrono::milliseconds(2);
    options.on_claimed = [&claims](std::size_t shard) {
      claims.push_back(now_ms());
      claims.push_back(static_cast<double>(shard));
    };
    const core::ScenarioStore store(store_path);
    const core::ShardedSweepDriver driver(options);
    driver.run_worker(store);
    const double end = now_ms();
    driver.write_worker_metrics();
    std::vector<double> record = {static_cast<double>(::getpid()), start, end};
    record.insert(record.end(), claims.begin(), claims.end());
    std::ofstream out(timeline_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(record.data()),
              static_cast<std::streamsize>(record.size() * sizeof(double)));
    out.close();
    code = out ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "worker %s: %s\n", worker_id.c_str(), error.what());
    code = 1;
  }
  ::_exit(code);
}

WorkerTimeline read_timeline(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<double> record;
  double value = 0.0;
  while (in.read(reinterpret_cast<char*>(&value), sizeof value)) {
    record.push_back(value);
  }
  WorkerTimeline timeline;
  if (record.size() < 3) {
    return timeline;
  }
  timeline.pid = static_cast<long>(record[0]);
  timeline.start_ms = record[1];
  timeline.end_ms = record[2];
  for (std::size_t i = 3; i + 1 < record.size(); i += 2) {
    timeline.claims.emplace_back(record[i],
                                 static_cast<std::int64_t>(record[i + 1]));
  }
  return timeline;
}

struct FleetRun {
  double ms = 0.0;  ///< fork until the merge is verified
  double cpu_ms = 0.0;  ///< workers, merge and verification
  double merge_ms = 0.0;
  int failed_workers = 0;
  std::string merge_error;
  core::MergedSweep merged;
  std::uint64_t mismatched = 0;
  std::uint64_t ledger_bytes = 0;
  std::vector<double> cycles_ms;  ///< on_claimed -> next on_claimed
  std::vector<double> spawn_ms;   ///< fork() call -> worker's first stamp
  double busy_ms = 0.0;           ///< first to last claim, summed
  double lifetime_ms = 0.0;       ///< worker start to end, summed
};

double worker_metric(const core::MergedSweep& merged, const std::string& name) {
  for (const auto& [key, value] : merged.worker_metrics) {
    if (key == name) {
      return value;
    }
  }
  return 0.0;
}

FleetRun fleet_once(const Config& config, const StoreSetup& setup,
                    ThreadPool& pool, const Reference& reference,
                    Tracer& tracer, std::size_t id) {
  const std::string ledger =
      config.workdir + "/ledger-" + std::to_string(id);
  const std::string timelines =
      config.workdir + "/timeline-" + std::to_string(id);
  stdfs::create_directories(timelines);
  FleetRun run;
  std::fflush(nullptr);  // nothing buffered may be duplicated into a child

  const double c0 = cpu_ms();
  const double t0 = now_ms();
  const int root = tracer.open("request", static_cast<std::int64_t>(id));
  const int fleet_span = tracer.open("sharded_sweep.fleet");
  std::vector<::pid_t> children;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const ::pid_t pid = ::fork();
    if (pid == 0) {
      worker_main(setup.path, ledger,
                  timelines + "/w" + std::to_string(w) + ".bin",
                  "w" + std::to_string(w), pool);
    }
    if (pid < 0) {
      ++run.failed_workers;
      continue;
    }
    children.push_back(pid);
  }
  for (const ::pid_t pid : children) {
    int status = 0;
    if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      ++run.failed_workers;
    }
  }
  tracer.close(fleet_span);

  core::ShardedSweepOptions merge_options;
  merge_options.batch.parallel = false;
  merge_options.batch.pool = &pool;
  merge_options.ledger_dir = ledger;
  merge_options.worker_id = "merger";
  const int merge_span = tracer.open("sharded_sweep.merge");
  const double m0 = now_ms();
  try {
    run.merged = core::ShardedSweepDriver(merge_options).merge(*setup.store);
  } catch (const Error& error) {
    run.merge_error = error.what();
  }
  run.merge_ms = now_ms() - m0;
  tracer.close(merge_span);
  const int verify_span = tracer.open("sharded_sweep.verify");
  if (run.merge_error.empty()) {
    run.mismatched = mismatched_scenarios(
        *setup.store, run.merged.report.shard_checksums, reference.digests);
  }
  tracer.close(verify_span);
  tracer.close(root);
  run.ms = now_ms() - t0;
  run.cpu_ms = cpu_ms() - c0;

  // Off the clock: worker timelines, ledger size, clean-up.
  for (std::size_t w = 0; w < kWorkers; ++w) {
    const WorkerTimeline timeline =
        read_timeline(timelines + "/w" + std::to_string(w) + ".bin");
    if (timeline.claims.empty()) {
      continue;
    }
    run.spawn_ms.push_back(timeline.start_ms - t0);
    run.lifetime_ms += timeline.end_ms - timeline.start_ms;
    run.busy_ms += timeline.claims.back().first - timeline.claims.front().first;
    tracer.add("sharded_sweep.spawn", t0, timeline.start_ms, fleet_span, -1,
               timeline.pid);
    const int worker_span =
        tracer.add("sharded_sweep.worker", timeline.start_ms, timeline.end_ms,
                   fleet_span, static_cast<std::int64_t>(w), timeline.pid);
    for (std::size_t c = 0; c + 1 < timeline.claims.size(); ++c) {
      const auto& [stamp, shard] = timeline.claims[c];
      run.cycles_ms.push_back(timeline.claims[c + 1].first - stamp);
      tracer.add("sharded_sweep.shard", stamp, timeline.claims[c + 1].first,
                 worker_span, shard, timeline.pid);
    }
  }
  run.ledger_bytes = disk_bytes(ledger);
  stdfs::remove_all(ledger);
  stdfs::remove_all(timelines);
  return run;
}

void verify_fleet(RunResult& result, const core::ScenarioStore& store,
                  const FleetRun& run) {
  const std::uint64_t scenarios = store.scenario_count();
  result.attempted += scenarios;
  if (run.failed_workers > 0) {
    result.fail(scenarios, std::to_string(run.failed_workers) +
                               " worker(s) exited non-zero");
    return;
  }
  if (!run.merge_error.empty()) {
    result.fail(scenarios, "merge refused: " + run.merge_error);
    return;
  }
  if (run.mismatched > 0) {
    result.fail(run.mismatched, "merged shard digests differ from the "
                                "fresh-kernel read_shard -> evaluate_all "
                                "reference");
  }
  if (!run.merged.report.failures.empty()) {
    result.fail(run.merged.report.failures.size(), "quarantined cells");
  }
  const double reclaimed =
      worker_metric(run.merged, metrics::names::kDriverLeasesReclaimed);
  if (reclaimed > 0) {
    result.fail(static_cast<std::uint64_t>(reclaimed) * kShardedShard,
                "leases reclaimed on a healthy fleet");
  }
}

}  // namespace

RunResult run_stream_ckpt(const Config& config) {
  RunResult result;
  environment_notes(config, result);
  Tracer tracer(config.trace, kSpanCapacity);
  ThreadPool pool(1);  // injected so no shared pool starts; never dispatched

  std::vector<double> setup_ms;
  const StoreSetup setup =
      setup_store(config, kStreamShape, kStreamShard,
                  config.trace ? 1 : kStreamSetupReps, tracer, setup_ms);
  const StoreCleanup cleanup{setup.path};
  const core::ScenarioStore& store = *setup.store;
  const double scenarios = static_cast<double>(store.scenario_count());
  const std::uint64_t store_bytes = disk_bytes(setup.path);
  result.note("inputs: " + kStreamShape.describe() + ", " +
              std::to_string(store.shard_count()) + " shards of " +
              std::to_string(kStreamShard) + ", store " +
              std::to_string(store_bytes) + " bytes; 1 thread, fresh "
              "ErlangKernel and checkpoint directory per request; input "
              "digest " + std::to_string(setup.grid_digest));

  tracer.set_enabled(false);
  const Reference reference = reference_digests(store, pool, tracer);
  tracer.set_enabled(config.trace);
  if (reference.quarantined > 0) {
    result.fail(reference.quarantined, "reference quarantined cells");
  }

  std::vector<double> request_ms, request_cpu_ms, cycles_ms, traced_ms,
      untraced_ms;
  std::vector<double> traced_cycles_ms, checkpoint_ms, fsyncs, commits,
      written, eio;
  std::vector<queueing::ErlangKernel::Stats> stats;
  std::uint64_t checkpoint_bytes = 0;
  const double start = now_ms();
  for (std::size_t id = 0;
       request_ms.size() < kMinRequests ||
       (now_ms() - start < config.seconds * 1000.0 && !tracer.full());
       ++id) {
    const std::string dir = config.workdir + "/ckpt-" + std::to_string(id);
    if (!config.trace) {
      const SweepRun run = stream_once(store, pool, dir, tracer, "");
      verify_sweep(result, store, run, reference);
      request_ms.push_back(run.ms);
      request_cpu_ms.push_back(run.cpu_ms);
      cycles_ms.insert(cycles_ms.end(), run.cycles_ms.begin(),
                       run.cycles_ms.end());
      checkpoint_bytes = run.checkpoint_bytes;
      continue;
    }
    // Traced request: the checkpointed sweep, the same sweep without a
    // checkpoint (their difference is the checkpoint's cost), and the
    // independent read_shard -> evaluate_all pass that verifies both.
    tracer.set_enabled(id % 2 == 0);
    const double t0 = now_ms();
    const int root = tracer.open("request", static_cast<std::int64_t>(id));
    const SweepRun run =
        stream_once(store, pool, dir, tracer, "streaming_sweep.run");
    const SweepRun plain =
        stream_once(store, pool, "", tracer, "streaming_sweep.run_nockpt");
    const int span = tracer.open("reference");
    const Reference check = reference_digests(store, pool, tracer);
    tracer.close(span);
    tracer.close(root);
    const double wall = now_ms() - t0;
    verify_sweep(result, store, run, reference);
    verify_sweep(result, store, plain, reference);
    const std::uint64_t bad =
        mismatched_scenarios(store, check.digests, reference.digests);
    if (bad > 0) {
      result.fail(bad, "reference pass is not repeatable");
    }
    request_ms.push_back(wall);
    if (!tracer.enabled()) {
      untraced_ms.push_back(wall);
      continue;
    }
    traced_ms.push_back(wall);
    const double shards = static_cast<double>(store.shard_count());
    traced_cycles_ms.insert(traced_cycles_ms.end(), run.cycles_ms.begin(),
                            run.cycles_ms.end());
    checkpoint_ms.push_back((run.ms - plain.ms) / shards);
    fsyncs.push_back(static_cast<double>(run.fsyncs) / shards);
    commits.push_back(static_cast<double>(run.commits) / shards);
    written.push_back(static_cast<double>(run.bytes_written) / scenarios);
    eio.push_back(static_cast<double>(run.eio_retries));
    stats.push_back(run.stats);
    checkpoint_bytes = run.checkpoint_bytes;
  }
  const double disk_per_plan =
      static_cast<double>(store_bytes + checkpoint_bytes) / scenarios;

  if (!config.trace) {
    add_end_to_end(result, scenarios, request_ms, request_cpu_ms, setup_ms,
                   "one shard (gap between sink deliveries)", to_us(cycles_ms));
    result.note("disk_bytes_per_plan: " + std::to_string(disk_per_plan) +
                " (store + checkpoint manifest)");
    return result;
  }

  add_store_layers(result, setup, store_bytes, scenarios);
  add_reference_layers(result, tracer);
  add_queueing(result, stats);
  result.add("streaming_sweep.shard_cycle_ms_p50", median(traced_cycles_ms), "ms");
  result.add("streaming_sweep.shard_cycle_ms_p99",
             percentile(traced_cycles_ms, 99.0), "ms");
  result.add("streaming_sweep.checkpoint_ms_per_shard", median(checkpoint_ms),
             "ms");
  add_fs(result, fsyncs, commits, written, eio);
  result.add("run.disk_bytes_per_plan", disk_per_plan, "B");
  tracer.finish(result, traced_ms, untraced_ms, config.trace_out);
  return result;
}

RunResult run_sharded_2w(const Config& config) {
  RunResult result;
  environment_notes(config, result);
  Tracer tracer(config.trace, kSpanCapacity);
  ThreadPool pool(1);  // injected so no shared pool starts; never dispatched

  std::vector<double> setup_ms;
  const StoreSetup setup =
      setup_store(config, kShardedShape, kShardedShard,
                  config.trace ? 1 : kShardedSetupReps, tracer, setup_ms);
  const StoreCleanup cleanup{setup.path};
  const core::ScenarioStore& store = *setup.store;
  const double scenarios = static_cast<double>(store.scenario_count());
  const double shards = static_cast<double>(store.shard_count());
  const std::uint64_t store_bytes = disk_bytes(setup.path);
  result.note("inputs: " + kShardedShape.describe() + ", " +
              std::to_string(store.shard_count()) + " shards of " +
              std::to_string(kShardedShard) + ", store " +
              std::to_string(store_bytes) + " bytes; " +
              std::to_string(kWorkers) + " forked workers with fresh "
              "ErlangKernels and a fresh ledger per request; input digest " +
              std::to_string(setup.grid_digest));

  const int reference_span = tracer.open("reference");
  const Reference reference = reference_digests(store, pool, tracer);
  tracer.close(reference_span);
  if (reference.quarantined > 0) {
    result.fail(reference.quarantined, "reference quarantined cells");
  }

  std::vector<double> request_ms, request_cpu_ms, cycles_ms, traced_ms,
      untraced_ms;
  std::vector<double> merge_ms, spawn_ms, busy, conflicts, duplicates,
      reclaimed, fsyncs, commits, written, eio;
  std::vector<queueing::ErlangKernel::Stats> stats;
  std::uint64_t ledger_bytes = 0;
  const double start = now_ms();
  for (std::size_t id = 0;
       request_ms.size() < kMinRequests ||
       (now_ms() - start < config.seconds * 1000.0 && !tracer.full());
       ++id) {
    if (config.trace) {
      tracer.set_enabled(id % 2 == 0);
    } else if (id > 0) {
      // One more set-up sample per request, written to a throwaway store:
      // the samples then span the run's disk states instead of one burst.
      const StoreSetup probe = setup_store(config, kShardedShape, kShardedShard,
                                           1, tracer, setup_ms, "probe");
      const StoreCleanup probe_cleanup(probe.path);
    }
    const FleetRun run = fleet_once(config, setup, pool, reference, tracer, id);
    verify_fleet(result, store, run);
    request_ms.push_back(run.ms);
    request_cpu_ms.push_back(run.cpu_ms);
    ledger_bytes = run.ledger_bytes;
    if (!config.trace) {
      cycles_ms.insert(cycles_ms.end(), run.cycles_ms.begin(),
                       run.cycles_ms.end());
      continue;
    }
    if (!tracer.enabled()) {
      untraced_ms.push_back(run.ms);
      continue;
    }
    traced_ms.push_back(run.ms);
    cycles_ms.insert(cycles_ms.end(), run.cycles_ms.begin(),
                     run.cycles_ms.end());
    merge_ms.push_back(run.merge_ms);
    spawn_ms.insert(spawn_ms.end(), run.spawn_ms.begin(), run.spawn_ms.end());
    busy.push_back(run.busy_ms / run.lifetime_ms);
    const auto metric = [&run](const char* name) {
      return worker_metric(run.merged, name);
    };
    conflicts.push_back(metric(metrics::names::kDriverClaimConflicts) / shards);
    duplicates.push_back(metric(metrics::names::kDriverShardsEvaluated) / shards);
    reclaimed.push_back(metric(metrics::names::kDriverLeasesReclaimed));
    fsyncs.push_back(metric(metrics::names::kFsFsyncs) / shards);
    commits.push_back(metric(metrics::names::kFsCommits) / shards);
    written.push_back(metric(metrics::names::kFsBytesWritten) / scenarios);
    eio.push_back(metric(metrics::names::kFsEioRetries));
    const auto count = [&metric](const char* name) {
      return static_cast<std::uint64_t>(metric(name));
    };
    queueing::ErlangKernel::Stats summed;
    summed.evaluations = count(metrics::names::kErlangEvaluations);
    summed.cache_hits = count(metrics::names::kErlangCacheHits);
    summed.steps = count(metrics::names::kErlangSteps);
    summed.snapshot_hits = count(metrics::names::kErlangSnapshotHits);
    summed.arena_extensions = count(metrics::names::kErlangArenaExtensions);
    summed.merges = count(metrics::names::kErlangMerges);
    stats.push_back(summed);
  }
  const double disk_per_plan =
      static_cast<double>(store_bytes + ledger_bytes) / scenarios;

  if (!config.trace) {
    add_end_to_end(result, scenarios, request_ms, request_cpu_ms, setup_ms,
                   "one shard in one worker (on_claimed to the next "
                   "on_claimed)",
                   to_us(cycles_ms));
    result.note("disk_bytes_per_plan: " + std::to_string(disk_per_plan) +
                " (store + claim ledger)");
    return result;
  }

  add_store_layers(result, setup, store_bytes, scenarios);
  add_reference_layers(result, tracer);
  add_queueing(result, stats);
  result.add("sharded_sweep.shard_cycle_ms_p50", median(cycles_ms), "ms");
  result.add("sharded_sweep.shard_cycle_ms_p99", percentile(cycles_ms, 99.0),
             "ms");
  result.add("sharded_sweep.worker_busy_ratio", median(busy), "ratio");
  result.add("sharded_sweep.merge_ms", median(merge_ms), "ms");
  result.add("sharded_sweep.spawn_ms", median(spawn_ms), "ms");
  result.add("sharded_sweep.claim_conflicts_per_shard", median(conflicts),
             "count");
  result.add("sharded_sweep.duplicate_eval_ratio", median(duplicates), "ratio");
  result.add("sharded_sweep.leases_reclaimed", median(reclaimed), "count");
  add_fs(result, fsyncs, commits, written, eio);
  result.add("run.disk_bytes_per_plan", disk_per_plan, "B");
  tracer.finish(result, traced_ms, untraced_ms, config.trace_out);
  return result;
}

StoreDigests small_store_digests(const GridShape& shape, std::uint64_t seed,
                                 std::size_t shard_size,
                                 const std::string& dir) {
  Config config;
  config.seed = seed;
  config.workdir = dir;
  Tracer tracer(false, 0);
  std::vector<double> setup_ms;
  ThreadPool pool(1);
  const StoreSetup setup =
      setup_store(config, shape, shard_size, 1, tracer, setup_ms);
  StoreDigests digests;
  digests.store_checksum = setup.store->checksum();
  digests.shards = reference_digests(*setup.store, pool, tracer).digests;
  stdfs::remove(setup.path);
  return digests;
}

}  // namespace vmbench
