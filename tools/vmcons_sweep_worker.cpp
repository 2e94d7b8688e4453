// vmcons_sweep_worker: the multi-process face of ShardedSweepDriver.
//
// One binary, four modes:
//
//   --mode worker   claim + evaluate shards of --store through the claim
//                   ledger at --ledger until every shard is committed, then
//                   write this worker's metrics file. The unit a scheduler
//                   (or `--mode run`) launches once per core.
//   --mode merge    fold every committed result file, in shard order, into
//                   one report; print it (add --json for the summed worker
//                   metrics as JSON). Fails loudly on missing, corrupt, or
//                   wrong-store result files.
//   --mode run      fork --workers N worker children over one store, wait
//                   for them, then merge. The parent stays single-threaded
//                   until every fork has happened (workers force
//                   batch.parallel = false), so forking is safe.
//   --mode selftest end-to-end smoke for scripts/tier1.sh: build a small
//                   store in a temp dir, run it through `--mode run`
//                   in-process, and require the merged report to be
//                   bit-identical to a 1-process StreamingSweep. With
//                   --kill-one, a first worker runs alone and _exits on its
//                   second claim (it must exit 137); the fleet starts only
//                   after that death, and one of its workers must reclaim
//                   at least one of the dead worker's leases.
//
// Crash drill: `--kill-on-shard K` makes a worker _exit(137) immediately
// after its claim on shard K becomes durable — exactly the kill -9 window
// the lease protocol exists for. The worker's previous shard may still be
// committing then, so the kill can leave two claims and a commit temporary
// behind. A peer (or a relaunched worker) detects the dead pid and
// reclaims what was not committed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/planner.hpp"
#include "core/report.hpp"
#include "core/scenario_store.hpp"
#include "core/sharded_sweep.hpp"
#include "core/streaming_sweep.hpp"
#include "core/sweep.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "virt/impact.hpp"

namespace {

using namespace vmcons;
using core::MergedSweep;
using core::ScenarioStore;
using core::ShardedSweepDriver;
using core::ShardedSweepOptions;
using core::WorkerReport;

struct Args {
  std::string mode;
  std::string store;
  std::string ledger;
  std::string worker_id;
  int workers = 2;
  long lease_ms = 30000;
  long poll_ms = 25;
  long kill_on_shard = -1;  ///< worker: _exit(137) after claiming this shard
  int kill_worker = -1;     ///< run/selftest: which child gets kill_on_shard
  bool kill_one = false;    ///< selftest: kill worker 0 on its second claim
  bool lease_only = false;  ///< host-portable staleness: no dead-pid probe
  bool json = false;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " --mode worker|merge|run|selftest\n"
      << "  --store PATH     scenario store file (worker/merge/run)\n"
      << "  --ledger DIR     claim ledger directory (worker/merge/run)\n"
      << "  --worker-id ID   stable worker name (default w<pid>)\n"
      << "  --workers N      child processes for run/selftest (default 2)\n"
      << "  --lease-ms N     claim lease in ms (default 30000)\n"
      << "  --poll-ms N      idle poll in ms (default 25)\n"
      << "  --kill-on-shard K  _exit(137) after claiming shard K (worker),\n"
      << "                     or in child --kill-worker (run/selftest)\n"
      << "  --kill-worker I  which child of --mode run gets the kill\n"
      << "  --kill-one       selftest: kill one worker on its second claim\n"
      << "  --lease-only     reclaim strictly by lease expiry (disable the\n"
      << "                   same-host dead-pid fast path; the mode for\n"
      << "                   ledgers on shared filesystems)\n"
      << "  --json           machine-readable metrics output\n";
  return 2;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  // Fleet width defaults to VMCONS_WORKERS (the knob CI and wrapper scripts
  // set once for the machine); --workers still overrides per invocation.
  if (const char* env = std::getenv("VMCONS_WORKERS")) {
    const int workers = std::atoi(env);
    if (workers >= 1) {
      args.workers = workers;
    }
  }
  auto value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* v = nullptr;
    if (flag == "--json") {
      args.json = true;
    } else if (flag == "--kill-one") {
      args.kill_one = true;
    } else if (flag == "--lease-only") {
      args.lease_only = true;
    } else if ((v = value(i)) == nullptr) {
      std::cerr << flag << " needs a value\n";
      return std::nullopt;
    } else if (flag == "--mode") {
      args.mode = v;
    } else if (flag == "--store") {
      args.store = v;
    } else if (flag == "--ledger") {
      args.ledger = v;
    } else if (flag == "--worker-id") {
      args.worker_id = v;
    } else if (flag == "--workers") {
      args.workers = std::atoi(v);
    } else if (flag == "--lease-ms") {
      args.lease_ms = std::atol(v);
    } else if (flag == "--poll-ms") {
      args.poll_ms = std::atol(v);
    } else if (flag == "--kill-on-shard") {
      args.kill_on_shard = std::atol(v);
    } else if (flag == "--kill-worker") {
      args.kill_worker = std::atoi(v);
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return std::nullopt;
    }
  }
  return args;
}

ShardedSweepOptions driver_options(const Args& args) {
  ShardedSweepOptions options;
  // Processes are the parallelism: one worker per core, serial inside. This
  // also keeps the parent fork-safe in --mode run (no threads pre-fork).
  options.batch.parallel = false;
  options.batch.policy = core::FailurePolicy::kQuarantine;
  options.ledger_dir = args.ledger;
  options.worker_id = args.worker_id;
  options.lease = std::chrono::milliseconds(args.lease_ms);
  options.poll = std::chrono::milliseconds(args.poll_ms);
  options.lease_only = args.lease_only;
  if (args.kill_on_shard >= 0) {
    const auto target = static_cast<std::size_t>(args.kill_on_shard);
    options.on_claimed = [target](std::size_t shard) {
      if (shard == target) {
        // Simulated kill -9: no destructors, no release — the claim file
        // stays behind with our (about to be dead) pid in it.
        ::_exit(137);
      }
    };
  }
  return options;
}

/// Runs one worker to completion and writes its metrics file; `out`, when
/// given, receives its WorkerReport.
int run_worker(const Args& args, WorkerReport* out = nullptr) {
  const ScenarioStore store(args.store);
  const ShardedSweepDriver driver(driver_options(args));
  const WorkerReport report = driver.run_worker(store);
  driver.write_worker_metrics();
  if (out != nullptr) {
    *out = report;
  }
  if (args.json) {
    core::print_metrics_json(std::cout);
    std::cout << '\n';
  } else {
    std::cout << "worker " << driver.worker_id() << ": evaluated "
              << report.shards_evaluated << " shards ("
              << report.scenarios_evaluated << " scenarios), reclaimed "
              << report.leases_reclaimed << " leases"
              << (report.cancelled ? ", cancelled" : "")
              << (report.deadline_exceeded ? ", deadline exceeded" : "")
              << "\n";
  }
  return report.cancelled || report.deadline_exceeded ? 1 : 0;
}

int run_merge(const Args& args) {
  const ScenarioStore store(args.store);
  const ShardedSweepDriver driver(driver_options(args));
  const MergedSweep merged = driver.merge(store);
  std::cout << "merged " << merged.report.shards_completed << "/"
            << merged.report.shards_total << " shards, "
            << merged.report.scenarios_evaluated << " scenarios, "
            << merged.report.failures.size() << " quarantined, "
            << merged.metrics_files << " worker metrics files\n";
  if (args.json) {
    std::cout << "{\"worker_metrics\": {";
    bool first = true;
    for (const auto& [name, sum] : merged.worker_metrics) {
      std::cout << (first ? "" : ", ") << '"' << name << "\": " << sum;
      first = false;
    }
    std::cout << "}}\n";
  }
  return 0;
}

/// How a forked fleet ended.
struct FleetExit {
  int unexpected = 0;  ///< children that failed other than by the drill
  bool victim_killed = false;  ///< child `kill_worker` exited with 137
  /// WorkerReport::leases_reclaimed summed over the children that finished
  /// their worker loop (each sends its report up a pipe as it exits).
  std::size_t leases_reclaimed = 0;
};

/// Forks `workers` children, each running the worker loop in-process; waits
/// for all of them; reports per-child exits. Child `kill_worker` gets the
/// --kill-on-shard hook (on its *second* claim when kill_on_shard is -1 but
/// kill_worker is set). `unexpected` is -1 when a fork or pipe failed.
FleetExit fork_workers(const Args& args, const std::string& store_path,
                       const std::string& ledger_dir, bool quiet) {
  FleetExit fleet;
  std::vector<::pid_t> children;
  std::vector<int> reports;  // read end of each child's report pipe
  for (int w = 0; w < args.workers; ++w) {
    int report_pipe[2];
    if (::pipe(report_pipe) != 0) {
      std::perror("pipe");
      fleet.unexpected = -1;
      return fleet;
    }
    const ::pid_t pid = ::fork();
    if (pid < 0) {
      std::perror("fork");
      fleet.unexpected = -1;
      return fleet;
    }
    if (pid == 0) {
      ::close(report_pipe[0]);
      Args child = args;
      child.store = store_path;
      child.ledger = ledger_dir;
      child.worker_id = "w" + std::to_string(w);
      child.json = false;
      if (w != args.kill_worker) {
        child.kill_on_shard = -1;
      } else if (child.kill_on_shard < 0) {
        // "kill this worker on whatever it claims second": shard indices
        // say nothing about claim order, so count claims. By the second
        // one the first shard's result commit may still be in flight on
        // the worker's commit thread, so the kill lands with both claims
        // held.
        ShardedSweepOptions options = driver_options(child);
        options.worker_id = child.worker_id;
        options.on_claimed = [claims = 0](std::size_t) mutable {
          if (++claims == 2) {
            ::_exit(137);
          }
        };
        try {
          const ScenarioStore store(child.store);
          const ShardedSweepDriver driver(std::move(options));
          driver.run_worker(store);
          driver.write_worker_metrics();
        } catch (const std::exception& error) {
          std::cerr << "worker " << child.worker_id << ": " << error.what()
                    << "\n";
          ::_exit(1);
        }
        ::_exit(0);
      }
      try {
        WorkerReport report;
        const int rc = run_worker(child, &report);
        const bool sent = ::write(report_pipe[1], &report, sizeof report) ==
                          static_cast<::ssize_t>(sizeof report);
        ::_exit(sent ? rc : 1);
      } catch (const std::exception& error) {
        std::cerr << "worker " << child.worker_id << ": " << error.what()
                  << "\n";
        ::_exit(1);
      }
    }
    ::close(report_pipe[1]);
    children.push_back(pid);
    reports.push_back(report_pipe[0]);
  }

  for (int w = 0; w < static_cast<int>(children.size()); ++w) {
    int status = 0;
    if (::waitpid(children[w], &status, 0) < 0) {
      std::perror("waitpid");
      ++fleet.unexpected;
      continue;
    }
    const bool killed_on_purpose =
        w == args.kill_worker && WIFEXITED(status) &&
        WEXITSTATUS(status) == 137;
    fleet.victim_killed = fleet.victim_killed || killed_on_purpose;
    const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    WorkerReport report;
    if (clean &&
        ::read(reports[w], &report, sizeof report) ==
            static_cast<::ssize_t>(sizeof report)) {
      fleet.leases_reclaimed += report.leases_reclaimed;
    }
    ::close(reports[w]);
    if (!quiet) {
      std::cout << "worker w" << w << ": "
                << (clean ? "ok"
                          : killed_on_purpose ? "killed mid-shard (drill)"
                                              : "FAILED")
                << "\n";
    }
    if (!clean && !killed_on_purpose) {
      ++fleet.unexpected;
    }
  }
  return fleet;
}

int run_fleet(const Args& args) {
  if (args.workers < 1) {
    std::cerr << "--workers must be >= 1\n";
    return 2;
  }
  const int unexpected =
      fork_workers(args, args.store, args.ledger, false).unexpected;
  if (unexpected != 0) {
    std::cerr << unexpected << " workers failed unexpectedly\n";
    return 1;
  }
  if (args.kill_worker >= 0) {
    // The killed worker's shards are still unclaimed or stale-leased; one
    // relaunched worker sweeps up the remainder before the merge.
    Args sweeper = args;
    sweeper.kill_worker = -1;
    sweeper.kill_on_shard = -1;
    sweeper.worker_id = "sweeper";
    sweeper.json = false;
    const int rc = run_worker(sweeper);
    if (rc != 0) {
      return rc;
    }
  }
  return run_merge(args);
}

// --- selftest -------------------------------------------------------------

/// The streaming-sweep test suite's small scenario space: two services,
/// 12 grid points, shard size 2 -> 6 shards.
core::ConsolidationPlanner small_planner() {
  core::ConsolidationPlanner planner;
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

core::SweepGrid small_grid() {
  core::SweepGrid grid;
  grid.target_losses({0.005, 0.01, 0.05})
      .vms_per_server({2, 3})
      .workload_scales({1.0, 1.4});
  return grid;
}

int run_selftest(const Args& args) {
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string base = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/vmcons_sweep_selftest_" +
                           std::to_string(static_cast<long long>(::getpid()));
  const std::string store_path = base + ".store";
  const std::string ledger_dir = base + ".ledger";

  const core::ConsolidationPlanner planner = small_planner();
  core::write_sweep_store(planner, small_grid(), store_path, 2);
  const ScenarioStore store(store_path);

  // Reference: 1-process StreamingSweep, serial, no checkpoint.
  core::StreamingSweepOptions reference_options;
  reference_options.batch.parallel = false;
  reference_options.batch.policy = core::FailurePolicy::kQuarantine;
  const core::StreamingSweep reference(reference_options);
  const core::StreamingSweepReport expected = reference.run(store);

  Args fleet = args;
  fleet.store = store_path;
  fleet.ledger = ledger_dir;
  // Short lease: the drill must reclaim the killed worker's shard quickly.
  fleet.lease_ms = std::min(fleet.lease_ms, 2000L);
  if (args.kill_one) {
    // The victim runs alone, so no peer is alive to take its claims: it
    // dies as its second claim lands, holding that claim uncommitted (and
    // its first, if that shard's commit was still in flight).
    Args victim = fleet;
    victim.workers = 1;
    victim.kill_worker = 0;
    const FleetExit killed = fork_workers(victim, store_path, ledger_dir, true);
    if (killed.unexpected != 0 || !killed.victim_killed) {
      // A victim that never reached its second claim drilled nothing.
      std::cerr << "selftest: worker w0 was not killed on its second claim\n";
      return 1;
    }
  }
  // Every worker of this fleet starts after the victim's death, so under
  // --kill-one the dead worker's leases can only be taken over by them.
  const FleetExit ended = fork_workers(fleet, store_path, ledger_dir, true);
  if (ended.unexpected != 0) {
    std::cerr << "selftest: " << ended.unexpected << " workers failed\n";
    return 1;
  }
  if (args.kill_one && ended.leases_reclaimed == 0) {
    std::cerr << "selftest: no worker started after the kill reclaimed a "
                 "lease of the killed worker\n";
    return 1;
  }

  const ShardedSweepDriver merger(driver_options(fleet));
  const MergedSweep merged = merger.merge(store);

  bool identical =
      merged.report.shards_completed == expected.shards_total &&
      merged.report.scenarios_evaluated == expected.scenarios_evaluated &&
      merged.report.shard_checksums == expected.shard_checksums &&
      merged.report.failures.size() == expected.failures.size();
  if (!identical) {
    std::cerr << "selftest: merged report differs from 1-process streaming "
                 "sweep (shards "
              << merged.report.shards_completed << "/"
              << expected.shards_total << ", scenarios "
              << merged.report.scenarios_evaluated << "/"
              << expected.scenarios_evaluated << ")\n";
    for (std::size_t i = 0; i < expected.shard_checksums.size(); ++i) {
      if (i >= merged.report.shard_checksums.size() ||
          merged.report.shard_checksums[i] != expected.shard_checksums[i]) {
        std::cerr << "  shard " << i << " checksum mismatch\n";
      }
    }
    return 1;
  }

  std::cout << "selftest ok: " << fleet.workers << " workers"
            << (args.lease_only ? " [lease-only staleness]" : "")
            << (args.kill_one
                    ? " after one killed mid-shard (" +
                          std::to_string(ended.leases_reclaimed) +
                          " of its leases reclaimed)"
                    : "")
            << ", " << merged.report.shards_completed
            << " shards merged bit-identical to 1-process streaming sweep\n";

  // Best-effort cleanup; a leftover temp dir is not a test failure.
  std::remove(store_path.c_str());
  std::error_code ec;
  std::filesystem::remove_all(ledger_dir, ec);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args.has_value()) {
    return usage(argv[0]);
  }
  try {
    if (args->mode == "worker") {
      return run_worker(*args);
    }
    if (args->mode == "merge") {
      return run_merge(*args);
    }
    if (args->mode == "run") {
      return run_fleet(*args);
    }
    if (args->mode == "selftest") {
      return run_selftest(*args);
    }
    return usage(argv[0]);
  } catch (const std::exception& error) {
    std::cerr << argv[0] << ": " << error.what() << "\n";
    return 1;
  }
}
