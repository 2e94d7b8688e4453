// ShardedSweepDriver: the claim ledger arbitrates multi-worker sweeps, a
// worker killed while holding a lease is reclaimed by a peer, and the
// merged result is bit-identical to a 1-process StreamingSweep no matter
// the worker count or crash pattern. Plus the satellites that make that
// safe: the manifest PidLockFile (two sweeps on one checkpoint fail fast),
// concurrent positional store reads, and the metrics JSON wire format the
// merger sums worker counters from. The result-file codec is pinned to its
// bytes, and the merge must refuse crafted, truncated and self-contradicting
// result files with a named IoError. The worker overlaps each commit with
// its next shard: at most two claims held, a failed commit surfacing one
// shard later, and an in-flight commit landing when the worker throws.
//
// The kill tests pin their fault seed via VMCONS_FAULT_SEED (scripts/
// tier1.sh sets it) so a red run replays bit-identically.
#include "core/sharded_sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/planner.hpp"
#include "core/scenario_store.hpp"
#include "core/streaming_sweep.hpp"
#include "datacenter/server_class.hpp"
#include "file_bytes.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"
#include "util/file_lock.hpp"
#include "util/fs.hpp"
#include "util/metrics.hpp"
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

/// The streaming suite's small scenario space: 12 points, shard size 2 ->
/// 6 shards, cheap enough to evaluate several times per test.
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

SweepGrid small_grid() {
  SweepGrid grid;
  grid.target_losses({0.005, 0.01, 0.05})
      .vms_per_server({2, 3})
      .workload_scales({1.0, 1.4});
  return grid;
}
constexpr std::size_t kShards = 6;

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "vmcons_sharded_" + name;
  std::remove(path.c_str());
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return path;
}

/// Writes the small store and opens it.
std::string make_store(const std::string& name) {
  const std::string path = temp_path(name + ".store");
  write_sweep_store(small_planner(), small_grid(), path, 2);
  return path;
}

ShardedSweepOptions driver_options(const std::string& ledger,
                                   const std::string& worker_id) {
  ShardedSweepOptions options;
  options.batch.parallel = false;
  options.batch.policy = FailurePolicy::kQuarantine;
  options.ledger_dir = ledger;
  options.worker_id = worker_id;
  options.lease = std::chrono::milliseconds(60000);
  options.poll = std::chrono::milliseconds(2);
  return options;
}

/// Reference report: what a clean 1-process StreamingSweep produces, with
/// results collected per global scenario.
struct Reference {
  StreamingSweepReport report;
  std::vector<ModelResult> results;
};

Reference run_reference(const ScenarioStore& store) {
  StreamingSweepOptions options;
  options.batch.parallel = false;
  options.batch.policy = FailurePolicy::kQuarantine;
  Reference ref;
  ref.results.resize(store.scenario_count());
  const StreamingSweep sweep(options);
  ref.report = sweep.run(store, [&ref](ShardOutcome&& shard) {
    for (std::size_t i = 0; i < shard.outcome.results.size(); ++i) {
      ref.results[shard.scenario_begin + i] =
          std::move(shard.outcome.results[i]);
    }
  });
  EXPECT_TRUE(ref.report.complete());
  return ref;
}

void expect_bit_identical(const MergedSweep& merged, const Reference& ref) {
  EXPECT_EQ(merged.report.shards_completed, ref.report.shards_total);
  EXPECT_EQ(merged.report.scenarios_evaluated,
            ref.report.scenarios_evaluated);
  // The per-shard result digests cover every field of every ModelResult
  // but its FleetPlan, and this store has no fleets, so equality here is
  // bit-identity of the whole sweep.
  EXPECT_EQ(merged.report.shard_checksums, ref.report.shard_checksums);
  ASSERT_EQ(merged.report.failures.size(), ref.report.failures.size());
  for (std::size_t i = 0; i < merged.report.failures.size(); ++i) {
    EXPECT_EQ(merged.report.failures[i].scenario_index,
              ref.report.failures[i].scenario_index);
  }
}

TEST(ShardedSweep, WorkersAtEveryCountMergeBitIdenticalToStreaming) {
  const std::string store_path = make_store("counts");
  const ScenarioStore store(store_path);
  const Reference ref = run_reference(store);

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    SCOPED_TRACE("workers = " + std::to_string(workers));
    const std::string ledger =
        temp_path("counts.ledger" + std::to_string(workers));
    std::vector<std::thread> fleet;
    std::vector<WorkerReport> reports(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      fleet.emplace_back([&, w] {
        const ShardedSweepDriver driver(
            driver_options(ledger, "w" + std::to_string(w)));
        reports[w] = driver.run_worker(ScenarioStore(store_path));
      });
    }
    for (std::thread& t : fleet) {
      t.join();
    }
    std::size_t evaluated = 0;
    for (const WorkerReport& report : reports) {
      evaluated += report.shards_evaluated;
      EXPECT_FALSE(report.cancelled);
      EXPECT_FALSE(report.deadline_exceeded);
    }
    // Leases are long and every worker lives: each shard is evaluated
    // exactly once across the fleet.
    EXPECT_EQ(evaluated, kShards);

    const ShardedSweepDriver merger(driver_options(ledger, "merger"));
    std::vector<ModelResult> merged_results(store.scenario_count());
    std::vector<std::size_t> delivered;
    const MergedSweep merged =
        merger.merge(store, [&](ShardOutcome&& shard) {
          delivered.push_back(shard.shard_index);
          for (std::size_t i = 0; i < shard.outcome.results.size(); ++i) {
            merged_results[shard.scenario_begin + i] =
                std::move(shard.outcome.results[i]);
          }
        });
    expect_bit_identical(merged, ref);
    // Sink delivery is shard order by contract, never completion order.
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      EXPECT_EQ(delivered[i], i);
    }
    for (std::size_t s = 0; s < store.scenario_count(); ++s) {
      EXPECT_EQ(merged_results[s].dedicated_servers,
                ref.results[s].dedicated_servers);
      EXPECT_EQ(merged_results[s].consolidated_blocking,
                ref.results[s].consolidated_blocking);
      EXPECT_EQ(merged_results[s].power_saving, ref.results[s].power_saving);
    }
  }
}

std::size_t claims_held(const ClaimLedger& ledger, std::size_t shards) {
  std::size_t held = 0;
  for (std::size_t shard = 0; shard < shards; ++shard) {
    held += ledger.read_claim(shard).has_value() ? 1 : 0;
  }
  return held;
}

// A worker that dies *holding a lease* (fault site driver.shard fires after
// the claim is durable, before evaluation) leaves a claim file behind; a
// peer with a short lease reclaims it and the merged sweep is still
// bit-identical to the clean 1-process run.
TEST(ShardedSweep, KilledWorkerLeaseIsReclaimedBitIdentical) {
  const std::string store_path = make_store("kill");
  const ScenarioStore store(store_path);
  const Reference ref = run_reference(store);
  const std::string ledger = temp_path("kill.ledger");

  ScopedFaults guard;
  FaultInjector::global().set_seed(fault_seed());
  FaultInjector::SiteConfig config;
  config.error_rate = 0.4;
  FaultInjector::global().arm(sites::kDriverShard, config);

  // The victim's claims carry its own lease. The rescuer runs in this
  // live process, so the dead-pid shortcut cannot fire: it reclaims only
  // once the victim's lease expires, and a short one bounds that wait.
  ShardedSweepOptions victim_options = driver_options(ledger, "victim");
  victim_options.lease = std::chrono::milliseconds(200);
  const ShardedSweepDriver victim(victim_options);
  try {
    victim.run_worker(store);
    FAIL() << "every shard dodged a 0.4 fault rate; seed needs attention";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kFaultInjected);
  }
  // The victim died holding its claim: the ledger still records it.
  const ClaimLedger inspect(ledger, store.checksum(), std::chrono::seconds(60));
  EXPECT_GE(claims_held(inspect, store.shard_count()), 1u);

  FaultInjector::global().disarm_all();

  // The rescuer's own claims get a short lease too.
  ShardedSweepOptions rescue_options = driver_options(ledger, "rescuer");
  rescue_options.lease = std::chrono::milliseconds(100);
  const ShardedSweepDriver rescuer(rescue_options);
  const WorkerReport report = rescuer.run_worker(store);
  EXPECT_GE(report.leases_reclaimed, 1u);

  const ShardedSweepDriver merger(driver_options(ledger, "merger"));
  expect_bit_identical(merger.merge(store), ref);
}

// driver.claim fires before the ledger is touched: the crash leaves no
// claim behind, exactly like a worker dying between shards.
TEST(ShardedSweep, ClaimSiteFaultLeavesNoClaim) {
  const std::string store_path = make_store("claimfault");
  const ScenarioStore store(store_path);
  const std::string ledger = temp_path("claimfault.ledger");

  ScopedFaults guard;
  FaultInjector::global().set_seed(fault_seed());
  FaultInjector::SiteConfig config;
  config.error_rate = 1.0;
  FaultInjector::global().arm(sites::kDriverClaim, config);

  const ShardedSweepDriver driver(driver_options(ledger, "victim"));
  try {
    driver.run_worker(store);
    FAIL() << "a 1.0 fault rate must fire on the first claim attempt";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kFaultInjected);
  }
  const ClaimLedger inspect(ledger, store.checksum(),
                            std::chrono::seconds(60));
  for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
    EXPECT_FALSE(inspect.read_claim(shard).has_value());
    EXPECT_FALSE(inspect.result_committed(shard));
  }
}

// A genuinely dead claimer (a forked child that _exit()s after claiming) is
// reclaimed immediately via the pid check — no lease wait.
TEST(ShardedSweep, DeadPidClaimReclaimedWithoutLeaseWait) {
  const std::string store_path = make_store("deadpid");
  const ScenarioStore store(store_path);
  const Reference ref = run_reference(store);
  const std::string ledger = temp_path("deadpid.ledger");

  const ::pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // In the child: claim shard 0 through the public driver path, then die
    // without releasing — the kill -9 window.
    ShardedSweepOptions options = driver_options(ledger, "doomed");
    options.on_claimed = [](std::size_t) { ::_exit(137); };
    try {
      const ScenarioStore child_store(store_path);
      const ShardedSweepDriver doomed(std::move(options));
      doomed.run_worker(child_store);
    } catch (...) {
    }
    ::_exit(1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 137)
      << "child did not die in the claim window";

  // Long lease on purpose: only the dead-pid path can reclaim this fast.
  const ShardedSweepDriver rescuer(driver_options(ledger, "rescuer"));
  const WorkerReport report = rescuer.run_worker(store);
  EXPECT_EQ(report.shards_evaluated, kShards);
  EXPECT_GE(report.leases_reclaimed, 1u);

  const ShardedSweepDriver merger(driver_options(ledger, "merger"));
  expect_bit_identical(merger.merge(store), ref);
}

// Shard k's result commit runs while the worker claims, evaluates and
// encodes shard k+1, so a failed commit surfaces one shard later: an
// IoError naming that result file. The failed shard is left with no result
// and no claim, the claim the worker took meanwhile is handed back too, and
// a rescuer finishes the sweep without waiting out a lease.
TEST(ShardedSweep, FailedCommitSurfacesAfterTheNextShard) {
  const std::string store_path = make_store("failedcommit");
  const ScenarioStore store(store_path);
  const Reference ref = run_reference(store);
  const std::string ledger = temp_path("failedcommit.ledger");

  util::fs::ScopedFsFaults guard;
  util::fs::FsFaultInjector& injector = util::fs::FsFaultInjector::global();
  // fs ops per result commit, from a clean 1-worker probe. Op stride + 1 is
  // the second commit's temporary-file create, before anything lands.
  injector.reset_ops();
  injector.arm(util::fs::sites::kResultCommit, {});
  ShardedSweepDriver(driver_options(temp_path("failedcommit_probe.ledger"),
                                    "probe"))
      .run_worker(store);
  const std::uint64_t stride =
      injector.ops_at(util::fs::sites::kResultCommit) / kShards;
  ASSERT_GT(stride, 0u);
  injector.reset_ops();
  injector.arm(util::fs::sites::kResultCommit,
               {.error_at_op = stride + 1, .error_errno = EIO});

  std::vector<std::size_t> claimed;
  ShardedSweepOptions options = driver_options(ledger, "victim");
  options.on_claimed = [&claimed](std::size_t shard) {
    claimed.push_back(shard);
  };
  const ClaimLedger inspect(ledger, store.checksum(),
                            std::chrono::seconds(60));
  try {
    ShardedSweepDriver(options).run_worker(store);
    FAIL() << "the second shard's commit was armed to fail";
  } catch (const IoError& error) {
    ASSERT_EQ(claimed.size(), 3u)
        << "the failure surfaces once the third shard is ready to commit";
    EXPECT_NE(std::string(error.what()).find(inspect.result_path(claimed[1])),
              std::string::npos)
        << error.what();
  }
  injector.disarm_all();

  EXPECT_EQ(claims_held(inspect, store.shard_count()), 0u);
  for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
    EXPECT_EQ(inspect.result_committed(shard), shard == claimed[0])
        << "shard " << shard;
  }

  const WorkerReport report =
      ShardedSweepDriver(driver_options(ledger, "rescuer")).run_worker(store);
  EXPECT_EQ(report.shards_evaluated, kShards - 1);
  EXPECT_EQ(report.leases_reclaimed, 0u);
  expect_bit_identical(
      ShardedSweepDriver(driver_options(ledger, "merger")).merge(store), ref);
}

// A worker that throws while a commit is in flight joins the commit thread
// as it unwinds: when run_worker throws (here from on_claimed, on the
// second claim), the first shard's result file is already complete, and it
// merges bit-identical once a rescuer has filled in the rest.
TEST(ShardedSweep, InFlightCommitLandsWhenTheWorkerThrows) {
  const std::string store_path = make_store("inflight");
  const ScenarioStore store(store_path);
  const Reference ref = run_reference(store);
  const std::string ledger = temp_path("inflight.ledger");

  std::vector<std::size_t> claimed;
  ShardedSweepOptions options = driver_options(ledger, "victim");
  // The second claim is left behind; its short lease bounds the rescue.
  options.lease = std::chrono::milliseconds(200);
  options.on_claimed = [&claimed](std::size_t shard) {
    claimed.push_back(shard);
    if (claimed.size() == 2) {
      throw std::runtime_error("worker dies holding its second claim");
    }
  };
  EXPECT_THROW(ShardedSweepDriver(options).run_worker(store),
               std::runtime_error);
  ASSERT_EQ(claimed.size(), 2u);
  const ClaimLedger inspect(ledger, store.checksum(),
                            std::chrono::seconds(60));
  EXPECT_TRUE(inspect.result_committed(claimed[0]));
  EXPECT_FALSE(inspect.result_committed(claimed[1]));

  ShardedSweepOptions rescue_options = driver_options(ledger, "rescuer");
  rescue_options.lease = std::chrono::milliseconds(100);
  const WorkerReport report =
      ShardedSweepDriver(rescue_options).run_worker(store);
  EXPECT_EQ(report.shards_evaluated, kShards - 1);
  EXPECT_GE(report.leases_reclaimed, 1u);
  expect_bit_identical(
      ShardedSweepDriver(driver_options(ledger, "merger")).merge(store), ref);
}

// One commit in flight at most: a worker holds the claim it is committing
// plus the one it is evaluating, never more, and never tries to claim the
// shard on its commit thread (a lone worker meets no claim conflict).
TEST(ShardedSweep, WorkerHoldsAtMostTwoClaims) {
  const std::string store_path = make_store("twoclaims");
  const ScenarioStore store(store_path);
  const Reference ref = run_reference(store);
  const std::string ledger = temp_path("twoclaims.ledger");
  const ClaimLedger inspect(ledger, store.checksum(),
                            std::chrono::seconds(60));

  std::size_t most = 0;
  ShardedSweepOptions options = driver_options(ledger, "w0");
  options.on_claimed = [&](std::size_t) {
    most = std::max(most, claims_held(inspect, store.shard_count()));
  };
  metrics::Counter& conflicts =
      metrics::registry().counter(metrics::names::kDriverClaimConflicts);
  const std::uint64_t conflicts_before = conflicts.value();
  const WorkerReport report = ShardedSweepDriver(options).run_worker(store);
  EXPECT_EQ(report.shards_evaluated, kShards);
  EXPECT_EQ(most, 2u)
      << "each claim after the first is taken with one commit in flight";
  EXPECT_EQ(conflicts.value() - conflicts_before, 0u);
  EXPECT_EQ(claims_held(inspect, store.shard_count()), 0u);
  expect_bit_identical(
      ShardedSweepDriver(driver_options(ledger, "merger")).merge(store), ref);
}

// merge() decodes every shard into one reused outcome. A store whose last
// shard is shorter and carries a failure record, merged through a sink that
// leaves the results in place, must still deliver each shard exactly as the
// streaming sweep did: nothing of the larger shard before it leaks through.
TEST(ShardedSweep, MergeDeliversAShortLastShardWithoutStaleResults) {
  const std::string store_path = temp_path("short_last.store");
  write_sweep_store(small_planner(), small_grid(), store_path, 5);
  const ScenarioStore store(store_path);
  ASSERT_EQ(store.shard_count(), 3u);
  ASSERT_EQ(store.shard(2).scenarios, 2u);
  const std::string ledger = temp_path("short_last.ledger");

  std::vector<ShardOutcome> expected;
  {
    // batch.cell draws on the shard-local cell index, and at this seed it
    // fails cell 1 of every shard, the short last one included.
    ScopedFaults guard;
    FaultInjector::global().set_seed(2010);
    FaultInjector::global().arm(sites::kBatchCell, {.error_rate = 0.5});
    StreamingSweepOptions streaming;
    streaming.batch.parallel = false;
    streaming.batch.policy = FailurePolicy::kQuarantine;
    StreamingSweep(streaming).run(store, [&](ShardOutcome&& shard) {
      expected.push_back(std::move(shard));
    });
    ShardedSweepDriver(driver_options(ledger, "w0")).run_worker(store);
  }
  ASSERT_EQ(expected.size(), 3u);
  ASSERT_FALSE(expected[2].outcome.failures.empty());

  std::size_t delivered = 0;
  ShardedSweepDriver(driver_options(ledger, "merger"))
      .merge(store, [&](ShardOutcome&& shard) {
        SCOPED_TRACE("shard " + std::to_string(shard.shard_index));
        ASSERT_EQ(shard.shard_index, delivered++);
        const ShardOutcome& want = expected[shard.shard_index];
        const BatchOutcome& got = shard.outcome;
        EXPECT_EQ(shard.scenario_begin, want.scenario_begin);
        EXPECT_EQ(shard.result_checksum, want.result_checksum);
        EXPECT_EQ(got.evaluated, want.outcome.evaluated);
        ASSERT_EQ(got.failures.size(), want.outcome.failures.size());
        for (std::size_t f = 0; f < got.failures.size(); ++f) {
          EXPECT_EQ(got.failures[f].scenario_index,
                    want.outcome.failures[f].scenario_index);
          EXPECT_EQ(got.failures[f].code, want.outcome.failures[f].code);
          EXPECT_EQ(got.failures[f].message,
                    want.outcome.failures[f].message);
        }
        ASSERT_EQ(got.results.size(), want.outcome.results.size());
        for (std::size_t i = 0; i < got.results.size(); ++i) {
          const ModelResult& a = got.results[i];
          const ModelResult& b = want.outcome.results[i];
          EXPECT_EQ(a.dedicated.size(), b.dedicated.size());
          EXPECT_EQ(a.dedicated_servers, b.dedicated_servers);
          EXPECT_EQ(a.consolidated_servers, b.consolidated_servers);
          EXPECT_EQ(a.consolidated_blocking, b.consolidated_blocking);
          EXPECT_EQ(a.power_saving, b.power_saving);
        }
      });
  EXPECT_EQ(delivered, 3u);
}

TEST(ShardedSweep, MergeRefusesResultsFromDifferentStore) {
  const std::string store_path = make_store("mix_a");
  const ScenarioStore store(store_path);
  const std::string ledger = temp_path("mix.ledger");
  const ShardedSweepDriver worker(driver_options(ledger, "w0"));
  worker.run_worker(store);

  // Same grid shape, different workload scales: same shard count, different
  // store checksum — the mixed-ledger mistake the merger must catch.
  const std::string other_path = temp_path("mix_b.store");
  SweepGrid other_grid;
  other_grid.target_losses({0.005, 0.01, 0.05})
      .vms_per_server({2, 3})
      .workload_scales({1.1, 1.5});
  write_sweep_store(small_planner(), other_grid, other_path, 2);
  const ScenarioStore other(other_path);
  ASSERT_EQ(other.shard_count(), store.shard_count());
  ASSERT_NE(other.checksum(), store.checksum());

  const ShardedSweepDriver merger(driver_options(ledger, "merger"));
  try {
    merger.merge(other);
    FAIL() << "merging another store's results must throw";
  } catch (const IoError& error) {
    EXPECT_EQ(error.code(), ErrorCode::kIoError);
    EXPECT_NE(std::string(error.what()).find("refusing to merge"),
              std::string::npos)
        << error.what();
  }
}

TEST(ShardedSweep, MergeRefusesCorruptedAndMissingResults) {
  const std::string store_path = make_store("corrupt");
  const ScenarioStore store(store_path);
  const std::string ledger = temp_path("corrupt.ledger");
  const ShardedSweepDriver merger(driver_options(ledger, "merger"));

  // Empty ledger: shard 0's result is missing, loudly.
  ClaimLedger paths(ledger, store.checksum(), std::chrono::seconds(60));
  try {
    merger.merge(store);
    FAIL() << "merging an empty ledger must throw";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("missing"), std::string::npos)
        << error.what();
  }

  const ShardedSweepDriver worker(driver_options(ledger, "w0"));
  worker.run_worker(store);
  EXPECT_NO_THROW(merger.merge(store));

  // Flip one payload byte of shard 2's result: the payload checksum check
  // must name the file and refuse.
  const std::string victim = paths.result_path(2);
  {
    std::fstream file(victim,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekp(80, std::ios::beg);  // inside the payload, past the header
    char byte = 0;
    file.seekg(80, std::ios::beg);
    file.read(&byte, 1);
    byte ^= 0x1;
    file.seekp(80, std::ios::beg);
    file.write(&byte, 1);
  }
  try {
    merger.merge(store);
    FAIL() << "a corrupted result payload must fail the merge";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("checksum mismatch"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find(victim), std::string::npos)
        << error.what();
  }

  // Truncation is equally loud.
  std::filesystem::resize_file(victim, 40);
  EXPECT_THROW(merger.merge(store), IoError);
}

using file_bytes::load_u32;
using file_bytes::load_u64;
using file_bytes::put;
using file_bytes::slurp;
using file_bytes::spit;

// Result file geometry: 8-byte magic, six u64 header fields (the last is
// payload_bytes), the payload, its u64 checksum, the 8-byte end magic.
constexpr std::size_t kPayloadBegin = 8 + 6 * 8;

/// Recomputes the payload checksum after an in-place edit, as the author
/// of a crafted file would.
void reseal_result(std::string& file) {
  const std::size_t payload_bytes = load_u64(file, kPayloadBegin - 8);
  put(file, kPayloadBegin + payload_bytes,
      util::digest64(file.data() + kPayloadBegin, payload_bytes));
}

/// Offsets of the counted fields a result payload decodes before its first
/// ModelResult is complete, found by walking the serialized layout.
struct ResultFields {
  std::size_t failure_count = 0;
  std::vector<std::size_t> failure_index;  ///< each record's scenario index
  std::size_t dedicated_count = 0;   ///< first result's plan count
  std::size_t first_name_length = 0; ///< u32 length of that plan's name
  std::size_t class_count = 0;       ///< first result's fleet class count
};

ResultFields locate_result_fields(const std::string& file) {
  constexpr std::size_t kResources = dc::kResourceCount;
  ResultFields fields;
  std::size_t at = kPayloadBegin;
  at += 8 + load_u64(file, at);  // evaluated flags
  fields.failure_count = at;
  const std::uint64_t failures = load_u64(file, at);
  at += 8;
  for (std::uint64_t i = 0; i < failures; ++i) {
    fields.failure_index.push_back(at);
    at += 8 + 4;                     // scenario index, code
    at += 4 + load_u32(file, at);    // message
  }
  fields.dedicated_count = at;
  const std::uint64_t plans = load_u64(file, at);
  at += 8;
  fields.first_name_length = at;
  for (std::uint64_t i = 0; i < plans; ++i) {
    at += 4 + load_u32(file, at) + 2 * 8 * kResources + 16;
  }
  // dedicated_servers, per-resource consolidated plans, ten scalars, the
  // fleet's planned flag.
  at += 8 + (4 + 3 * 8 + 8 + 1) * kResources + 10 * 8 + 1;
  fields.class_count = at;
  return fields;
}

TEST(ShardedSweep, MergeRefusesCraftedCountsBeforeAllocating) {
  const std::string store_path = make_store("crafted");
  const ScenarioStore store(store_path);
  const std::string ledger = temp_path("crafted.ledger");
  const ShardedSweepDriver worker(driver_options(ledger, "w0"));
  worker.run_worker(store);
  const ShardedSweepDriver merger(driver_options(ledger, "merger"));
  ASSERT_NO_THROW(merger.merge(store));

  const ClaimLedger paths(ledger, store.checksum(), std::chrono::seconds(60));
  const std::string victim = paths.result_path(0);
  const std::string good = slurp(victim);
  const ResultFields fields = locate_result_fields(good);
  ASSERT_EQ(load_u64(good, fields.dedicated_count), 2u);  // web + db
  ASSERT_EQ(load_u32(good, fields.first_name_length), 3u);  // "web"

  struct Case {
    const char* field;  ///< what the IoError must name
    std::size_t at;
    std::uint64_t value;
    bool narrow;  ///< a u32 length rather than a u64 count
  };
  const Case cases[] = {
      {"failure count", fields.failure_count, std::uint64_t{1} << 62, false},
      {"dedicated plan count", fields.dedicated_count, std::uint64_t{1} << 40,
       false},
      {"string length", fields.first_name_length, 0x7ffffff0, true},
      {"fleet class count", fields.class_count, std::uint64_t{1} << 40,
       false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.field);
    std::string file = good;
    if (c.narrow) {
      put(file, c.at, static_cast<std::uint32_t>(c.value));
    } else {
      put(file, c.at, c.value);
    }
    reseal_result(file);
    spit(victim, file);
    try {
      merger.merge(store);
      ADD_FAILURE() << "crafted " << c.field << " was merged";
    } catch (const IoError& error) {
      EXPECT_NE(std::string(error.what()).find(c.field), std::string::npos)
          << error.what();
    } catch (const std::exception& error) {
      ADD_FAILURE() << "crafted " << c.field
                    << " escaped as a non-IoError: " << error.what();
    }
  }
  spit(victim, good);
  EXPECT_NO_THROW(merger.merge(store));
}

// A resealed result file whose evaluated flags and failure records
// contradict each other passes both checksums: whoever edits the payload
// recomputes its XXH64, and the header's result digest covers the flags but
// not the failure records (and is recomputed here too). The merge must
// still refuse each contradiction by name.
TEST(ShardedSweep, MergeRefusesInconsistentFlagsAndFailures) {
  const std::string store_path = temp_path("inconsistent.store");
  write_sweep_store(small_planner(), small_grid(), store_path, 4);
  const ScenarioStore store(store_path);
  const std::string ledger = temp_path("inconsistent.ledger");
  {
    // batch.cell draws on the shard-local cell index, and at this seed it
    // fails cells 1 and 2 of every 4-cell shard.
    ScopedFaults guard;
    FaultInjector::global().set_seed(2010);
    FaultInjector::global().arm(sites::kBatchCell, {.error_rate = 0.5});
    ShardedSweepDriver(driver_options(ledger, "w0")).run_worker(store);
  }
  const ShardedSweepDriver merger(driver_options(ledger, "merger"));
  std::vector<ModelResult> results;
  std::vector<std::uint8_t> flags;
  ASSERT_NO_THROW(merger.merge(store, [&](ShardOutcome&& shard) {
    if (shard.shard_index == 0) {
      results = std::move(shard.outcome.results);
      flags = shard.outcome.evaluated;
    }
  }));
  ASSERT_EQ(flags, (std::vector<std::uint8_t>{1, 0, 0, 1}));

  const ClaimLedger paths(ledger, store.checksum(), std::chrono::seconds(60));
  const std::string victim = paths.result_path(0);
  const std::string good = slurp(victim);
  const ResultFields fields = locate_result_fields(good);
  ASSERT_EQ(fields.failure_index.size(), 2u);
  constexpr std::size_t kFlagsAt = kPayloadBegin + 8;
  constexpr std::size_t kResultChecksumAt = 8 + 4 * 8;
  const std::vector<std::size_t>& record = fields.failure_index;

  struct Case {
    const char* what;  ///< what the IoError must say
    std::vector<std::pair<std::size_t, std::uint8_t>> flag_edits;
    std::vector<std::pair<std::size_t, std::uint64_t>> index_edits;
  };
  const Case cases[] = {
      {"neither 0 nor 1", {{0, 2}}, {}},
      {"out of range", {}, {{record[0], 4}}},
      {"out of order", {}, {{record[0], 2}, {record[1], 1}}},
      {"duplicated", {}, {{record[1], 1}}},
      {"flagged evaluated", {{1, 1}}, {}},
      {"neither evaluated nor failed", {{3, 0}}, {}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    std::string file = good;
    std::vector<std::uint8_t> crafted = flags;
    for (const auto& [cell, flag] : c.flag_edits) {
      crafted[cell] = flag;
      file[kFlagsAt + cell] = static_cast<char>(flag);
    }
    for (const auto& [at, scenario] : c.index_edits) {
      put(file, at, scenario);
    }
    put(file, kResultChecksumAt, checksum_model_results(results, crafted));
    reseal_result(file);
    spit(victim, file);
    try {
      merger.merge(store);
      ADD_FAILURE() << "an inconsistent outcome was merged";
    } catch (const IoError& error) {
      EXPECT_NE(std::string(error.what()).find(c.what), std::string::npos)
          << error.what();
      EXPECT_NE(std::string(error.what()).find(victim), std::string::npos)
          << error.what();
    } catch (const std::exception& error) {
      ADD_FAILURE() << "escaped as a non-IoError: " << error.what();
    }
  }
  spit(victim, good);
  EXPECT_NO_THROW(merger.merge(store));
}

// Every prefix of a valid payload, sealed as a complete file (payload_bytes
// patched, XXH64 recomputed, end magic in place), gets past the file-level
// checks to the decoder, which must refuse it with an IoError naming the
// file: never accept it, crash, or over-read (the asan preset runs this).
TEST(ShardedSweep, MergeRefusesEveryTruncatedPayload) {
  const std::string store_path = make_store("truncated");
  const ScenarioStore store(store_path);
  const std::string ledger = temp_path("truncated.ledger");
  ShardedSweepDriver(driver_options(ledger, "w0")).run_worker(store);
  const ShardedSweepDriver merger(driver_options(ledger, "merger"));
  ASSERT_NO_THROW(merger.merge(store));

  const ClaimLedger paths(ledger, store.checksum(), std::chrono::seconds(60));
  const std::string victim = paths.result_path(0);
  const std::string good = slurp(victim);
  const std::uint64_t payload_bytes = load_u64(good, kPayloadBegin - 8);
  ASSERT_GT(payload_bytes, 0u);
  std::size_t misses = 0;
  for (std::uint64_t cut = 0; cut < payload_bytes && misses < 3; ++cut) {
    std::string file = good.substr(0, kPayloadBegin + cut) +
                       std::string(8, '\0') + "VMCREND2";
    put(file, kPayloadBegin - 8, cut);
    reseal_result(file);
    spit(victim, file);
    try {
      merger.merge(store);
      ADD_FAILURE() << "a payload cut to " << cut << " bytes was merged";
      misses += 1;
    } catch (const IoError& error) {
      if (std::string(error.what()).find(victim) == std::string::npos) {
        ADD_FAILURE() << "cut " << cut << ": " << error.what();
        misses += 1;
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << "cut " << cut
                    << " escaped as a non-IoError: " << error.what();
      misses += 1;
    }
  }
  spit(victim, good);
  EXPECT_NO_THROW(merger.merge(store));
}

TEST(ShardedSweep, MergeRefusesVersion1ResultFiles) {
  const std::string store_path = make_store("v1_result");
  const ScenarioStore store(store_path);
  const std::string ledger = temp_path("v1_result.ledger");
  const ShardedSweepDriver worker(driver_options(ledger, "w0"));
  worker.run_worker(store);
  const ClaimLedger paths(ledger, store.checksum(), std::chrono::seconds(60));
  const std::string victim = paths.result_path(1);

  // What an FNV-1a build committed: the "1" magics around an FNV payload
  // checksum, otherwise the same layout.
  std::string file = slurp(victim);
  ASSERT_EQ(file.compare(0, 8, "VMCRSLT2"), 0);
  file.replace(0, 8, "VMCRSLT1");
  file.replace(file.size() - 8, 8, "VMCREND1");
  const std::size_t payload_bytes = load_u64(file, kPayloadBegin - 8);
  put(file, kPayloadBegin + payload_bytes,
      util::fnv1a64(file.data() + kPayloadBegin, payload_bytes));
  spit(victim, file);

  const ShardedSweepDriver merger(driver_options(ledger, "merger"));
  try {
    merger.merge(store);
    FAIL() << "a VMCRSLT1 result file must fail the merge";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("bad magic"), std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find(victim), std::string::npos)
        << error.what();
  }
}

TEST(ShardedSweep, MergeSumsWorkerMetricsFiles) {
  const std::string store_path = make_store("metrics");
  const ScenarioStore store(store_path);
  const std::string ledger = temp_path("metrics.ledger");
  const ShardedSweepDriver worker(driver_options(ledger, "w0"));
  worker.run_worker(store);
  worker.write_worker_metrics();
  const ShardedSweepDriver second(driver_options(ledger, "w1"));
  second.run_worker(store);  // nothing left, but writes a metrics snapshot
  second.write_worker_metrics();

  const ShardedSweepDriver merger(driver_options(ledger, "merger"));
  const MergedSweep merged = merger.merge(store);
  EXPECT_EQ(merged.metrics_files, 2u);
  bool saw_driver_counter = false;
  for (const auto& [name, value] : merged.worker_metrics) {
    if (name == metrics::names::kDriverShardsEvaluated) {
      saw_driver_counter = true;
      EXPECT_GE(value, static_cast<double>(kShards));
    }
  }
  EXPECT_TRUE(saw_driver_counter);
}

// The result-file encoder writes every field straight into one sized
// buffer. These literals are the XXH64 of each committed file as the
// field-at-a-time encoder wrote it, so a codec change that moves, drops or
// widens one byte fails here even where the merge would still round-trip
// it. The store carries a fleet, a service name and a class name past the
// 15-byte small-string buffer, and shard 2 runs with batch.cell faults
// armed, so its file encodes both failure records (messages included) and
// evaluated cells.
TEST(ShardedSweep, ResultFilesArePinnedToTheirBytes) {
  ConsolidationPlanner planner = small_planner();
  dc::ServiceSpec front;
  front.name = "storefront-web-tier";
  front.arrival_rate = 45.0;
  front.demand(dc::Resource::kCpu, 70.0, virt::Impact::constant(0.85));
  front.demand(dc::Resource::kMemory, 210.0, virt::Impact::constant(0.95));
  planner.add_service(front);
  dc::Fleet fleet;
  fleet.add(dc::ServerClass::reference("reference", {}, 6));
  dc::ServerClass blade;
  blade.name = "next-generation-blade";
  for (const dc::Resource resource : dc::all_resources()) {
    blade.capacity[resource] = 1.75;
  }
  fleet.add(blade);
  planner.set_fleet(fleet);

  const std::string store_path = temp_path("pinned.store");
  write_sweep_store(planner, small_grid(), store_path, 3);
  const ScenarioStore store(store_path);
  ASSERT_EQ(store.shard_count(), 4u);
  const std::string ledger = temp_path("pinned.ledger");

  constexpr std::size_t kFaultyShard = 2;
  ScopedFaults guard;
  FaultInjector::global().set_seed(20091);
  ShardedSweepOptions options = driver_options(ledger, "w0");
  options.on_claimed = [](std::size_t shard) {
    FaultInjector::global().disarm_all();
    if (shard == kFaultyShard) {
      FaultInjector::global().arm(sites::kBatchCell, {.error_rate = 0.5});
    }
  };
  EXPECT_EQ(ShardedSweepDriver(options).run_worker(store).shards_evaluated,
            4u);
  FaultInjector::global().disarm_all();

  std::size_t fleet_plans = 0;
  const MergedSweep merged =
      ShardedSweepDriver(driver_options(ledger, "merger"))
          .merge(store, [&](ShardOutcome&& shard) {
            for (const ModelResult& result : shard.outcome.results) {
              fleet_plans += result.fleet.classes.size() == 2 ? 1 : 0;
            }
          });
  EXPECT_EQ(fleet_plans + merged.report.failures.size(),
            store.scenario_count());
  ASSERT_FALSE(merged.report.failures.empty());
  for (const CellFailure& failure : merged.report.failures) {
    EXPECT_EQ(failure.scenario_index / 3, kFaultyShard);
    EXPECT_GT(failure.message.size(), 15u);
  }
  EXPECT_LT(merged.report.failures.size(), 3u);

  const ClaimLedger paths(ledger, store.checksum(), std::chrono::seconds(60));
  const std::uint64_t pinned[] = {
      0xf00aab2e194509b2ULL,
      0x8d95685434047fa8ULL,
      0xc365d9427c2cb812ULL,
      0xb8ef5925f02b5ed0ULL,
  };
  for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
    const std::string file = slurp(paths.result_path(shard));
    const std::uint64_t digest = util::digest64(file.data(), file.size());
    EXPECT_EQ(digest, pinned[shard])
        << "shard " << shard << ": 0x" << std::hex << digest;
  }
}

TEST(ClaimLedger, DuplicateClaimRaceHasOneWinner) {
  const std::string dir = temp_path("race.ledger");
  const ClaimLedger ledger(dir, 42, std::chrono::seconds(60));
  const std::uint64_t first = ClaimLedger::make_token();
  const std::uint64_t second = ClaimLedger::make_token();
  ASSERT_NE(first, second);

  EXPECT_TRUE(ledger.try_claim(3, "a", first));
  // Live pid + unexpired lease: the duplicate claim must lose.
  EXPECT_FALSE(ledger.try_claim(3, "b", second));

  // Releasing with the loser's token must not free the winner's claim.
  ledger.release_if_ours(3, second);
  ASSERT_TRUE(ledger.read_claim(3).has_value());
  EXPECT_EQ(ledger.read_claim(3)->token, first);

  ledger.release_if_ours(3, first);
  EXPECT_FALSE(ledger.read_claim(3).has_value());
  EXPECT_TRUE(ledger.try_claim(3, "b", second));
}

TEST(ClaimLedger, ManyThreadsOneWinnerPerShard) {
  const std::string dir = temp_path("threads.ledger");
  const ClaimLedger ledger(dir, 42, std::chrono::seconds(60));
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<int> wins(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t shard = 0; shard < 16; ++shard) {
        if (ledger.try_claim(shard, "t" + std::to_string(t),
                             ClaimLedger::make_token())) {
          ++wins[t];
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  int total = 0;
  for (const int w : wins) {
    total += w;
  }
  EXPECT_EQ(total, 16);  // every shard claimed exactly once across the race
}

TEST(ClaimLedger, ExpiredLeaseIsReclaimed) {
  const std::string dir = temp_path("lease.ledger");
  const ClaimLedger short_lease(dir, 42, std::chrono::milliseconds(40));
  const std::uint64_t first = ClaimLedger::make_token();
  ASSERT_TRUE(short_lease.try_claim(0, "a", first));
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  bool reclaimed = false;
  const std::uint64_t second = ClaimLedger::make_token();
  EXPECT_TRUE(short_lease.try_claim(0, "b", second, &reclaimed));
  EXPECT_TRUE(reclaimed);
  EXPECT_EQ(short_lease.read_claim(0)->worker, "b");
}

TEST(ClaimLedger, WrongStoreBrandIsLoud) {
  const std::string dir = temp_path("brand.ledger");
  const ClaimLedger mine(dir, 42, std::chrono::seconds(60));
  ASSERT_TRUE(mine.try_claim(0, "a", ClaimLedger::make_token()));
  const ClaimLedger theirs(dir, 43, std::chrono::seconds(60));
  try {
    theirs.try_claim(0, "b", ClaimLedger::make_token());
    FAIL() << "claiming against a differently-branded ledger must throw";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("branded"), std::string::npos)
        << error.what();
  }
}

/// A claim on shard 0 of a ledger branded 42 (hex 2a), held by this live
/// local process, with `deadline` and `checksum` written verbatim.
void write_claim(const ClaimLedger& ledger, const std::string& deadline,
                 const std::string& checksum) {
  std::ofstream out(ledger.claim_path(0));
  out << "a," << ::getpid() << ',' << util::local_hostname() << ",1f,"
      << deadline << ',' << checksum << '\n';
}

/// Moves `path`'s mtime `age` into the past.
void backdate(const std::string& path, std::chrono::milliseconds age) {
  const auto then = std::chrono::duration_cast<std::chrono::seconds>(
      (std::chrono::system_clock::now() - age).time_since_epoch());
  const ::timespec times[2] = {{then.count(), 0}, {then.count(), 0}};
  ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

/// A record with a field that only partly parses is unparseable: a fresh
/// one is left alone, and one older than lease + 1 s is reclaimed.
void expect_judged_by_age(const std::string& name, const std::string& deadline,
                          const std::string& checksum) {
  const std::string dir = temp_path(name);
  const std::chrono::seconds lease(2);
  const ClaimLedger ledger(dir, 42, lease);
  write_claim(ledger, deadline, checksum);
  EXPECT_FALSE(ledger.read_claim(0).has_value());
  EXPECT_FALSE(ledger.try_claim(0, "b", ClaimLedger::make_token()));

  backdate(ledger.claim_path(0), lease + std::chrono::seconds(2));
  bool reclaimed = false;
  EXPECT_TRUE(ledger.try_claim(0, "b", ClaimLedger::make_token(), &reclaimed));
  EXPECT_TRUE(reclaimed);
  EXPECT_EQ(ledger.read_claim(0)->worker, "b");
}

TEST(ClaimLedger, NonNumericDeadlineIsJudgedByFileAge) {
  expect_judged_by_age("deadline_word.ledger", "notanumber", "2a");
}

TEST(ClaimLedger, DeadlineWithTrailingGarbageIsJudgedByFileAge) {
  expect_judged_by_age("deadline_tail.ledger", "5abc", "2a");
}

TEST(ClaimLedger, NonHexStoreChecksumIsJudgedByFileAge) {
  const std::string deadline = std::to_string(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count() +
      60000);
  expect_judged_by_age("checksum_word.ledger", deadline, "zz");
}

TEST(ManifestLock, SecondSweepOnOneCheckpointFailsFast) {
  const std::string lock_path = temp_path("manifest.lock");
  const util::PidLockFile held(lock_path, "checkpoint manifest");
  try {
    const util::PidLockFile second(lock_path, "checkpoint manifest");
    FAIL() << "second acquisition against a live holder must throw";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("locked by live pid"),
              std::string::npos)
        << error.what();
  }
}

TEST(ManifestLock, StaleDeadPidLockIsTakenOver) {
  const std::string lock_path = temp_path("stale.lock");
  // Manufacture a genuinely dead pid: a child that exits immediately.
  const ::pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::_exit(0);
  }
  ASSERT_EQ(::waitpid(child, nullptr, 0), child);
  {
    std::ofstream out(lock_path);
    out << static_cast<long long>(child) << "\n";
  }
  const util::PidLockFile lock(lock_path, "checkpoint manifest");
  std::ifstream in(lock_path);
  long long holder = 0;
  in >> holder;
  EXPECT_EQ(holder, static_cast<long long>(::getpid()));
}

TEST(ManifestLock, StreamingSweepHoldsTheLockWhileRunning) {
  const std::string store_path = make_store("mlock");
  const ScenarioStore store(store_path);
  const std::string manifest = temp_path("mlock.manifest");

  const util::PidLockFile held(manifest + ".lock", "checkpoint manifest");
  StreamingSweepOptions options;
  options.batch.parallel = false;
  options.checkpoint_path = manifest;
  const StreamingSweep sweep(options);
  EXPECT_THROW(sweep.run(store), IoError);
}

// Positional reads share one fd: hammer the same store from many threads
// and require every read to deserialize and checksum clean (the asan run
// of this suite would catch an offset race).
TEST(ShardedSweep, ConcurrentStoreReadersAreSafe) {
  const std::string store_path = make_store("pread");
  const ScenarioStore store(store_path);
  std::vector<std::thread> readers;
  std::vector<int> failures(4, 0);
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int round = 0; round < 25; ++round) {
        for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
          const ScenarioBatch batch = store.read_shard(shard);
          if (batch.size() != store.shard(shard).scenarios) {
            ++failures[t];
          }
        }
      }
    });
  }
  for (std::thread& t : readers) {
    t.join();
  }
  for (const int f : failures) {
    EXPECT_EQ(f, 0);
  }
}

TEST(ShardedSweep, StoreChecksumMismatchNamesPathAndShard) {
  const std::string store_path = make_store("naming");
  {
    // Corrupt one byte of shard 1's payload on disk.
    const ScenarioStore store(store_path);
    const ShardInfo& info = store.shard(1);
    std::fstream file(store_path,
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(static_cast<std::streamoff>(info.offset));
    char byte = 0;
    file.read(&byte, 1);
    byte ^= 0x1;
    file.seekp(static_cast<std::streamoff>(info.offset));
    file.write(&byte, 1);
  }
  const ScenarioStore corrupted(store_path);
  EXPECT_NO_THROW(corrupted.read_shard(0));
  try {
    corrupted.read_shard(1);
    FAIL() << "corrupted shard payload must fail its checksum";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(store_path), std::string::npos) << what;
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
  }
}

TEST(MetricsJsonTest, RoundTripsRowsExactly) {
  std::vector<metrics::Registry::Row> rows;
  rows.push_back({"batch.evaluations", 12.0});
  rows.push_back({"batch.wall.ms", 1.5});
  rows.push_back({"driver.shards_evaluated", 6.0});
  std::ostringstream out;
  metrics::to_json(out, rows);
  const std::vector<metrics::Registry::Row> parsed =
      metrics::parse_json(out.str());
  ASSERT_EQ(parsed.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parsed[i].name, rows[i].name);
    EXPECT_EQ(parsed[i].value, rows[i].value);
  }
}

TEST(MetricsJsonTest, RegistrySnapshotRoundTrips) {
  metrics::registry().counter("test.sharded_json").add(7);
  const std::string json = metrics::to_json_string();
  const std::vector<metrics::Registry::Row> parsed =
      metrics::parse_json(json);
  bool found = false;
  for (const auto& row : parsed) {
    if (row.name == "test.sharded_json") {
      found = true;
      EXPECT_GE(row.value, 7.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MetricsJsonTest, RejectsMalformedInput) {
  EXPECT_THROW(metrics::parse_json(""), IoError);
  EXPECT_THROW(metrics::parse_json("{}"), IoError);
  EXPECT_THROW(metrics::parse_json("{\"wrong\": {}}"), IoError);
  EXPECT_THROW(metrics::parse_json("{\"metrics\": {\"a\": }}"), IoError);
  EXPECT_THROW(metrics::parse_json("{\"metrics\": {\"a\": 1}} tail"),
               IoError);
  EXPECT_THROW(metrics::parse_json("{\"metrics\": {\"a\": 1"), IoError);
  // The empty snapshot is valid.
  EXPECT_TRUE(metrics::parse_json("{\"metrics\": {}}").empty());
}

}  // namespace
}  // namespace vmcons::core
