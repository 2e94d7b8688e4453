// ShardedSweepDriver: the claim ledger arbitrates multi-worker sweeps, a
// worker killed while holding a lease is reclaimed by a peer, and the
// merged result is bit-identical to a 1-process StreamingSweep no matter
// the worker count or crash pattern. Plus the satellites that make that
// safe: the manifest PidLockFile (two sweeps on one checkpoint fail fast),
// concurrent positional store reads, and the metrics JSON wire format the
// merger sums worker counters from.
//
// The kill tests pin their fault seed via VMCONS_FAULT_SEED (scripts/
// tier1.sh sets it) so a red run replays bit-identically.
#include "core/sharded_sweep.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/planner.hpp"
#include "core/scenario_store.hpp"
#include "core/streaming_sweep.hpp"
#include "file_bytes.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"
#include "util/file_lock.hpp"
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

  ShardedSweepOptions victim_options = driver_options(ledger, "victim");
  const ShardedSweepDriver victim(victim_options);
  try {
    victim.run_worker(store);
    FAIL() << "every shard dodged a 0.4 fault rate; seed needs attention";
  } catch (const Error& error) {
    EXPECT_EQ(error.code(), ErrorCode::kFaultInjected);
  }
  // The victim died holding its claim: the ledger still records it.
  std::size_t claims = 0;
  ClaimLedger inspect(ledger, store.checksum(), std::chrono::seconds(60));
  for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
    claims += inspect.read_claim(shard).has_value() ? 1 : 0;
  }
  EXPECT_GE(claims, 1u);

  FaultInjector::global().disarm_all();

  // The rescuer's pid is alive (same process), so reclamation must come
  // from lease expiry — give it a short one.
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
