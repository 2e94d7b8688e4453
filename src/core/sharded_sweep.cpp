#include "core/sharded_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "util/backoff.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"
#include "util/file_lock.hpp"
#include "util/fs.hpp"
#include "util/metrics.hpp"

namespace vmcons::core {
namespace {

namespace fs = std::filesystem;

// Result file layout (host-endian, like the store it mirrors):
//   magic "VMCRSLT2" | u64 store_checksum | u64 shard_index
//   | u64 scenario_begin | u64 scenarios | u64 result_checksum
//   | u64 payload_bytes | payload | u64 payload_checksum | magic "VMCREND2"
// The payload serializes the shard's BatchOutcome: evaluated flags,
// failures, then every ModelResult field in the canonical order of
// checksum_model_results (plus the fleet plan, which the digest predates).
// payload_checksum is util::digest64 (XXH64) of the payload bytes. The "1"
// magics of FNV-1a builds fail the merge's magic check.
constexpr char kResultMagic[8] = {'V', 'M', 'C', 'R', 'S', 'L', 'T', '2'};
constexpr char kResultEndMagic[8] = {'V', 'M', 'C', 'R', 'E', 'N', 'D', '2'};
constexpr std::size_t kResultHeaderBytes = sizeof(kResultMagic) + 6 * 8;

// Fewest payload bytes one element of each counted list occupies: the
// fixed-width part of what serialize_outcome/write_model_result emit for it
// (a string contributes its u32 length). A declared count whose elements
// cannot fit in the bytes left is refused before it sizes an allocation.
constexpr std::size_t kFailureBytes = 8 + 4 + 4;
constexpr std::size_t kServicePlanBytes = 4 + 2 * 8 * dc::kResourceCount + 16;
constexpr std::size_t kClassAllocationBytes = 4 + 6 * 8;
constexpr std::size_t kModelResultBytes =
    8 + 8 + (4 + 3 * 8 + 8 + 1) * dc::kResourceCount + 10 * 8 + 1 + 8 + 2 +
    2 * 8;  // with empty dedicated-plan and fleet-class lists

std::int64_t now_wall_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void ledger_fail(const std::string& path,
                              const std::string& what) {
  throw IoError("claim ledger '" + path + "': " + what);
}

std::string hex64(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << value;
  return out.str();
}

std::string shard_tag(std::size_t shard) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%06zu", shard);
  return buffer;
}

bool filename_safe(const std::string& name) {
  if (name.empty()) {
    return false;
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) {
      return false;
    }
  }
  return true;
}

std::string format_claim(const ShardClaim& claim) {
  std::ostringstream out;
  out << claim.worker << ',' << claim.pid << ',' << claim.hostname << ','
      << hex64(claim.token) << ',' << claim.lease_deadline_ms << ','
      << hex64(claim.store_checksum) << '\n';
  return out.str();
}

std::optional<ShardClaim> parse_claim(const std::string& text) {
  std::vector<std::string> fields;
  std::string current;
  for (const char c : text) {
    if (c == '\n') {
      break;
    }
    if (c == ',') {
      fields.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(current);
  // 6 fields since the hostname column landed; 5-field records from older
  // builds parse with an empty hostname (= written on this host).
  const bool legacy = fields.size() == 5;
  if ((fields.size() != 6 && !legacy) ||
      text.find('\n') == std::string::npos) {
    return std::nullopt;  // partial write of a crashed claimer
  }
  ShardClaim claim;
  claim.worker = fields[0];
  char* end = nullptr;
  claim.pid = std::strtoll(fields[1].c_str(), &end, 10);
  if (end == fields[1].c_str()) {
    return std::nullopt;
  }
  const std::size_t base = legacy ? 2 : 3;
  if (!legacy) {
    claim.hostname = fields[2];
  }
  claim.token = std::strtoull(fields[base].c_str(), &end, 16);
  claim.lease_deadline_ms = std::strtoll(fields[base + 1].c_str(), &end, 10);
  claim.store_checksum = std::strtoull(fields[base + 2].c_str(), &end, 16);
  return claim;
}

/// Age of a file in milliseconds via stat mtime; nullopt when it is gone.
std::optional<std::int64_t> file_age_ms(const std::string& path) {
  struct ::stat st {};
  if (::stat(path.c_str(), &st) != 0) {
    return std::nullopt;
  }
  const std::int64_t mtime_ms =
      static_cast<std::int64_t>(st.st_mtime) * 1000;
  return now_wall_ms() - mtime_ms;
}

// --- BatchOutcome (de)serialization --------------------------------------

class ByteWriter {
 public:
  explicit ByteWriter(std::string& out) : out_(out) {}
  void raw(const void* data, std::size_t bytes) {
    out_.append(static_cast<const char*>(data), bytes);
  }
  void u8(std::uint8_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
  }

 private:
  std::string& out_;
};

/// Bounds-checked reader over a result payload; context names the file and
/// shard so a truncated payload fails with an actionable message.
class ByteReader {
 public:
  ByteReader(const std::string& in, std::size_t begin, std::size_t end,
             const std::string& context)
      : in_(in), pos_(begin), end_(end), context_(context) {}

  void raw(void* data, std::size_t bytes) {
    if (bytes > end_ - pos_) {
      throw IoError(context_ + ": payload truncated (need " +
                    std::to_string(bytes) + " bytes at offset " +
                    std::to_string(pos_) + " of " + std::to_string(end_) +
                    ")");
    }
    std::memcpy(data, in_.data() + pos_, bytes);
    pos_ += bytes;
  }
  std::uint8_t u8() {
    std::uint8_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    raw(&v, sizeof v);
    return v;
  }
  double f64() {
    double v = 0;
    raw(&v, sizeof v);
    return v;
  }
  std::string str() {
    std::string s(bounded(u32(), 1, "string length"), '\0');
    raw(s.data(), s.size());
    return s;
  }
  /// bounded_count (util/error.hpp) against what is left of this payload.
  std::size_t bounded(std::uint64_t count, std::size_t bytes_each,
                      const char* field) const {
    return bounded_count(count, bytes_each, remaining(), context_, field);
  }
  std::size_t remaining() const { return end_ - pos_; }

 private:
  const std::string& in_;
  std::size_t pos_;
  std::size_t end_;
  const std::string& context_;
};

void write_model_result(ByteWriter& w, const ModelResult& result) {
  w.u64(result.dedicated.size());
  for (const ServicePlan& plan : result.dedicated) {
    w.str(plan.name);
    for (const dc::Resource resource : dc::all_resources()) {
      w.f64(plan.offered_load[resource]);
    }
    for (const std::uint64_t servers : plan.servers_per_resource) {
      w.u64(servers);
    }
    w.u64(plan.servers);
    w.f64(plan.blocking);
  }
  w.u64(result.dedicated_servers);
  for (const ConsolidatedResourcePlan& plan : result.consolidated) {
    w.u32(static_cast<std::uint32_t>(plan.resource));
    w.f64(plan.merged_arrival_rate);
    w.f64(plan.effective_service_rate);
    w.f64(plan.offered_load);
    w.u64(plan.servers);
    w.u8(plan.demanded ? 1 : 0);
  }
  w.u64(result.consolidated_servers);
  w.f64(result.consolidated_blocking);
  w.f64(result.dedicated_utilization);
  w.f64(result.consolidated_utilization);
  w.f64(result.utilization_improvement);
  w.f64(result.dedicated_power_watts);
  w.f64(result.consolidated_power_watts);
  w.f64(result.power_ratio);
  w.f64(result.power_saving);
  w.f64(result.infrastructure_saving);
  w.u8(result.fleet.planned ? 1 : 0);
  w.u64(result.fleet.classes.size());
  for (const ClassAllocation& alloc : result.fleet.classes) {
    w.str(alloc.name);
    w.f64(alloc.speed);
    w.u64(alloc.available);
    w.u64(alloc.dedicated_servers);
    w.u64(alloc.consolidated_servers);
    w.f64(alloc.dedicated_power_watts);
    w.f64(alloc.consolidated_power_watts);
  }
  w.u8(result.fleet.dedicated_feasible ? 1 : 0);
  w.u8(result.fleet.consolidated_feasible ? 1 : 0);
  w.f64(result.fleet.dedicated_shortfall);
  w.f64(result.fleet.consolidated_shortfall);
}

ModelResult read_model_result(ByteReader& r) {
  ModelResult result;
  result.dedicated.resize(
      r.bounded(r.u64(), kServicePlanBytes, "dedicated plan count"));
  for (ServicePlan& plan : result.dedicated) {
    plan.name = r.str();
    for (const dc::Resource resource : dc::all_resources()) {
      plan.offered_load[resource] = r.f64();
    }
    for (std::uint64_t& servers : plan.servers_per_resource) {
      servers = r.u64();
    }
    plan.servers = r.u64();
    plan.blocking = r.f64();
  }
  result.dedicated_servers = r.u64();
  for (ConsolidatedResourcePlan& plan : result.consolidated) {
    plan.resource = static_cast<dc::Resource>(r.u32());
    plan.merged_arrival_rate = r.f64();
    plan.effective_service_rate = r.f64();
    plan.offered_load = r.f64();
    plan.servers = r.u64();
    plan.demanded = r.u8() != 0;
  }
  result.consolidated_servers = r.u64();
  result.consolidated_blocking = r.f64();
  result.dedicated_utilization = r.f64();
  result.consolidated_utilization = r.f64();
  result.utilization_improvement = r.f64();
  result.dedicated_power_watts = r.f64();
  result.consolidated_power_watts = r.f64();
  result.power_ratio = r.f64();
  result.power_saving = r.f64();
  result.infrastructure_saving = r.f64();
  result.fleet.planned = r.u8() != 0;
  result.fleet.classes.resize(
      r.bounded(r.u64(), kClassAllocationBytes, "fleet class count"));
  for (ClassAllocation& alloc : result.fleet.classes) {
    alloc.name = r.str();
    alloc.speed = r.f64();
    alloc.available = r.u64();
    alloc.dedicated_servers = r.u64();
    alloc.consolidated_servers = r.u64();
    alloc.dedicated_power_watts = r.f64();
    alloc.consolidated_power_watts = r.f64();
  }
  result.fleet.dedicated_feasible = r.u8() != 0;
  result.fleet.consolidated_feasible = r.u8() != 0;
  result.fleet.dedicated_shortfall = r.f64();
  result.fleet.consolidated_shortfall = r.f64();
  return result;
}

std::string serialize_outcome(const BatchOutcome& outcome) {
  std::string bytes;
  ByteWriter w(bytes);
  w.u64(outcome.evaluated.size());
  w.raw(outcome.evaluated.data(), outcome.evaluated.size());
  w.u64(outcome.failures.size());
  for (const CellFailure& failure : outcome.failures) {
    w.u64(failure.scenario_index);
    w.u32(static_cast<std::uint32_t>(failure.code));
    w.str(failure.message);
  }
  for (const ModelResult& result : outcome.results) {
    write_model_result(w, result);
  }
  return bytes;
}

BatchOutcome deserialize_outcome(ByteReader& r, std::size_t scenarios,
                                 const std::string& context) {
  BatchOutcome outcome;
  const std::uint64_t evaluated = r.u64();
  if (evaluated != scenarios) {
    throw IoError(context + ": payload declares " + std::to_string(evaluated) +
                  " scenarios but the header recorded " +
                  std::to_string(scenarios));
  }
  outcome.evaluated.resize(
      r.bounded(evaluated, 1 + kModelResultBytes, "scenario count"));
  r.raw(outcome.evaluated.data(), scenarios);
  outcome.failures.resize(r.bounded(r.u64(), kFailureBytes, "failure count"));
  for (CellFailure& failure : outcome.failures) {
    failure.scenario_index = static_cast<std::size_t>(r.u64());
    failure.code = static_cast<ErrorCode>(r.u32());
    failure.message = r.str();
  }
  outcome.results.reserve(scenarios);
  for (std::size_t i = 0; i < scenarios; ++i) {
    outcome.results.push_back(read_model_result(r));
  }
  if (r.remaining() != 0) {
    throw IoError(context + ": " + std::to_string(r.remaining()) +
                  " trailing payload bytes past the last result");
  }
  return outcome;
}

}  // namespace

// --- ClaimLedger ----------------------------------------------------------

ClaimLedger::ClaimLedger(std::string dir, std::uint64_t store_checksum,
                         std::chrono::milliseconds lease,
                         bool dead_pid_fast_path)
    : dir_(std::move(dir)),
      store_checksum_(store_checksum),
      lease_(lease),
      dead_pid_fast_path_(dead_pid_fast_path) {
  VMCONS_REQUIRE(!dir_.empty(), "claim ledger directory must be non-empty");
  VMCONS_REQUIRE(lease_.count() > 0, "claim lease must be positive");
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    ledger_fail(dir_, "cannot create directory: " + ec.message());
  }
}

std::string ClaimLedger::claim_path(std::size_t shard) const {
  return dir_ + "/claim-" + shard_tag(shard) + ".csv";
}

std::string ClaimLedger::result_path(std::size_t shard) const {
  return dir_ + "/result-" + shard_tag(shard) + ".bin";
}

std::string ClaimLedger::worker_metrics_path(
    const std::string& worker_id) const {
  return dir_ + "/worker-" + worker_id + ".metrics.json";
}

bool ClaimLedger::result_committed(std::size_t shard) const {
  return ::access(result_path(shard).c_str(), F_OK) == 0;
}

std::optional<ShardClaim> ClaimLedger::read_claim(std::size_t shard) const {
  const auto contents = util::read_file(claim_path(shard));
  if (!contents.has_value()) {
    return std::nullopt;
  }
  return parse_claim(*contents);
}

std::uint64_t ClaimLedger::make_token() {
  // Unique across this host's claim attempts: pid in the high bits, a
  // random-seeded process-local counter below.
  static std::atomic<std::uint64_t> counter = [] {
    std::random_device device;
    return (static_cast<std::uint64_t>(device()) << 32) ^ device();
  }();
  const std::uint64_t serial = counter.fetch_add(1, std::memory_order_relaxed);
  return (static_cast<std::uint64_t>(::getpid()) << 40) ^ serial;
}

bool ClaimLedger::try_claim(std::size_t shard, const std::string& worker_id,
                            std::uint64_t token, bool* reclaimed) const {
  if (reclaimed != nullptr) {
    *reclaimed = false;
  }
  if (result_committed(shard)) {
    return false;  // done shards are never claimable
  }
  ShardClaim mine;
  mine.worker = worker_id;
  mine.pid = static_cast<long long>(::getpid());
  mine.hostname = util::local_hostname();
  mine.token = token;
  mine.lease_deadline_ms = now_wall_ms() + lease_.count();
  mine.store_checksum = store_checksum_;
  const std::string path = claim_path(shard);

  const util::fs::Status created = util::fs::create_exclusive_file(
      path, format_claim(mine), util::fs::sites::kClaim);
  if (created.ok()) {
    return true;  // the kernel arbitrated: we own the fresh claim
  }
  if (created.err != EEXIST) {
    ledger_fail(path, "claim create failed: " + created.message());
  }

  // Held: decide staleness. The lease is the portable rule — any host may
  // reclaim an expired claim. The dead-pid probe is a same-host fast path
  // only: a remote claimer's pid number says nothing about the remote
  // process (and may name a live local one), so it never short-circuits the
  // lease for records from other hosts, and lease-only mode disables it
  // entirely. An unparseable record (claimer crashed between create and
  // write) is judged by file age against the lease.
  const auto contents = util::read_file(path);
  if (!contents.has_value()) {
    // Claim vanished between create-fail and read (peer released after
    // committing). Treat as lost; the next pass sees the result file.
    return false;
  }
  const std::optional<ShardClaim> held = parse_claim(*contents);
  bool stale = false;
  if (held.has_value()) {
    if (held->store_checksum != store_checksum_) {
      ledger_fail(path, "claim is branded for store checksum " +
                            hex64(held->store_checksum) +
                            " but this sweep runs against " +
                            hex64(store_checksum_) +
                            " (two sweeps sharing one ledger?)");
    }
    const bool held_locally = held->hostname.empty() ||
                              held->hostname == util::local_hostname();
    const bool pid_dead =
        dead_pid_fast_path_ && held_locally &&
        !util::pid_alive(static_cast<::pid_t>(held->pid));
    stale = pid_dead || now_wall_ms() > held->lease_deadline_ms;
  } else {
    const auto age = file_age_ms(path);
    stale = age.has_value() && *age > lease_.count() + 1000;
  }
  if (!stale) {
    return false;
  }

  // Takeover: rename a fresh record over the stale claim, then confirm by
  // read-back that our rename won the race. Losing is fine — the winner is
  // doing the work.
  mine.lease_deadline_ms = now_wall_ms() + lease_.count();
  const util::fs::Status committed = util::fs::commit_file(
      path, format_claim(mine), hex64(token), util::fs::sites::kClaim);
  if (!committed.ok()) {
    ledger_fail(path, "claim takeover failed: " + committed.message());
  }
  const auto after = util::read_file(path);
  if (!after.has_value()) {
    return false;
  }
  const std::optional<ShardClaim> now_held = parse_claim(*after);
  const bool won = now_held.has_value() && now_held->token == token;
  if (won && reclaimed != nullptr) {
    *reclaimed = true;
  }
  return won;
}

void ClaimLedger::release_if_ours(std::size_t shard,
                                  std::uint64_t token) const {
  const std::optional<ShardClaim> held = read_claim(shard);
  if (held.has_value() && held->token == token) {
    util::fs::unlink_file(claim_path(shard), util::fs::sites::kClaim);
  }
}

// --- ShardedSweepDriver ---------------------------------------------------

ShardedSweepDriver::ShardedSweepDriver(ShardedSweepOptions options)
    : options_(std::move(options)) {
  VMCONS_REQUIRE(!options_.ledger_dir.empty(),
                 "ShardedSweepOptions::ledger_dir must be set");
  worker_id_ = options_.worker_id.empty()
                   ? "w" + std::to_string(static_cast<long long>(::getpid()))
                   : options_.worker_id;
  VMCONS_REQUIRE(filename_safe(worker_id_),
                 "worker id '" + worker_id_ +
                     "' must be non-empty and use only [A-Za-z0-9._-]");
}

WorkerReport ShardedSweepDriver::run_worker(const ScenarioStore& store) const {
  const ClaimLedger ledger(options_.ledger_dir, store.checksum(),
                           options_.lease, !options_.lease_only);
  const BatchEvaluator evaluator(options_.batch);
  WorkerReport report;
  auto& evaluated_counter =
      metrics::registry().counter(metrics::names::kDriverShardsEvaluated);
  auto& reclaimed_counter =
      metrics::registry().counter(metrics::names::kDriverLeasesReclaimed);
  auto& conflict_counter =
      metrics::registry().counter(metrics::names::kDriverClaimConflicts);

  const std::size_t shard_count = store.shard_count();
  // Workers start their scan at different offsets so N fresh workers fan
  // out over N different shards instead of queuing on claim 0. Claims
  // arbitrate correctness; the offset only reduces conflict churn.
  const std::size_t offset =
      shard_count == 0
          ? 0
          : fnv1a64(worker_id_.data(), worker_id_.size()) % shard_count;

  // Contention backoff: deterministic per worker (seeded by its id), so a
  // pinned-seed fault test replays the exact same wait schedule while real
  // fleets still desynchronize their polls.
  util::Backoff idle_backoff(
      util::Backoff::Options{
          .initial = std::chrono::duration_cast<std::chrono::microseconds>(
              options_.poll),
          .max = std::max(std::chrono::duration_cast<std::chrono::microseconds>(
                              32 * options_.poll),
                          std::chrono::microseconds(1))},
      fnv1a64(worker_id_.data(), worker_id_.size()));

  bool done = shard_count == 0;
  while (!done) {
    bool progressed = false;
    done = true;
    for (std::size_t k = 0; k < shard_count; ++k) {
      const std::size_t shard = (offset + k) % shard_count;
      if (options_.batch.control.stop_requested()) {
        break;
      }
      if (ledger.result_committed(shard)) {
        continue;
      }
      done = false;
      if (util::FaultInjector::enabled()) {
        util::FaultInjector::global().check(util::fault_sites::kDriverClaim,
                                            shard);
      }
      bool reclaimed = false;
      const std::uint64_t token = ClaimLedger::make_token();
      if (!ledger.try_claim(shard, worker_id_, token, &reclaimed)) {
        conflict_counter.add();
        continue;
      }
      // A peer may have committed between our result_committed check and
      // the claim win (it released its claim right after its commit, which
      // is what let our create succeed). Once we hold the claim no one else
      // can commit, so this re-check conclusively prevents re-evaluating an
      // already-committed shard.
      if (ledger.result_committed(shard)) {
        ledger.release_if_ours(shard, token);
        continue;
      }
      if (options_.on_claimed) {
        options_.on_claimed(shard);
      }
      // Kill-while-leasing test hook: fires with the claim durable but the
      // result uncommitted, so an injected error leaves exactly the stale
      // lease a kill -9 would.
      if (util::FaultInjector::enabled()) {
        util::FaultInjector::global().check(util::fault_sites::kDriverShard,
                                            shard);
      }

      const ShardInfo& info = store.shard(shard);
      BatchOutcome outcome;
      try {
        const ScenarioBatch batch = store.read_shard(shard);
        outcome = evaluator.evaluate_all(batch);
      } catch (...) {
        // kFailFast evaluation failure (or a corrupt shard read): release
        // the claim so a peer retries immediately, then propagate.
        ledger.release_if_ours(shard, token);
        throw;
      }
      if (outcome.cancelled || outcome.deadline_exceeded) {
        // Partial shard: never commit it. Release the claim so a peer can
        // take over immediately instead of waiting out the lease.
        ledger.release_if_ours(shard, token);
        break;
      }

      const std::uint64_t result_checksum =
          checksum_model_results(outcome.results, outcome.evaluated);
      std::string file;
      file.reserve(kResultHeaderBytes);
      {
        ByteWriter w(file);
        w.raw(kResultMagic, sizeof kResultMagic);
        w.u64(store.checksum());
        w.u64(shard);
        w.u64(info.scenario_begin);
        w.u64(info.scenarios);
        w.u64(result_checksum);
        const std::string payload = serialize_outcome(outcome);
        w.u64(payload.size());
        file += payload;
        ByteWriter t(file);
        t.u64(util::digest64(payload.data(), payload.size()));
        t.raw(kResultEndMagic, sizeof kResultEndMagic);
      }
      // Durable commit point: write + fsync a temporary, rename onto the
      // result name, fsync the ledger directory. A duplicate commit after a
      // lease expired mid-evaluation overwrites with identical bytes (the
      // evaluation is deterministic), so last-writer-wins is safe. A failed
      // commit releases the claim and propagates — the shard stays
      // uncommitted for a peer rather than half-written.
      const util::fs::Status committed =
          util::fs::commit_file(ledger.result_path(shard), file, hex64(token),
                                util::fs::sites::kResultCommit);
      if (!committed.ok()) {
        ledger.release_if_ours(shard, token);
        ledger_fail(ledger.result_path(shard),
                    "result commit for shard " + std::to_string(shard) +
                        " failed: " + committed.message());
      }
      ledger.release_if_ours(shard, token);

      report.shards_evaluated += 1;
      report.leases_reclaimed += reclaimed ? 1 : 0;
      report.scenarios_evaluated += outcome.evaluated_count();
      evaluated_counter.add();
      if (reclaimed) {
        reclaimed_counter.add();
      }
      progressed = true;
    }
    if (options_.batch.control.stop_requested()) {
      break;
    }
    if (!done && !progressed) {
      // Every unfinished shard is held by a live peer: wait for commits or
      // lease expiries rather than spinning on the claim files, backing off
      // further each empty pass.
      std::this_thread::sleep_for(idle_backoff.next());
    } else {
      idle_backoff.reset();
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

void ShardedSweepDriver::write_worker_metrics() const {
  const ClaimLedger ledger(options_.ledger_dir, 0, options_.lease,
                           !options_.lease_only);
  const std::string path = ledger.worker_metrics_path(worker_id_);
  const util::fs::Status committed =
      util::fs::commit_file(path, metrics::to_json_string(), worker_id_,
                            util::fs::sites::kMetricsCommit);
  if (!committed.ok()) {
    ledger_fail(path, "metrics commit failed: " + committed.message());
  }
}

MergedSweep ShardedSweepDriver::merge(const ScenarioStore& store,
                                      const ShardSink& sink) const {
  const ClaimLedger ledger(options_.ledger_dir, store.checksum(),
                           options_.lease, !options_.lease_only);
  auto& merged_counter =
      metrics::registry().counter(metrics::names::kDriverShardsMerged);
  metrics::ScopedTimer merge_timer(
      metrics::registry().timer(metrics::names::kDriverMergeWall));

  MergedSweep merged;
  merged.report.shards_total = store.shard_count();
  merged.report.shard_checksums.assign(merged.report.shards_total, 0);

  for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
    const std::string path = ledger.result_path(shard);
    const std::string context =
        "result file '" + path + "' (shard " + std::to_string(shard) + ")";
    const auto contents = util::read_file(path);
    if (!contents.has_value()) {
      throw IoError(context + ": missing — worker crashed before commit? "
                              "re-run workers to fill the gap, then merge");
    }
    const std::string& file = *contents;
    if (file.size() < kResultHeaderBytes + 8 + sizeof(kResultEndMagic) ||
        std::memcmp(file.data(), kResultMagic, sizeof kResultMagic) != 0) {
      throw IoError(context + ": bad magic or truncated header (not a "
                              "sharded-sweep result file)");
    }
    ByteReader header(file, sizeof kResultMagic, file.size(), context);
    const std::uint64_t store_checksum = header.u64();
    const std::uint64_t shard_index = header.u64();
    const std::uint64_t scenario_begin = header.u64();
    const std::uint64_t scenarios = header.u64();
    const std::uint64_t result_checksum = header.u64();
    const std::uint64_t payload_bytes = header.u64();
    if (store_checksum != store.checksum()) {
      throw IoError(context + ": was evaluated against store checksum " +
                    hex64(store_checksum) + " but this store is " +
                    hex64(store.checksum()) +
                    " (mixed-store ledger; refusing to merge)");
    }
    const ShardInfo& info = store.shard(shard);
    if (shard_index != shard || scenario_begin != info.scenario_begin ||
        scenarios != info.scenarios) {
      throw IoError(context + ": header geometry (shard " +
                    std::to_string(shard_index) + ", first scenario " +
                    std::to_string(scenario_begin) + ", " +
                    std::to_string(scenarios) +
                    " scenarios) disagrees with the store footer");
    }
    const std::size_t payload_begin = kResultHeaderBytes;
    if (file.size() !=
        payload_begin + payload_bytes + 8 + sizeof(kResultEndMagic)) {
      throw IoError(context + ": file length disagrees with the declared "
                              "payload size (truncated or overgrown)");
    }
    if (std::memcmp(file.data() + file.size() - sizeof(kResultEndMagic),
                    kResultEndMagic, sizeof kResultEndMagic) != 0) {
      throw IoError(context + ": bad end magic (partial write?)");
    }
    ByteReader trailer(file, payload_begin + payload_bytes, file.size(),
                       context);
    const std::uint64_t payload_checksum = trailer.u64();
    const std::uint64_t actual_checksum =
        util::digest64(file.data() + payload_begin, payload_bytes);
    if (payload_checksum != actual_checksum) {
      throw IoError(context + ": payload checksum mismatch (recorded " +
                    hex64(payload_checksum) + ", actual " +
                    hex64(actual_checksum) + "): corrupted result file");
    }

    ByteReader payload(file, payload_begin, payload_begin + payload_bytes,
                       context);
    BatchOutcome outcome = deserialize_outcome(
        payload, static_cast<std::size_t>(scenarios), context);
    // End-to-end digest: the deserialized results must reproduce the digest
    // the evaluating worker recorded, so a serialization bug (or payload
    // corruption that collides the payload checksum) cannot smuggle altered
    // numbers through.
    const std::uint64_t recomputed =
        checksum_model_results(outcome.results, outcome.evaluated);
    if (recomputed != result_checksum) {
      throw IoError(context + ": result digest mismatch (recorded " +
                    hex64(result_checksum) + ", deserialized " +
                    hex64(recomputed) + ")");
    }

    merged.report.shard_checksums[shard] = result_checksum;
    merged.report.scenarios_evaluated += outcome.evaluated_count();
    for (const CellFailure& failure : outcome.failures) {
      CellFailure global = failure;
      global.scenario_index += static_cast<std::size_t>(scenario_begin);
      merged.report.failures.push_back(std::move(global));
    }
    merged.report.shards_completed += 1;
    merged_counter.add();
    if (sink) {
      sink(ShardOutcome{shard, static_cast<std::size_t>(scenario_begin),
                        std::move(outcome), result_checksum});
    }
  }

  // Sum worker counters shipped as metrics::to_json files. Metrics are
  // telemetry: a malformed file fails loudly (parse_json throws) because a
  // silent partial sum would misreport the fleet's work.
  std::map<std::string, double> sums;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.ledger_dir, ec)) {
    const std::string name = entry.path().filename().string();
    // Exact suffix match: a crashed commit's leftover temporary is named
    // "<file>.tmp.<tag>" and must never be summed as a metrics file.
    constexpr std::string_view kSuffix = ".metrics.json";
    if (name.rfind("worker-", 0) != 0 || name.size() < kSuffix.size() ||
        name.compare(name.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    const auto contents = util::read_file(entry.path().string());
    if (!contents.has_value()) {
      continue;
    }
    for (const auto& row : metrics::parse_json(*contents)) {
      sums[row.name] += row.value;
    }
    merged.metrics_files += 1;
  }
  merged.worker_metrics.assign(sums.begin(), sums.end());
  return merged;
}

}  // namespace vmcons::core
