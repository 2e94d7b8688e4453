#include "core/sharded_sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <map>
#include <random>
#include <sstream>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>

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
constexpr std::size_t kResultTrailerBytes = 8 + sizeof(kResultEndMagic);

std::int64_t now_wall_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void ledger_fail(const std::string& path,
                              const std::string& what) {
  throw IoError("claim ledger '" + path + "': " + what);
}

std::string shard_tag(std::size_t shard) {
  char buffer[16];
  std::snprintf(buffer, sizeof buffer, "%06zu", shard);
  return buffer;
}

std::string format_claim(const ShardClaim& claim) {
  std::ostringstream out;
  out << claim.worker << ',' << claim.pid << ',' << claim.hostname << ','
      << util::hex64(claim.token) << ',' << claim.lease_deadline_ms << ','
      << util::hex64(claim.store_checksum) << '\n';
  return out.str();
}

/// A numeric claim field parsed whole: nullopt when it is empty or any
/// character is left over, so a garbled field never reads as a number.
template <typename Int>
std::optional<Int> parse_field(const std::string& field, int base) {
  Int value{};
  const char* const end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, value, base);
  if (ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
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
  const std::size_t base = legacy ? 2 : 3;
  const auto pid = parse_field<long long>(fields[1], 10);
  const auto token = parse_field<std::uint64_t>(fields[base], 16);
  const auto deadline = parse_field<std::int64_t>(fields[base + 1], 10);
  const auto checksum = parse_field<std::uint64_t>(fields[base + 2], 16);
  if (!pid || !token || !deadline || !checksum) {
    return std::nullopt;  // garbled like a torn record: judged by file age
  }
  ShardClaim claim;
  claim.worker = fields[0];
  claim.pid = *pid;
  if (!legacy) {
    claim.hostname = fields[2];
  }
  claim.token = *token;
  claim.lease_deadline_ms = *deadline;
  claim.store_checksum = *checksum;
  return claim;
}

// --- Result file codec ----------------------------------------------------
//
// The layout is written down once, as the fields() overloads: every record
// lists its fields in file order, and three codecs walk that list. A
// ByteSizer sums a file's exact length, a ByteWriter then stores each field
// at a cursor into one buffer of that length, and a ByteReader decodes a
// payload in place, checking every read against the bytes left.

/// How a field travels: enums as u32, bools as one byte (0 or 1), numbers
/// as their own host bytes.
template <typename T>
using Wire = std::conditional_t<
    std::is_enum_v<T>, std::uint32_t,
    std::conditional_t<std::is_same_v<T, bool>, std::uint8_t, T>>;

/// A record of type `Record`, const when encoding and mutable when decoding.
template <typename T, typename Record>
concept RecordOf = std::same_as<std::remove_const_t<T>, Record>;

/// The header's fields after the magic.
struct ResultHeader {
  std::uint64_t store_checksum = 0;
  std::uint64_t shard_index = 0;
  std::uint64_t scenario_begin = 0;
  std::uint64_t scenarios = 0;
  std::uint64_t result_checksum = 0;
  std::uint64_t payload_bytes = 0;
};

template <typename Codec, RecordOf<ResultHeader> Header>
void fields(Codec& c, Header& header) {
  c.field(header.store_checksum);
  c.field(header.shard_index);
  c.field(header.scenario_begin);
  c.field(header.scenarios);
  c.field(header.result_checksum);
  c.field(header.payload_bytes);
}

static_assert(sizeof(std::size_t) == sizeof(std::uint64_t),
              "scenario indices travel as u64");

template <typename Codec, RecordOf<CellFailure> Failure>
void fields(Codec& c, Failure& failure) {
  c.field(failure.scenario_index);
  c.field(failure.code);
  c.field(failure.message);
}

template <typename Codec, RecordOf<ServicePlan> Plan>
void fields(Codec& c, Plan& plan) {
  c.field(plan.name);
  for (const dc::Resource resource : dc::all_resources()) {
    c.field(plan.offered_load[resource]);
  }
  for (auto& servers : plan.servers_per_resource) {
    c.field(servers);
  }
  c.field(plan.servers);
  c.field(plan.blocking);
}

template <typename Codec, RecordOf<ConsolidatedResourcePlan> Plan>
void fields(Codec& c, Plan& plan) {
  c.field(plan.resource);
  c.field(plan.merged_arrival_rate);
  c.field(plan.effective_service_rate);
  c.field(plan.offered_load);
  c.field(plan.servers);
  c.field(plan.demanded);
}

template <typename Codec, RecordOf<ClassAllocation> Allocation>
void fields(Codec& c, Allocation& alloc) {
  c.field(alloc.name);
  c.field(alloc.speed);
  c.field(alloc.available);
  c.field(alloc.dedicated_servers);
  c.field(alloc.consolidated_servers);
  c.field(alloc.dedicated_power_watts);
  c.field(alloc.consolidated_power_watts);
}

template <typename Codec, RecordOf<ModelResult> Result>
void fields(Codec& c, Result& result) {
  c.list(result.dedicated, "dedicated plan count");
  c.field(result.dedicated_servers);
  for (auto& plan : result.consolidated) {
    fields(c, plan);
  }
  c.field(result.consolidated_servers);
  c.field(result.consolidated_blocking);
  c.field(result.dedicated_utilization);
  c.field(result.consolidated_utilization);
  c.field(result.utilization_improvement);
  c.field(result.dedicated_power_watts);
  c.field(result.consolidated_power_watts);
  c.field(result.power_ratio);
  c.field(result.power_saving);
  c.field(result.infrastructure_saving);
  c.field(result.fleet.planned);
  c.list(result.fleet.classes, "fleet class count");
  c.field(result.fleet.dedicated_feasible);
  c.field(result.fleet.consolidated_feasible);
  c.field(result.fleet.dedicated_shortfall);
  c.field(result.fleet.consolidated_shortfall);
}

/// Counts the bytes a ByteWriter would store.
class ByteSizer {
 public:
  template <typename T>
  void field(const T&) {
    bytes_ += sizeof(Wire<T>);
  }
  void field(const std::string& text) {
    bytes_ += sizeof(std::uint32_t) + text.size();
  }
  template <typename T>
  void list(const std::vector<T>& items, const char*) {
    bytes_ += sizeof(std::uint64_t);
    for (const T& item : items) {
      fields(*this, item);
    }
  }
  void bytes(const void*, std::size_t size) { bytes_ += size; }
  std::size_t size() const { return bytes_; }

 private:
  std::size_t bytes_ = 0;
};

/// Fewest payload bytes one T occupies: its fields with every string and
/// list empty. A declared count whose elements cannot fit in the bytes left
/// is refused before it sizes an allocation.
template <typename T>
std::size_t min_bytes() {
  static const std::size_t bytes = [] {
    ByteSizer sizer;
    const T empty{};
    fields(sizer, empty);
    return sizer.size();
  }();
  return bytes;
}

/// Stores fields at a cursor into a buffer a ByteSizer sized: no bounds
/// check and no growth per field (encode_result_file asserts the total).
class ByteWriter {
 public:
  explicit ByteWriter(char* cursor) : cursor_(cursor) {}
  template <typename T>
  void field(const T& value) {
    const Wire<T> wire = static_cast<Wire<T>>(value);
    bytes(&wire, sizeof wire);
  }
  void field(const std::string& text) {
    field(static_cast<std::uint32_t>(text.size()));
    bytes(text.data(), text.size());
  }
  template <typename T>
  void list(const std::vector<T>& items, const char*) {
    field(static_cast<std::uint64_t>(items.size()));
    for (const T& item : items) {
      fields(*this, item);
    }
  }
  void bytes(const void* data, std::size_t size) {
    std::memcpy(cursor_, data, size);
    cursor_ += size;
  }
  char* cursor() const { return cursor_; }

 private:
  char* cursor_;
};

/// Bounds-checked reader over a result file; context names the file and
/// shard so a truncated or inconsistent payload fails with an actionable
/// message. Every read is one compare and a fixed-size copy; the messages
/// are built off the hot path.
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t begin, std::size_t end,
             const std::string& context)
      : data_(data), pos_(begin), end_(end), context_(context) {}

  template <typename T>
  void field(T& value) {
    Wire<T> wire{};
    bytes(&wire, sizeof wire);
    value = static_cast<T>(wire);
  }
  void field(std::string& text) {
    std::uint32_t length = 0;
    field(length);
    const std::size_t size = bounded(length, 1, "string length");
    text.assign(data_ + pos_, size);
    pos_ += size;
  }
  template <typename T>
  void list(std::vector<T>& items, const char* what) {
    std::uint64_t count = 0;
    field(count);
    items.resize(bounded(count, min_bytes<T>(), what));
    for (T& item : items) {
      fields(*this, item);
    }
  }
  void bytes(void* data, std::size_t size) {
    if (size > end_ - pos_) [[unlikely]] {
      truncated(size);
    }
    std::memcpy(data, data_ + pos_, size);
    pos_ += size;
  }
  /// bounded_count (util/error.hpp) against what is left of this payload.
  std::size_t bounded(std::uint64_t count, std::size_t bytes_each,
                      const char* field) const {
    return bounded_count(count, bytes_each, remaining(), context_, field);
  }
  std::size_t remaining() const { return end_ - pos_; }
  [[noreturn, gnu::cold, gnu::noinline]] void fail(
      const std::string& what) const {
    throw IoError(context_ + ": " + what);
  }

 private:
  [[noreturn, gnu::cold, gnu::noinline]] void truncated(
      std::size_t size) const {
    fail("payload truncated (need " + std::to_string(size) +
         " bytes at offset " + std::to_string(pos_) + " of " +
         std::to_string(end_) + ")");
  }

  const char* data_;
  std::size_t pos_;
  std::size_t end_;
  const std::string& context_;
};

/// The payload's top level: the evaluated flags, the failure records, then
/// one ModelResult per scenario. decode_outcome reads the same order.
template <typename Codec>
void encode_outcome(Codec& c, const BatchOutcome& outcome) {
  c.field(static_cast<std::uint64_t>(outcome.evaluated.size()));
  c.bytes(outcome.evaluated.data(), outcome.evaluated.size());
  c.list(outcome.failures, "failure count");
  for (const ModelResult& result : outcome.results) {
    fields(c, result);
  }
}

/// Encodes a committed shard's result file into `file`: one pass sizes it,
/// one pass writes it, and the payload is hashed where it lies. `file` is
/// the caller's buffer, reused from shard to shard.
void encode_result_file(ResultHeader header, const BatchOutcome& outcome,
                        std::string& file) {
  ByteSizer sizer;
  encode_outcome(sizer, outcome);
  header.payload_bytes = sizer.size();
  file.resize(kResultHeaderBytes + sizer.size() + kResultTrailerBytes);
  ByteWriter w(file.data());
  w.bytes(kResultMagic, sizeof kResultMagic);
  fields(w, std::as_const(header));
  const char* const payload = w.cursor();
  encode_outcome(w, outcome);
  w.field(util::digest64(payload, sizer.size()));
  w.bytes(kResultEndMagic, sizeof kResultEndMagic);
  VMCONS_ASSERT(w.cursor() == file.data() + file.size());
}

/// Decodes a result payload into `outcome` in place, reusing its capacity
/// (a committed shard is never partial, so the abort flags are cleared),
/// then checks what every committed shard holds: each cell is flagged
/// evaluated (1) or named by exactly one failure record, and the records
/// run in increasing scenario order. Whoever crafts a file reseals both
/// checksums, and the result digest never covers the failure records, so
/// only this check catches a payload that contradicts itself.
void decode_outcome(ByteReader& r, std::size_t scenarios,
                    BatchOutcome& outcome) {
  outcome.cancelled = false;
  outcome.deadline_exceeded = false;
  std::uint64_t declared = 0;
  r.field(declared);
  if (declared != scenarios) {
    r.fail("payload declares " + std::to_string(declared) +
           " scenarios but the header recorded " + std::to_string(scenarios));
  }
  outcome.evaluated.resize(
      r.bounded(declared, 1 + min_bytes<ModelResult>(), "scenario count"));
  r.bytes(outcome.evaluated.data(), scenarios);
  r.list(outcome.failures, "failure count");

  std::size_t flagged = 0;
  for (std::size_t i = 0; i < scenarios; ++i) {
    if (outcome.evaluated[i] > 1) {
      r.fail("evaluated flag " + std::to_string(outcome.evaluated[i]) +
             " of scenario " + std::to_string(i) + " is neither 0 nor 1");
    }
    flagged += outcome.evaluated[i];
  }
  for (std::size_t k = 0; k < outcome.failures.size(); ++k) {
    const std::size_t cell = outcome.failures[k].scenario_index;
    if (cell >= scenarios) {
      r.fail("failure record names scenario " + std::to_string(cell) +
             " of a " + std::to_string(scenarios) +
             "-scenario shard (out of range)");
    }
    if (k > 0 && cell <= outcome.failures[k - 1].scenario_index) {
      r.fail("failure record for scenario " + std::to_string(cell) +
             " follows one for scenario " +
             std::to_string(outcome.failures[k - 1].scenario_index) +
             " (out of order or duplicated)");
    }
    if (outcome.evaluated[cell] != 0) {
      r.fail("failure record names scenario " + std::to_string(cell) +
             ", which is flagged evaluated");
    }
  }
  if (flagged + outcome.failures.size() != scenarios) {
    r.fail(std::to_string(scenarios - flagged - outcome.failures.size()) +
           " scenarios are neither evaluated nor failed");
  }

  outcome.results.resize(scenarios);
  for (ModelResult& result : outcome.results) {
    fields(r, result);
  }
  if (r.remaining() != 0) {
    r.fail(std::to_string(r.remaining()) +
           " trailing payload bytes past the last result");
  }
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
  // write, or a numeric field that does not parse whole) is judged by file
  // age against the lease.
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
                            util::hex64(held->store_checksum) +
                            " but this sweep runs against " +
                            util::hex64(store_checksum_) +
                            " (two sweeps sharing one ledger?)");
    }
    const bool held_locally = held->hostname.empty() ||
                              held->hostname == util::local_hostname();
    const bool pid_dead =
        dead_pid_fast_path_ && held_locally &&
        !util::pid_alive(static_cast<::pid_t>(held->pid));
    stale = pid_dead || now_wall_ms() > held->lease_deadline_ms;
  } else {
    const auto age = util::file_age_ms(path);
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
      path, format_claim(mine), util::hex64(token), util::fs::sites::kClaim);
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
  VMCONS_REQUIRE(!worker_id_.empty() &&
                     std::all_of(worker_id_.begin(), worker_id_.end(),
                                 util::filename_safe_char),
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

  // Shard k's durable commit runs on its own thread while this one claims,
  // reads, evaluates and encodes shard k+1. At most one commit is in flight,
  // so the worker holds at most two claims. `file` is encoded into while
  // `committing` is on the commit thread; the two swap as each commit
  // starts. `commit` is declared after both buffers, so unwinding joins the
  // commit thread before either buffer is freed.
  std::string file;
  std::string committing;
  struct InFlight {
    std::size_t shard = 0;
    std::uint64_t token = 0;
    bool reclaimed = false;
    std::uint64_t scenarios = 0;
  } in_flight;
  std::future<util::fs::Status> commit;
  // Waits for the in-flight commit; returns false when there is none. A
  // commit that lands releases its claim and only then counts. A failed one
  // releases its claim and throws IoError naming the result file, leaving
  // the shard uncommitted for a peer rather than half-written. A crash
  // injected inside the commit rethrows here and releases nothing.
  const auto settle = [&] {
    if (!commit.valid()) {
      return false;
    }
    const util::fs::Status committed = commit.get();
    ledger.release_if_ours(in_flight.shard, in_flight.token);
    if (!committed.ok()) {
      ledger_fail(ledger.result_path(in_flight.shard),
                  "result commit for shard " +
                      std::to_string(in_flight.shard) +
                      " failed: " + committed.message());
    }
    report.shards_evaluated += 1;
    report.leases_reclaimed += in_flight.reclaimed ? 1 : 0;
    report.scenarios_evaluated += in_flight.scenarios;
    evaluated_counter.add();
    if (in_flight.reclaimed) {
      reclaimed_counter.add();
    }
    return true;
  };

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
      if (commit.valid() && shard == in_flight.shard) {
        continue;  // ours, still on the commit thread
      }
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

      encode_result_file(
          ResultHeader{
              .store_checksum = store.checksum(),
              .shard_index = shard,
              .scenario_begin = info.scenario_begin,
              .scenarios = info.scenarios,
              .result_checksum = checksum_model_results(outcome.results,
                                                        outcome.evaluated)},
          outcome, file);
      try {
        settle();
      } catch (const IoError&) {
        // The previous shard's commit failed: hand this one back as well.
        ledger.release_if_ours(shard, token);
        throw;
      }
      // Durable commit point: write + fsync a temporary, rename onto the
      // result name, fsync the ledger directory. A duplicate commit after a
      // lease expired mid-evaluation overwrites with identical bytes (the
      // evaluation is deterministic), so last-writer-wins is safe. The
      // commit thread is a fresh one, never BatchOptions::pool's: pool
      // threads do not survive fork().
      file.swap(committing);
      commit = std::async(
          std::launch::async,
          [&committing, path = ledger.result_path(shard),
           tag = util::hex64(token)] {
            return util::fs::commit_file(path, committing, tag,
                                         util::fs::sites::kResultCommit);
          });
      in_flight = InFlight{shard, token, reclaimed, outcome.evaluated_count()};
      progressed = true;
    }
    if (options_.batch.control.stop_requested()) {
      break;
    }
    if (!progressed) {
      // The in-flight commit may be all this pass waited on: land it
      // before deciding to back off.
      progressed = settle();
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
  settle();

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

  // The read buffer and the decoded outcome are reused from shard to shard:
  // the outcome goes to the sink and is taken back after it returns, so a
  // sink that leaves the results in place lets the next decode reuse them.
  std::string file;
  BatchOutcome outcome;
  for (std::size_t shard = 0; shard < store.shard_count(); ++shard) {
    const std::string path = ledger.result_path(shard);
    const std::string context =
        "result file '" + path + "' (shard " + std::to_string(shard) + ")";
    const util::fs::Status read =
        util::fs::read_file(path, file, util::fs::sites::kRead);
    if (read.err == ENOENT) {
      throw IoError(context + ": missing — worker crashed before commit? "
                              "re-run workers to fill the gap, then merge");
    }
    if (!read.ok()) {
      throw IoError("file '" + path + "': read failed after " +
                    std::to_string(read.bytes) + " bytes: " + read.message());
    }
    if (file.size() < kResultHeaderBytes + kResultTrailerBytes ||
        std::memcmp(file.data(), kResultMagic, sizeof kResultMagic) != 0) {
      throw IoError(context + ": bad magic or truncated header (not a "
                              "sharded-sweep result file)");
    }
    ResultHeader header;
    ByteReader header_reader(file.data(), sizeof kResultMagic,
                             kResultHeaderBytes, context);
    fields(header_reader, header);
    if (header.store_checksum != store.checksum()) {
      throw IoError(context + ": was evaluated against store checksum " +
                    util::hex64(header.store_checksum) + " but this store is " +
                    util::hex64(store.checksum()) +
                    " (mixed-store ledger; refusing to merge)");
    }
    const ShardInfo& info = store.shard(shard);
    if (header.shard_index != shard ||
        header.scenario_begin != info.scenario_begin ||
        header.scenarios != info.scenarios) {
      throw IoError(context + ": header geometry (shard " +
                    std::to_string(header.shard_index) + ", first scenario " +
                    std::to_string(header.scenario_begin) + ", " +
                    std::to_string(header.scenarios) +
                    " scenarios) disagrees with the store footer");
    }
    const std::size_t payload_begin = kResultHeaderBytes;
    const std::uint64_t payload_bytes = header.payload_bytes;
    if (file.size() != payload_begin + payload_bytes + kResultTrailerBytes) {
      throw IoError(context + ": file length disagrees with the declared "
                              "payload size (truncated or overgrown)");
    }
    if (std::memcmp(file.data() + file.size() - sizeof(kResultEndMagic),
                    kResultEndMagic, sizeof kResultEndMagic) != 0) {
      throw IoError(context + ": bad end magic (partial write?)");
    }
    std::uint64_t payload_checksum = 0;
    ByteReader(file.data(), payload_begin + payload_bytes, file.size(),
               context)
        .field(payload_checksum);
    const std::uint64_t actual_checksum =
        util::digest64(file.data() + payload_begin, payload_bytes);
    if (payload_checksum != actual_checksum) {
      throw IoError(context + ": payload checksum mismatch (recorded " +
                    util::hex64(payload_checksum) + ", actual " +
                    util::hex64(actual_checksum) + "): corrupted result file");
    }

    ByteReader payload(file.data(), payload_begin,
                       payload_begin + payload_bytes, context);
    decode_outcome(payload, static_cast<std::size_t>(header.scenarios),
                   outcome);
    // End-to-end digest: the deserialized results must reproduce the digest
    // the evaluating worker recorded, so a serialization bug (or payload
    // corruption that collides the payload checksum) cannot smuggle altered
    // numbers through.
    const std::uint64_t result_checksum = header.result_checksum;
    const std::uint64_t recomputed =
        checksum_model_results(outcome.results, outcome.evaluated);
    if (recomputed != result_checksum) {
      throw IoError(context + ": result digest mismatch (recorded " +
                    util::hex64(result_checksum) + ", deserialized " +
                    util::hex64(recomputed) + ")");
    }

    merged.report.shard_checksums[shard] = result_checksum;
    merged.report.scenarios_evaluated += outcome.evaluated_count();
    for (const CellFailure& failure : outcome.failures) {
      CellFailure global = failure;
      global.scenario_index += static_cast<std::size_t>(header.scenario_begin);
      merged.report.failures.push_back(std::move(global));
    }
    merged.report.shards_completed += 1;
    merged_counter.add();
    if (sink) {
      ShardOutcome delivered{shard,
                             static_cast<std::size_t>(header.scenario_begin),
                             std::move(outcome), result_checksum};
      sink(std::move(delivered));
      outcome = std::move(delivered.outcome);
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
