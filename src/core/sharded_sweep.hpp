// Multi-process sharded sweeps: N worker processes over one ScenarioStore.
//
// StreamingSweep (streaming_sweep.hpp) bounds a huge sweep's memory; this
// driver adds the scale-out axis the ROADMAP names: real multi-core (and
// multi-box-of-cores) throughput from *processes*, which share no allocator
// and no thread pool — so worker counts scale with hardware instead of
// oversubscribing one process's scheduler.
//
// The coordination protocol is a *claim ledger*: a directory next to the
// store where every shard's ownership and result live as files.
//
//   claim-NNNNNN.csv    who owns shard N right now: worker id, pid,
//                       hostname, a per-claim token, a wall-clock lease
//                       deadline, and the store checksum. Created with
//                       O_CREAT|O_EXCL — the kernel arbitrates racing
//                       claimers — and *reclaimed* (atomically renamed
//                       over) only when its lease expired, or — as a
//                       same-host fast path — when the record names this
//                       host and its pid is dead. The pid/hostname pair is
//                       also the diagnostic trail: a stuck sweep's claim
//                       files say exactly who to look at.
//   result-NNNNNN.bin   shard N's evaluated BatchOutcome, committed by
//                       rename from a temporary, so a result file either
//                       does not exist or is complete. Carries the store
//                       checksum, the shard geometry, a result digest
//                       (checksum_model_results), and an XXH64 payload
//                       checksum. Format VMCRSLT2; VMCRSLT1 files (FNV-1a
//                       checksums) fail the merge's magic check.
//   worker-<id>.metrics.json   the worker's metrics registry snapshot
//                       (metrics::to_json), summed by the merger.
//
// Bit-identity is the design invariant, and it holds by construction, not
// by synchronization: evaluation is deterministic (the same shard yields
// the same bytes in any process, at any worker count — the PR 4 bit-identity
// guarantee), results are committed atomically, and the merger folds result
// files in *shard order*, never completion order. So the merged sweep is
// bit-identical to a 1-process StreamingSweep over the same store no matter
// how many workers ran, how their claims interleaved, or which of them
// crashed. A worker that dies holding a claim (kill -9, fault site
// driver.shard) leaves a lease that expires — or a pid that reads as dead —
// and a peer reclaims the shard; if the dead worker had already committed,
// the reclaim never happens because committed results disqualify claims.
// Duplicate evaluation after an expiry race is possible and harmless: both
// workers commit identical bytes.
//
// The merger is strict: a result file from a different store, with garbled
// magic, a payload checksum mismatch, or a result digest that does not
// match its deserialized contents fails the merge loudly with IoError
// (ErrorCode::kIoError) naming the file and shard. Missing results are
// equally loud — merging a partial ledger is refused, not padded.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/batch_eval.hpp"
#include "core/scenario_store.hpp"
#include "core/streaming_sweep.hpp"

namespace vmcons::core {

/// One parsed claim record.
struct ShardClaim {
  std::string worker;
  long long pid = 0;
  std::string hostname;              ///< claimer's host; empty = legacy/local
  std::uint64_t token = 0;           ///< unique per claim attempt
  std::int64_t lease_deadline_ms = 0;///< wall clock, ms since epoch
  std::uint64_t store_checksum = 0;
};

/// The filesystem protocol underneath ShardedSweepDriver, exposed so tests
/// can race claims directly. All methods are safe to call concurrently from
/// any number of threads and processes.
class ClaimLedger {
 public:
  /// Creates `dir` if needed. `store_checksum` brands every record this
  /// ledger writes; claims carrying a different brand are rejected loudly
  /// (the ledger belongs to a different store).
  ///
  /// Staleness is lease-first and host-portable: a claim is always
  /// reclaimable once its lease deadline passes, whatever host wrote it.
  /// `dead_pid_fast_path` additionally reclaims a claim *before* its lease
  /// expires when the record's hostname matches this host and its pid is
  /// dead — a pure latency optimization, only sound where kill(pid, 0) is
  /// meaningful. Disable it (lease-only mode) when the ledger lives on a
  /// shared filesystem where a remote worker's pid number could collide
  /// with an unrelated live local process.
  ClaimLedger(std::string dir, std::uint64_t store_checksum,
              std::chrono::milliseconds lease,
              bool dead_pid_fast_path = true);

  const std::string& dir() const noexcept { return dir_; }
  std::string claim_path(std::size_t shard) const;
  std::string result_path(std::size_t shard) const;
  std::string worker_metrics_path(const std::string& worker_id) const;

  /// True once shard's result file has been rename-committed.
  bool result_committed(std::size_t shard) const;

  /// Attempts to own `shard`'s claim. Returns true iff the caller owns it
  /// after the call: either the O_EXCL create won, or a stale claim (dead
  /// pid / expired lease) was taken over and the read-back confirms our
  /// token. Returns false when a live peer holds an unexpired lease or the
  /// takeover race was lost. `reclaimed` (optional) reports whether the
  /// ownership came from a takeover. Throws IoError if the existing claim
  /// was branded by a different store.
  bool try_claim(std::size_t shard, const std::string& worker_id,
                 std::uint64_t token, bool* reclaimed = nullptr) const;

  /// Removes `shard`'s claim file iff it still carries `token` (never
  /// deletes a peer's claim). Best-effort: races are benign because claims
  /// for committed shards are dead records anyway.
  void release_if_ours(std::size_t shard, std::uint64_t token) const;

  /// Parses a claim file; nullopt for missing or not-yet-written records
  /// (an O_EXCL winner crashed before its write landed — treat as a claim
  /// whose lease started at the file's birth and judge by mtime).
  std::optional<ShardClaim> read_claim(std::size_t shard) const;

  /// Process-unique token for one claim attempt.
  static std::uint64_t make_token();

 private:
  std::string dir_;
  std::uint64_t store_checksum_ = 0;
  std::chrono::milliseconds lease_{30000};
  bool dead_pid_fast_path_ = true;
};

/// Execution knobs for one sharded-sweep participant (worker or merger).
struct ShardedSweepOptions {
  /// Per-shard evaluation knobs. Worker processes default `parallel` to the
  /// caller's choice — the intended production shape is one process per
  /// core with `parallel = false`, letting processes be the parallelism.
  BatchOptions batch;
  /// The claim ledger directory (created if absent). Workers and the merger
  /// must agree on it.
  std::string ledger_dir;
  /// Stable name for this worker, used in claim records and the metrics
  /// file name; must be filename-safe ([A-Za-z0-9._-]). Empty derives
  /// "w<pid>".
  std::string worker_id;
  /// How long a claim may sit uncommitted before peers may reclaim it. A
  /// claim can be held across two shard evaluations (its own, then the
  /// next one's while its commit is in flight), so a lease must cover two
  /// shards, and a crashed worker loses at most two shards' work. Dead
  /// pids are reclaimed without waiting for the lease.
  std::chrono::milliseconds lease{30000};
  /// Base sleep between passes when every unfinished shard is claimed by a
  /// live peer. The actual schedule is deterministic jittered exponential
  /// backoff (util::Backoff, seeded from the worker id) starting at `poll`,
  /// reset whenever a pass makes progress — so N blocked workers spread out
  /// instead of polling the ledger in lockstep.
  std::chrono::milliseconds poll{25};
  /// Lease-only staleness: disables the dead-pid reclaim fast path, so a
  /// claim is reclaimed strictly by lease expiry. The host-portable mode for
  /// ledgers on shared filesystems (see ClaimLedger).
  bool lease_only = false;
  /// Test hook: called after a claim becomes durable, before the shard is
  /// read or evaluated, possibly while the previous shard's commit is in
  /// flight. Tests and the worker binary use it to simulate a worker dying
  /// mid-shard (throw, or _exit) while holding a lease.
  std::function<void(std::size_t shard)> on_claimed;
};

/// What one worker process did.
struct WorkerReport {
  std::size_t shards_evaluated = 0;   ///< claimed, evaluated, committed here
  std::size_t leases_reclaimed = 0;   ///< of those, taken over from a peer
  std::uint64_t scenarios_evaluated = 0;
  bool cancelled = false;
  bool deadline_exceeded = false;
};

/// What the merger folded. `report` has exactly the shape of a 1-process
/// StreamingSweep run over the same store: shard_checksums in shard order,
/// failures carrying global scenario indices in shard order — bit-identical
/// to the single-process sweep when the evaluation options match.
struct MergedSweep {
  StreamingSweepReport report;
  /// Worker counters summed across every worker-*.metrics.json in the
  /// ledger, sorted by name (timers appear as their .ms/.calls rows).
  std::vector<std::pair<std::string, double>> worker_metrics;
  std::size_t metrics_files = 0;
};

/// The multi-process face of the sweep stack. One driver instance plays one
/// role in one process: call run_worker() from N processes, then merge()
/// from one.
class ShardedSweepDriver {
 public:
  explicit ShardedSweepDriver(ShardedSweepOptions options);

  /// Claims and evaluates shards until every shard of `store` has a
  /// committed result (returns), or the RunControl stops the worker
  /// (reported in the flags, never thrown). Evaluation failures under
  /// FailurePolicy::kQuarantine are committed inside the shard's result
  /// file exactly as StreamingSweep would record them; under kFailFast the
  /// first failure propagates and the claim is released for a peer.
  ///
  /// Each shard's durable commit runs on a thread of its own while the
  /// worker claims, reads, evaluates and encodes the next shard; at most
  /// one commit is in flight, so the worker holds at most two claims. A
  /// claim is released, and its shard counted, only after its commit is
  /// durable. A failed commit throws IoError one shard later, naming the
  /// result file; its claim, and any claim taken meanwhile, go back to the
  /// peers. The commit thread is joined before this returns or throws, so
  /// no thread outlives the call: fork before or after it, never during it.
  WorkerReport run_worker(const ScenarioStore& store) const;

  /// Writes this worker's metrics registry snapshot to the ledger
  /// (worker-<id>.metrics.json, atomic rename), for the merger to sum.
  void write_worker_metrics() const;

  /// Folds every shard's result file, in shard order, into one report,
  /// delivering each deserialized shard to `sink` (bit-identical to what a
  /// 1-process StreamingSweep would have delivered). Throws IoError for a
  /// missing, truncated, corrupted, digest-mismatched, or wrong-store
  /// result file, naming the file and shard.
  MergedSweep merge(const ScenarioStore& store,
                    const ShardSink& sink = nullptr) const;

  const ShardedSweepOptions& options() const noexcept { return options_; }
  const std::string& worker_id() const noexcept { return worker_id_; }

 private:
  ShardedSweepOptions options_;
  std::string worker_id_;
};

}  // namespace vmcons::core
