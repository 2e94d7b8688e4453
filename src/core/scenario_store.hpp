// Out-of-core scenario storage: ScenarioBatch contents as a chunked
// columnar file.
//
// The columnar batch stack (scenario_batch.hpp / batch_eval.hpp) is
// RAM-bound: a 10^6-10^7-cell what-if grid does not fit as one in-memory
// ScenarioBatch, and a sweep that dies at cell 900k restarts from zero.
// ScenarioStore fixes the first half of that (streaming_sweep.hpp fixes the
// second): scenarios are written through a ScenarioStoreWriter into
// fixed-size *shards* — each shard is one ScenarioBatch's columns,
// serialized contiguously — followed by a footer of per-shard
// {offset, bytes, scenario counts, checksum} records and a fixed-size
// trailer locating the footer. A reader then materializes any single shard
// as a ScenarioBatch without touching the rest of the file, so the working
// set of a streaming sweep is one shard, independent of the store size.
//
// Integrity is end-to-end: every shard payload carries an XXH64 checksum
// (util::digest64) in the footer, the footer itself is checksummed from the
// trailer, and a file missing its trailer (a crashed writer) is rejected at
// open. The format is host-endian — a cache/checkpoint format for one
// machine, not a portable interchange format. Stores are version 3; files
// of versions 1 and 2 (FNV-1a checksums) are refused at open and must be
// rewritten with write_sweep_store.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario_batch.hpp"
#include "util/digest.hpp"
#include "util/fs.hpp"

namespace vmcons::core {

/// FNV-1a of in-memory identities (worker ids, benchmark inputs); no
/// stored byte is checked with it.
using util::fnv1a64;

/// Location + integrity record of one shard, as stored in the footer.
struct ShardInfo {
  std::uint64_t offset = 0;         ///< payload start, bytes from file begin
  std::uint64_t bytes = 0;          ///< payload length
  std::uint64_t scenarios = 0;      ///< scenario count in this shard
  std::uint64_t service_rows = 0;   ///< flat service rows in this shard
  std::uint64_t checksum = 0;       ///< util::digest64 of the payload bytes
  std::uint64_t scenario_begin = 0; ///< global index of the first scenario
};

/// Streams scenarios into a store file, flushing a shard every `shard_size`
/// appends. Memory high-water mark is one shard's ScenarioBatch regardless
/// of how many scenarios pass through. All I/O goes through util::fs (sites
/// fs.store.open / fs.store.shard / fs.store.finish): every write is
/// checked at the call that issued it, and a failure raises IoError naming
/// the path, the shard index, and the errno. The file is only valid once
/// finish() has written the footer and trailer; finish() fsyncs the payload
/// and footer *before* the trailer lands and fsyncs again after, so a file
/// whose trailer validates is durable end to end — the trailer is the
/// commit point. A writer destroyed early (or crashed mid-write) leaves a
/// trailerless file every ScenarioStore constructor rejects.
class ScenarioStoreWriter {
 public:
  ScenarioStoreWriter(std::string path, std::size_t shard_size);
  ~ScenarioStoreWriter();

  ScenarioStoreWriter(const ScenarioStoreWriter&) = delete;
  ScenarioStoreWriter& operator=(const ScenarioStoreWriter&) = delete;

  /// Validates and buffers one scenario (ScenarioBatch::append semantics),
  /// returning its global index; flushes a shard when the buffer is full.
  std::size_t append(const ModelInputs& inputs);

  /// Writes `shard` as the next shard whole, with the bytes append() would
  /// write for the same scenarios (write_sweep_store builds each shard with
  /// ConsolidationPlanner::sweep_batch and hands it over here). Requires an
  /// empty append buffer and 1 <= shard.size() <= the shard size; a shorter
  /// shard is stored as is, like append()'s final partial shard.
  void write_shard(const ScenarioBatch& shard);

  /// What finish() wrote, in the units resume logic needs.
  struct Summary {
    std::uint64_t scenarios = 0;
    std::uint64_t shards = 0;
    std::uint64_t checksum = 0;  ///< footer checksum = the store's identity
  };

  /// Flushes the partial shard, writes the footer + trailer (with the
  /// fsync-before-trailer ordering described above), and closes the file.
  /// Must be called exactly once; append() is invalid afterwards.
  Summary finish();

 private:
  /// Checked write at `site`; on failure marks the writer broken and throws
  /// IoError naming path, current shard, and errno.
  void write_checked(const void* data, std::size_t bytes,
                     std::string_view site);
  void flush_shard();
  /// Serializes `shard` (whose scenarios scenario_count_ already counts)
  /// and records it in the footer.
  void write_payload(const ScenarioBatch& shard);

  std::string path_;
  util::fs::File file_;
  std::uint64_t offset_ = 0;  ///< bytes written so far = next write offset
  std::size_t shard_size_;
  ScenarioBatch buffer_;
  std::vector<char> payload_;  ///< serialized shard, reused across shards
  std::vector<ShardInfo> shards_;
  std::uint64_t scenario_count_ = 0;
  bool finished_ = false;
  bool broken_ = false;  ///< a write failed; further use is invalid
};

/// Read face: opens a finished store, validates trailer + footer, and
/// materializes single shards as ScenarioBatches on demand.
///
/// Shard reads are *positional* (pread on one file descriptor held for the
/// store's lifetime): there is no shared file offset to race on, so any
/// number of threads in one process — and any number of processes opening
/// the same store — can call read_shard concurrently. Every read failure
/// and checksum mismatch names the store path and the shard index, so a
/// worker's error report identifies the exact corrupt region.
class ScenarioStore {
 public:
  /// Opens and validates the file's trailer and footer (magic, version,
  /// checksum, offset sanity). Throws IoError naming the defect on any
  /// truncation or corruption; a store that opens is safe to iterate.
  explicit ScenarioStore(std::string path);
  ~ScenarioStore();

  ScenarioStore(const ScenarioStore&) = delete;
  ScenarioStore& operator=(const ScenarioStore&) = delete;

  std::size_t shard_count() const noexcept { return shards_.size(); }
  std::uint64_t scenario_count() const noexcept { return scenario_count_; }
  const ShardInfo& shard(std::size_t index) const;
  const std::string& path() const noexcept { return path_; }

  /// Footer checksum: identifies this store's exact contents, so a
  /// checkpoint manifest can refuse to resume against a different store.
  std::uint64_t checksum() const noexcept { return checksum_; }

  /// Reads, checksum-verifies, and deserializes one shard via a positional
  /// read (safe to call concurrently from any number of threads). Throws
  /// IoError naming the store path and shard index if the payload fails its
  /// footer checksum or is structurally truncated.
  ScenarioBatch read_shard(std::size_t index) const;

  /// On-disk format version the file was written with. Every store that
  /// opens is version 3: older versions are refused at open.
  std::uint32_t format_version() const noexcept { return version_; }

 private:
  std::string path_;
  std::vector<ShardInfo> shards_;
  std::uint64_t scenario_count_ = 0;
  std::uint64_t checksum_ = 0;
  std::uint32_t version_ = 0;
  /// Read-only descriptor shared by every read_shard call; positional reads
  /// (fs::pread_all at fs.store.read) keep concurrent readers from racing
  /// on a file offset.
  util::fs::File file_;
};

}  // namespace vmcons::core
