#include "core/scenario_store.hpp"

#include <cerrno>
#include <cstring>
#include <memory>
#include <sstream>
#include <type_traits>
#include <utility>

#include <sys/stat.h>

#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/metrics.hpp"

namespace vmcons::core {
namespace {

// File layout (host-endian, version 3):
//   header   "VMCSTOR1" | u32 version | u32 resource_count
//   shard*   u64 scenarios | u64 service_rows | columns (see serialize_shard)
//   footer   u64 shard_count | ShardInfo-per-shard as 6 x u64
//   trailer  u64 footer_offset | u64 footer_checksum | u64 scenario_count
//            | "VMCSEND1"
// Shard payload and footer checksums are util::digest64 (XXH64). Versions
// 1 and 2 checksummed with FNV-1a; they are refused at open rather than
// read, so one sweep never mixes two digest schemes in its report.
constexpr char kHeaderMagic[8] = {'V', 'M', 'C', 'S', 'T', 'O', 'R', '1'};
constexpr char kTrailerMagic[8] = {'V', 'M', 'C', 'S', 'E', 'N', 'D', '1'};
constexpr std::uint32_t kFormatVersion = 3;
constexpr std::size_t kHeaderBytes = sizeof(kHeaderMagic) + 2 * sizeof(std::uint32_t);
constexpr std::size_t kTrailerBytes = 3 * sizeof(std::uint64_t) + sizeof(kTrailerMagic);
constexpr std::size_t kShardInfoFields = 6;

// Fewest payload bytes one element of each counted column family occupies;
// a declared count whose elements cannot fit in the bytes left is refused
// before it sizes an allocation.
constexpr std::size_t kPowerModelBytes =
    2 * sizeof(double) + sizeof(std::uint32_t);
constexpr std::size_t kScenarioBytes =
    sizeof(double) + sizeof(std::uint32_t) + 2 * kPowerModelBytes +
    2 * sizeof(std::uint64_t);  // loss, vms, powers, row_begin, class_begin
constexpr std::size_t kServiceRowBytes =
    (3 + 2 * dc::kResourceCount) * sizeof(double) + sizeof(std::uint32_t);
constexpr std::size_t kClassRowBytes =
    (dc::kResourceCount + 4) * sizeof(double) + sizeof(std::uint32_t);

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw IoError("scenario store '" + path + "': " + what);
}

// Serializer into a flat byte buffer; the buffer is checksummed and written
// as one shard payload, so the checksum covers exactly what lands on disk.
class ByteSink {
 public:
  explicit ByteSink(std::vector<char>& out) : out_(out) {}

  void raw(const void* data, std::size_t bytes) {
    if (bytes == 0) {
      return;  // empty columns may hand over a null data()
    }
    const char* p = static_cast<const char*>(data);
    out_.insert(out_.end(), p, p + bytes);
  }
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void f64_column(const std::vector<double>& column) {
    raw(column.data(), column.size() * sizeof(double));
  }

 private:
  std::vector<char>& out_;
};

// Deserializer over a shard payload; every read is bounds-checked so a
// truncated or garbled payload surfaces as IoError, never as a wild read.
class ByteSource {
 public:
  ByteSource(const char* data, std::size_t size, const std::string& path,
             std::size_t shard)
      : data_(data),
        size_(size),
        context_("scenario store '" + path + "': shard " +
                 std::to_string(shard)) {}

  /// Claims the next `bytes` payload bytes and returns where they start.
  const char* take(std::size_t bytes) {
    if (bytes > size_ - pos_) {
      throw IoError(context_ + " payload is truncated (need " +
                    std::to_string(bytes) + " bytes at offset " +
                    std::to_string(pos_) + " of " + std::to_string(size_) +
                    ")");
    }
    const char* at = data_ + pos_;
    pos_ += bytes;
    return at;
  }
  void raw(void* data, std::size_t bytes) {
    if (bytes == 0) {
      return;  // empty columns may hand over a null data()
    }
    std::memcpy(data, take(bytes), bytes);
  }
  std::uint32_t u32() {
    std::uint32_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::uint64_t u64() {
    std::uint64_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  /// `count` host-endian elements stored back to back, in one bounded read.
  template <typename T>
  void column(std::vector<T>& column, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    column.resize(count);
    raw(column.data(), count * sizeof(T));
  }
  /// `count` length-prefixed names, each built in place in `names`.
  void names(std::vector<std::string>& names, std::size_t count) {
    names.clear();
    names.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t length = bounded(u32(), 1, "name length");
      names.emplace_back(take(length), length);
    }
  }
  /// bounded_count (util/error.hpp) against what is left of this payload.
  std::size_t bounded(std::uint64_t count, std::size_t bytes_each,
                      const char* field) const {
    return bounded_count(count, bytes_each, remaining(), context_, field);
  }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  std::size_t size_;
  std::string context_;
  std::size_t pos_ = 0;
};

void write_power_column(ByteSink& sink,
                        std::span<const dc::PowerModel> column) {
  for (const dc::PowerModel& model : column) {
    sink.raw(&model.base_watts, sizeof model.base_watts);
    sink.raw(&model.max_watts, sizeof model.max_watts);
    sink.u32(static_cast<std::uint32_t>(model.platform));
  }
}

void read_power_column(ByteSource& source, std::vector<dc::PowerModel>& column,
                       std::size_t count, const std::string& path,
                       std::size_t shard) {
  column.resize(count);
  const char* at = source.take(count * kPowerModelBytes);
  for (dc::PowerModel& model : column) {
    std::uint32_t platform = 0;
    std::memcpy(&model.base_watts, at, sizeof model.base_watts);
    std::memcpy(&model.max_watts, at + sizeof(double), sizeof model.max_watts);
    std::memcpy(&platform, at + 2 * sizeof(double), sizeof platform);
    at += kPowerModelBytes;
    if (platform > static_cast<std::uint32_t>(dc::Platform::kXen)) {
      std::ostringstream message;
      message << "shard " << shard << " holds unknown platform enum value "
              << platform;
      fail(path, message.str());
    }
    model.platform = static_cast<dc::Platform>(platform);
  }
}

// Serializes one batch's columns; the inverse of read_shard_payload.
void serialize_shard(const ScenarioBatch& batch, std::vector<char>& bytes) {
  bytes.clear();
  ByteSink sink(bytes);
  const std::size_t scenarios = batch.size();
  const std::size_t rows = batch.service_rows();
  sink.u64(scenarios);
  sink.u64(rows);
  for (std::size_t s = 0; s < scenarios; ++s) {
    const double loss = batch.target_loss(s);
    sink.raw(&loss, sizeof loss);
  }
  for (std::size_t s = 0; s < scenarios; ++s) {
    sink.u32(batch.vm_count(s));
  }
  write_power_column(sink, batch.dedicated_power());
  write_power_column(sink, batch.consolidated_power());
  for (std::size_t s = 0; s <= scenarios; ++s) {
    sink.u64(s == 0 ? 0 : batch.services_end(s - 1));
  }
  sink.raw(batch.arrival_rate().data(), rows * sizeof(double));
  for (const dc::Resource resource : dc::all_resources()) {
    sink.raw(batch.native_rate(resource).data(), rows * sizeof(double));
  }
  for (const dc::Resource resource : dc::all_resources()) {
    sink.raw(batch.impact(resource).data(), rows * sizeof(double));
  }
  sink.raw(batch.bottleneck_rate().data(), rows * sizeof(double));
  sink.raw(batch.effective_rate().data(), rows * sizeof(double));
  for (std::size_t row = 0; row < rows; ++row) {
    const std::string& name = batch.service_name(row);
    sink.u32(static_cast<std::uint32_t>(name.size()));
    sink.raw(name.data(), name.size());
  }
  // Fleet-class columns, mirroring the service-row scheme.
  const std::size_t class_rows = batch.class_rows();
  sink.u64(class_rows);
  for (std::size_t s = 0; s <= scenarios; ++s) {
    sink.u64(s == 0 ? 0 : batch.classes_end(s - 1));
  }
  for (const dc::Resource resource : dc::all_resources()) {
    sink.raw(batch.class_capacity(resource).data(),
             class_rows * sizeof(double));
  }
  sink.raw(batch.class_base_watts().data(), class_rows * sizeof(double));
  sink.raw(batch.class_max_watts().data(), class_rows * sizeof(double));
  sink.raw(batch.class_available().data(),
           class_rows * sizeof(std::uint64_t));
  sink.raw(batch.class_speed().data(), class_rows * sizeof(double));
  for (std::size_t row = 0; row < class_rows; ++row) {
    const std::string& name = batch.class_name(row);
    sink.u32(static_cast<std::uint32_t>(name.size()));
    sink.raw(name.data(), name.size());
  }
}

ScenarioBatch deserialize_shard(const char* bytes, std::size_t size,
                                const std::string& path, std::size_t shard,
                                const ShardInfo& info) {
  // The offset and count columns are stored as u64 and decoded in bulk.
  static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));
  static_assert(sizeof(unsigned) == sizeof(std::uint32_t));
  ByteSource source(bytes, size, path, shard);
  ScenarioBatch::Columns columns;
  const std::uint64_t declared_scenarios = source.u64();
  const std::uint64_t declared_rows = source.u64();
  if (declared_scenarios != info.scenarios ||
      declared_rows != info.service_rows) {
    std::ostringstream message;
    message << "shard " << shard << " payload declares " << declared_scenarios
            << " scenarios / " << declared_rows
            << " rows but the footer recorded " << info.scenarios << " / "
            << info.service_rows;
    fail(path, message.str());
  }
  const std::size_t scenarios =
      source.bounded(declared_scenarios, kScenarioBytes, "scenario count");
  const std::size_t rows =
      source.bounded(declared_rows, kServiceRowBytes, "service row count");
  source.column(columns.target_loss, scenarios);
  source.column(columns.vm_count, scenarios);
  read_power_column(source, columns.dedicated_power, scenarios, path, shard);
  read_power_column(source, columns.consolidated_power, scenarios, path, shard);
  source.column(columns.row_begin, scenarios + 1);
  source.column(columns.arrival_rate, rows);
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    source.column(columns.native_rate[r], rows);
  }
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    source.column(columns.impact[r], rows);
  }
  source.column(columns.bottleneck_rate, rows);
  source.column(columns.effective_rate, rows);
  source.names(columns.service_name, rows);
  const std::size_t class_rows =
      source.bounded(source.u64(), kClassRowBytes, "class row count");
  source.column(columns.class_begin, scenarios + 1);
  for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
    source.column(columns.class_capacity[r], class_rows);
  }
  source.column(columns.class_base_watts, class_rows);
  source.column(columns.class_max_watts, class_rows);
  source.column(columns.class_count, class_rows);
  source.column(columns.class_speed, class_rows);
  source.names(columns.class_name, class_rows);
  if (source.remaining() != 0) {
    std::ostringstream message;
    message << "shard " << shard << " payload has " << source.remaining()
            << " trailing bytes past the last column";
    fail(path, message.str());
  }
  // from_columns re-validates the structural invariants, so corruption that
  // happens to pass the checksum still cannot build an inconsistent batch.
  try {
    return ScenarioBatch::from_columns(std::move(columns));
  } catch (const Error& error) {
    std::ostringstream message;
    message << "shard " << shard << " deserialized into an invalid batch: "
            << error.what();
    fail(path, message.str());
  }
}

}  // namespace

ScenarioStoreWriter::ScenarioStoreWriter(std::string path,
                                         std::size_t shard_size)
    : path_(std::move(path)), shard_size_(shard_size) {
  VMCONS_REQUIRE(shard_size_ > 0, "scenario store shard size must be >= 1");
  const util::fs::Status opened =
      util::fs::create_truncate(path_, util::fs::sites::kStoreOpen, file_);
  if (!opened.ok()) {
    fail(path_, "cannot open for writing: " + opened.message());
  }
  write_checked(kHeaderMagic, sizeof kHeaderMagic, util::fs::sites::kStoreOpen);
  const std::uint32_t version = kFormatVersion;
  const std::uint32_t resources = dc::kResourceCount;
  write_checked(&version, sizeof version, util::fs::sites::kStoreOpen);
  write_checked(&resources, sizeof resources, util::fs::sites::kStoreOpen);
}

ScenarioStoreWriter::~ScenarioStoreWriter() = default;

void ScenarioStoreWriter::write_checked(const void* data, std::size_t bytes,
                                        std::string_view site) {
  const util::fs::Status status =
      util::fs::write_all(file_, data, bytes, site);
  if (!status.ok()) {
    broken_ = true;
    std::ostringstream message;
    message << "write failed at offset " << (offset_ + status.bytes)
            << " (shard " << shards_.size() << ", "
            << status.bytes << " of " << bytes << " bytes landed): "
            << status.message();
    fail(path_, message.str());
  }
  offset_ += bytes;
}

std::size_t ScenarioStoreWriter::append(const ModelInputs& inputs) {
  VMCONS_ASSERT(!finished_);
  VMCONS_ASSERT(!broken_);
  buffer_.append(inputs);
  const std::size_t global = static_cast<std::size_t>(scenario_count_);
  ++scenario_count_;
  if (buffer_.size() >= shard_size_) {
    flush_shard();
  }
  return global;
}

void ScenarioStoreWriter::write_shard(const ScenarioBatch& shard) {
  VMCONS_ASSERT(!finished_);
  VMCONS_ASSERT(!broken_);
  VMCONS_REQUIRE(buffer_.empty(),
                 "write_shard needs an empty append buffer");
  VMCONS_REQUIRE(!shard.empty() && shard.size() <= shard_size_,
                 "write_shard needs 1 to shard-size scenarios");
  scenario_count_ += shard.size();
  write_payload(shard);
}

void ScenarioStoreWriter::flush_shard() {
  if (buffer_.empty()) {
    return;
  }
  write_payload(buffer_);
  buffer_ = ScenarioBatch{};
}

void ScenarioStoreWriter::write_payload(const ScenarioBatch& shard) {
  serialize_shard(shard, payload_);
  ShardInfo info;
  info.offset = offset_;
  info.bytes = payload_.size();
  info.scenarios = shard.size();
  info.service_rows = shard.service_rows();
  info.checksum = util::digest64(payload_.data(), payload_.size());
  info.scenario_begin = scenario_count_ - shard.size();
  write_checked(payload_.data(), payload_.size(), util::fs::sites::kStoreShard);
  shards_.push_back(info);
  metrics::registry().counter(metrics::names::kStoreShardsWritten).add();
  metrics::registry()
      .counter(metrics::names::kStoreBytesWritten)
      .add(payload_.size());
}

ScenarioStoreWriter::Summary ScenarioStoreWriter::finish() {
  VMCONS_ASSERT(!finished_);
  VMCONS_ASSERT(!broken_);
  finished_ = true;
  flush_shard();

  std::vector<char> footer;
  ByteSink sink(footer);
  sink.u64(shards_.size());
  for (const ShardInfo& info : shards_) {
    sink.u64(info.offset);
    sink.u64(info.bytes);
    sink.u64(info.scenarios);
    sink.u64(info.service_rows);
    sink.u64(info.checksum);
    sink.u64(info.scenario_begin);
  }
  const std::uint64_t footer_offset = offset_;
  const std::uint64_t footer_checksum =
      util::digest64(footer.data(), footer.size());
  write_checked(footer.data(), footer.size(), util::fs::sites::kStoreFinish);
  // Commit-point ordering: everything up to and including the footer must be
  // on disk before the trailer that declares the file finished can land.
  // Otherwise a crash could leave a valid-looking trailer over unsynced
  // payload pages, and a reader would trust a file the disk never held.
  util::fs::Status synced =
      util::fs::fsync_file(file_, util::fs::sites::kStoreFinish);
  if (!synced.ok()) {
    broken_ = true;
    fail(path_, "fsync before the trailer failed: " + synced.message());
  }
  write_checked(&footer_offset, sizeof footer_offset,
                util::fs::sites::kStoreFinish);
  write_checked(&footer_checksum, sizeof footer_checksum,
                util::fs::sites::kStoreFinish);
  write_checked(&scenario_count_, sizeof scenario_count_,
                util::fs::sites::kStoreFinish);
  write_checked(kTrailerMagic, sizeof kTrailerMagic,
                util::fs::sites::kStoreFinish);
  synced = util::fs::fsync_file(file_, util::fs::sites::kStoreFinish);
  if (!synced.ok()) {
    broken_ = true;
    fail(path_, "fsync of the trailer failed: " + synced.message());
  }
  const util::fs::Status closed = file_.close();
  if (!closed.ok()) {
    broken_ = true;
    fail(path_, "close after finish failed: " + closed.message());
  }
  return Summary{scenario_count_, shards_.size(), footer_checksum};
}

ScenarioStore::ScenarioStore(std::string path) : path_(std::move(path)) {
  const util::fs::Status opened =
      util::fs::open_read(path_, util::fs::sites::kStoreRead, file_);
  if (!opened.ok()) {
    fail(path_, "cannot open for reading: " + opened.message());
  }
  struct ::stat st {};
  if (::fstat(file_.fd(), &st) != 0) {
    fail(path_, std::string("cannot stat: ") + std::strerror(errno));
  }
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < kHeaderBytes + kTrailerBytes) {
    fail(path_, "file is too small to hold a header and trailer (truncated "
                "or never finished)");
  }

  // Validation reads are positional too, through the same checked pread
  // wrapper read_shard uses, so a torn header/trailer names its offset.
  const auto read_at = [&](void* data, std::size_t bytes,
                           std::uint64_t offset, const char* what) {
    const util::fs::Status status = util::fs::pread_all(
        file_, data, bytes, offset, util::fs::sites::kStoreRead);
    if (!status.ok()) {
      std::ostringstream message;
      message << what << " read failed at offset " << (offset + status.bytes)
              << ": " << status.message();
      fail(path_, message.str());
    }
  };

  char magic[8];
  std::uint32_t version = 0;
  std::uint32_t resources = 0;
  read_at(magic, sizeof magic, 0, "header magic");
  read_at(&version, sizeof version, sizeof magic, "header version");
  read_at(&resources, sizeof resources, sizeof magic + sizeof version,
          "header resource count");
  if (std::memcmp(magic, kHeaderMagic, sizeof magic) != 0) {
    fail(path_, "bad header magic (not a scenario store)");
  }
  if (version == 1 || version == 2) {
    fail(path_, "format version " + std::to_string(version) +
                    " predates the v3 (XXH64) checksum; rewrite the store "
                    "with write_sweep_store");
  }
  if (version != kFormatVersion) {
    fail(path_, "unsupported format version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kFormatVersion) + ")");
  }
  version_ = version;
  if (resources != dc::kResourceCount) {
    std::ostringstream message;
    message << "written with " << resources << " resource kinds, this build "
            << "has " << dc::kResourceCount;
    fail(path_, message.str());
  }

  std::uint64_t footer_offset = 0;
  std::uint64_t footer_checksum = 0;
  const std::uint64_t trailer_at = file_bytes - kTrailerBytes;
  read_at(&footer_offset, sizeof footer_offset, trailer_at, "trailer");
  read_at(&footer_checksum, sizeof footer_checksum,
          trailer_at + sizeof footer_offset, "trailer");
  read_at(&scenario_count_, sizeof scenario_count_,
          trailer_at + 2 * sizeof footer_offset, "trailer");
  read_at(magic, sizeof magic, trailer_at + 3 * sizeof footer_offset,
          "trailer magic");
  if (std::memcmp(magic, kTrailerMagic, sizeof magic) != 0) {
    fail(path_, "bad trailer magic (truncated file or unfinished writer)");
  }
  if (footer_offset < kHeaderBytes ||
      footer_offset > file_bytes - kTrailerBytes) {
    fail(path_, "trailer points the footer outside the file");
  }

  const std::size_t footer_bytes =
      static_cast<std::size_t>(file_bytes - kTrailerBytes - footer_offset);
  std::vector<char> footer(footer_bytes);
  read_at(footer.data(), footer_bytes, footer_offset, "footer");
  if (util::digest64(footer.data(), footer.size()) != footer_checksum) {
    fail(path_, "footer checksum mismatch (corrupted file)");
  }
  checksum_ = footer_checksum;

  ByteSource source(footer.data(), footer.size(), path_, 0);
  const std::uint64_t shard_count = source.u64();
  if (footer_bytes !=
      sizeof(std::uint64_t) * (1 + kShardInfoFields * shard_count)) {
    fail(path_, "footer size disagrees with its shard count");
  }
  std::uint64_t scenarios_seen = 0;
  shards_.reserve(static_cast<std::size_t>(shard_count));
  for (std::uint64_t i = 0; i < shard_count; ++i) {
    ShardInfo info;
    info.offset = source.u64();
    info.bytes = source.u64();
    info.scenarios = source.u64();
    info.service_rows = source.u64();
    info.checksum = source.u64();
    info.scenario_begin = source.u64();
    if (info.offset < kHeaderBytes || info.bytes > footer_offset ||
        info.offset > footer_offset - info.bytes) {
      std::ostringstream message;
      message << "footer places shard " << i << " outside the payload region";
      fail(path_, message.str());
    }
    if (info.scenario_begin != scenarios_seen || info.scenarios == 0) {
      std::ostringstream message;
      message << "footer shard " << i << " breaks the scenario numbering at "
              << scenarios_seen;
      fail(path_, message.str());
    }
    scenarios_seen += info.scenarios;
    shards_.push_back(info);
  }
  if (scenarios_seen != scenario_count_) {
    std::ostringstream message;
    message << "footer shards sum to " << scenarios_seen
            << " scenarios but the trailer recorded " << scenario_count_;
    fail(path_, message.str());
  }
}

ScenarioStore::~ScenarioStore() = default;

const ShardInfo& ScenarioStore::shard(std::size_t index) const {
  VMCONS_REQUIRE(index < shards_.size(),
                 "shard index " + std::to_string(index) + " out of range (" +
                     std::to_string(shards_.size()) + " shards)");
  return shards_[index];
}

ScenarioBatch ScenarioStore::read_shard(std::size_t index) const {
  const ShardInfo& info = shard(index);
  const auto bytes = static_cast<std::size_t>(info.bytes);
  // Left uninitialized: pread_all either fills every byte or fails, and the
  // checksum below vouches for all of them before any is decoded.
  const auto payload = std::make_unique_for_overwrite<char[]>(bytes);
  // pread: the offset travels with each call, never with the fd, so any
  // number of concurrent read_shard calls share the descriptor safely.
  const util::fs::Status status =
      util::fs::pread_all(file_, payload.get(), bytes, info.offset,
                          util::fs::sites::kStoreRead);
  if (!status.ok()) {
    std::ostringstream message;
    message << "shard " << index << " pread failed at offset "
            << (info.offset + status.bytes) << ": "
            << (status.err == ENODATA
                    ? "hit end-of-file (file shrank since open?)"
                    : status.message());
    fail(path_, message.str());
  }
  const std::uint64_t actual = util::digest64(payload.get(), bytes);
  if (actual != info.checksum) {
    std::ostringstream message;
    message << "shard " << index << " checksum mismatch (footer "
            << std::hex << info.checksum << ", payload " << actual << std::dec
            << " over " << info.bytes << " bytes at offset " << info.offset
            << "): corrupted payload";
    fail(path_, message.str());
  }
  metrics::registry().counter(metrics::names::kStoreShardsRead).add();
  metrics::registry().counter(metrics::names::kStoreBytesRead).add(bytes);
  return deserialize_shard(payload.get(), bytes, path_, index, info);
}

}  // namespace vmcons::core
