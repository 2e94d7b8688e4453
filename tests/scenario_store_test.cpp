// ScenarioStore: chunked columnar files round-trip ScenarioBatches
// bit-identically, and every corruption mode — flipped payload byte,
// flipped footer byte, truncated file, writer that never finished, a
// crafted count under a recomputed checksum, a pre-v3 store — is rejected
// loudly instead of feeding garbage to a million-cell sweep.
#include "core/scenario_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/scenario_batch.hpp"
#include "datacenter/server_class.hpp"
#include "file_bytes.hpp"
#include "util/digest.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "virt/impact.hpp"

namespace vmcons::core {
namespace {

/// Random but valid scenarios, fully derived from (seed, index) — the same
/// generator shape the batch determinism suites use.
ModelInputs random_inputs(std::uint64_t seed, std::size_t index) {
  Rng rng = make_stream(seed, index);
  ModelInputs inputs;
  inputs.target_loss = 1e-4 + rng.uniform() * 0.2;
  const std::size_t service_count = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < service_count; ++i) {
    dc::ServiceSpec service;
    service.name = "svc" + std::to_string(i);
    service.arrival_rate = rng.uniform(0.5, 500.0);
    bool any = false;
    for (const dc::Resource resource : dc::all_resources()) {
      if (rng.bernoulli(0.5)) {
        continue;
      }
      any = true;
      service.demand(resource, rng.uniform(1.0, 2000.0),
                     virt::Impact::constant(rng.uniform(0.05, 1.0)));
    }
    if (!any) {
      service.demand(dc::Resource::kCpu, rng.uniform(1.0, 2000.0),
                     virt::Impact::constant(rng.uniform(0.05, 1.0)));
    }
    inputs.services.push_back(std::move(service));
  }
  return inputs;
}

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "vmcons_store_" + name;
  std::remove(path.c_str());  // drop leftovers of an earlier (failed) run
  return path;
}

/// Bit-exact equality of `shard` against scenarios [begin, begin+n) of the
/// reference batch: every column, including the derived ones.
void expect_shard_matches(const ScenarioBatch& reference,
                          const ScenarioBatch& shard, std::size_t begin) {
  const std::size_t row_offset = reference.services_begin(begin);
  for (std::size_t s = 0; s < shard.size(); ++s) {
    SCOPED_TRACE("scenario " + std::to_string(begin + s));
    const std::size_t global = begin + s;
    EXPECT_EQ(shard.target_loss(s), reference.target_loss(global));
    EXPECT_EQ(shard.vm_count(s), reference.vm_count(global));
    EXPECT_EQ(shard.dedicated_power()[s].base_watts,
              reference.dedicated_power()[global].base_watts);
    EXPECT_EQ(shard.consolidated_power()[s].platform,
              reference.consolidated_power()[global].platform);
    ASSERT_EQ(shard.service_count(s), reference.service_count(global));
    for (std::size_t r = 0; r < shard.service_count(s); ++r) {
      const std::size_t local_row = shard.services_begin(s) + r;
      const std::size_t global_row = reference.services_begin(global) + r;
      EXPECT_EQ(local_row, global_row - row_offset);
      EXPECT_EQ(shard.arrival_rate()[local_row],
                reference.arrival_rate()[global_row]);
      EXPECT_EQ(shard.service_name(local_row),
                reference.service_name(global_row));
      EXPECT_EQ(shard.bottleneck_rate()[local_row],
                reference.bottleneck_rate()[global_row]);
      EXPECT_EQ(shard.effective_rate()[local_row],
                reference.effective_rate()[global_row]);
      for (const dc::Resource resource : dc::all_resources()) {
        EXPECT_EQ(shard.native_rate(resource)[local_row],
                  reference.native_rate(resource)[global_row]);
        EXPECT_EQ(shard.impact(resource)[local_row],
                  reference.impact(resource)[global_row]);
      }
    }
  }
}

/// Writes `count` generated scenarios with the given shard size, returning
/// the finish() summary.
ScenarioStoreWriter::Summary write_store(const std::string& path,
                                         std::size_t count,
                                         std::size_t shard_size,
                                         std::uint64_t seed = 7) {
  ScenarioStoreWriter writer(path, shard_size);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(writer.append(random_inputs(seed, i)), i);
  }
  return writer.finish();
}

void flip_byte(const std::string& path, std::uint64_t offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(file.is_open());
  file.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  file.read(&byte, 1);
  byte ^= 0x5a;
  file.seekp(static_cast<std::streamoff>(offset));
  file.write(&byte, 1);
}

TEST(ScenarioStore, WriteReadRoundTripIsBitIdentical) {
  const std::string path = temp_path("roundtrip.bin");
  constexpr std::size_t kScenarios = 23;
  constexpr std::size_t kShardSize = 5;
  const auto summary = write_store(path, kScenarios, kShardSize);
  EXPECT_EQ(summary.scenarios, kScenarios);
  EXPECT_EQ(summary.shards, 5u);  // 4 full shards + one of 3

  std::vector<ModelInputs> inputs;
  for (std::size_t i = 0; i < kScenarios; ++i) {
    inputs.push_back(random_inputs(7, i));
  }
  const ScenarioBatch reference = ScenarioBatch::from_inputs(inputs);

  const ScenarioStore store(path);
  EXPECT_EQ(store.scenario_count(), kScenarios);
  ASSERT_EQ(store.shard_count(), 5u);
  EXPECT_EQ(store.checksum(), summary.checksum);
  std::size_t seen = 0;
  for (std::size_t i = 0; i < store.shard_count(); ++i) {
    const ShardInfo& info = store.shard(i);
    EXPECT_EQ(info.scenario_begin, seen);
    const ScenarioBatch shard = store.read_shard(i);
    EXPECT_EQ(shard.size(), info.scenarios);
    EXPECT_EQ(shard.service_rows(), info.service_rows);
    expect_shard_matches(reference, shard, seen);
    seen += shard.size();
  }
  EXPECT_EQ(seen, kScenarios);
  std::remove(path.c_str());
}

TEST(ScenarioStore, ExactShardMultipleHasNoRaggedTail) {
  const std::string path = temp_path("exact.bin");
  const auto summary = write_store(path, 12, 4);
  EXPECT_EQ(summary.shards, 3u);
  const ScenarioStore store(path);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(store.shard(i).scenarios, 4u);
  }
  std::remove(path.c_str());
}

TEST(ScenarioStore, RejectsCorruptedShardPayload) {
  const std::string path = temp_path("corrupt_shard.bin");
  write_store(path, 10, 4);
  const ScenarioStore store(path);
  // Flip one byte inside shard 1's payload: open still succeeds (the footer
  // is intact) but reading that shard must fail its checksum.
  flip_byte(path, store.shard(1).offset + store.shard(1).bytes / 2);
  EXPECT_NO_THROW(store.read_shard(0));
  try {
    store.read_shard(1);
    FAIL() << "expected IoError";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find("checksum"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("shard 1"), std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(ScenarioStore, RejectsCorruptedFooter) {
  const std::string path = temp_path("corrupt_footer.bin");
  write_store(path, 10, 4);
  // The footer sits between the last shard payload and the 32-byte trailer.
  const std::uint64_t file_bytes = std::filesystem::file_size(path);
  flip_byte(path, file_bytes - 32 - 8);
  EXPECT_THROW(ScenarioStore{path}, IoError);
  std::remove(path.c_str());
}

TEST(ScenarioStore, RejectsTruncatedFile) {
  const std::string path = temp_path("truncated.bin");
  write_store(path, 10, 4);
  const std::uint64_t file_bytes = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, file_bytes - 7);
  EXPECT_THROW(ScenarioStore{path}, IoError);
  std::remove(path.c_str());
}

TEST(ScenarioStore, RejectsUnfinishedWriterOutput) {
  const std::string path = temp_path("unfinished.bin");
  {
    ScenarioStoreWriter writer(path, 4);
    for (std::size_t i = 0; i < 10; ++i) {
      writer.append(random_inputs(7, i));
    }
    // No finish(): simulates a writer killed mid-build.
  }
  EXPECT_THROW(ScenarioStore{path}, IoError);
  std::remove(path.c_str());
}

TEST(ScenarioStore, RejectsMissingFileAndBadShardIndex) {
  EXPECT_THROW(ScenarioStore{temp_path("never_written.bin")}, IoError);
  const std::string path = temp_path("index.bin");
  write_store(path, 4, 2);
  const ScenarioStore store(path);
  EXPECT_THROW(store.shard(2), InvalidArgument);
  EXPECT_THROW(store.read_shard(99), InvalidArgument);
  std::remove(path.c_str());
}

using file_bytes::load_u32;
using file_bytes::load_u64;
using file_bytes::put;
using file_bytes::slurp;
using file_bytes::spit;

/// Recomputes every shard payload checksum and the footer checksum after an
/// in-place edit, as the author of a crafted file would: the checksums then
/// vouch for the edit, and only the decoder's own bounds stand in the way.
void reseal(std::string& file) {
  const std::size_t trailer_at = file.size() - 32;
  const std::size_t footer_at = load_u64(file, trailer_at);
  const std::uint64_t shards = load_u64(file, footer_at);
  for (std::uint64_t i = 0; i < shards; ++i) {
    const std::size_t record = footer_at + 8 + 48 * i;
    const std::size_t offset = load_u64(file, record);
    const std::size_t bytes = load_u64(file, record + 8);
    put(file, record + 32, util::digest64(file.data() + offset, bytes));
  }
  put(file, trailer_at + 8,
      util::digest64(file.data() + footer_at, trailer_at - footer_at));
}

/// Opens `path` and reads shard 0, requiring an IoError whose message names
/// `field` — not a length_error or bad_alloc from sizing a container by a
/// count nobody checked.
void expect_read_refused_naming(const std::string& path,
                                const std::string& field) {
  try {
    const ScenarioStore store(path);
    store.read_shard(0);
    ADD_FAILURE() << "crafted " << field << " was accepted";
  } catch (const IoError& error) {
    EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
        << error.what();
  } catch (const std::exception& error) {
    ADD_FAILURE() << "crafted " << field
                  << " escaped as a non-IoError: " << error.what();
  }
}

/// A one-shard store (4 scenarios, no fleets) plus where its counted
/// fields sit, for the crafted-count tests below.
struct CraftedStore {
  std::string path;
  std::string file;
  ShardInfo shard;
  std::size_t footer_record = 0;  ///< shard 0's footer record
  std::size_t trailer_at = 0;
};

CraftedStore crafted_store(const std::string& name) {
  CraftedStore crafted;
  crafted.path = temp_path(name);
  write_store(crafted.path, 4, 4);
  crafted.shard = ScenarioStore(crafted.path).shard(0);
  crafted.file = slurp(crafted.path);
  crafted.trailer_at = crafted.file.size() - 32;
  crafted.footer_record = load_u64(crafted.file, crafted.trailer_at) + 8;
  return crafted;
}

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 40;

TEST(ScenarioStore, CraftedScenarioCountIsRefusedBeforeAllocating) {
  CraftedStore crafted = crafted_store("crafted_scenarios.bin");
  put(crafted.file, crafted.shard.offset, kHugeCount);
  put(crafted.file, crafted.footer_record + 16, kHugeCount);
  put(crafted.file, crafted.trailer_at + 16, kHugeCount);
  reseal(crafted.file);
  spit(crafted.path, crafted.file);
  expect_read_refused_naming(crafted.path, "scenario count");
  std::remove(crafted.path.c_str());
}

TEST(ScenarioStore, CraftedServiceRowCountIsRefusedBeforeAllocating) {
  CraftedStore crafted = crafted_store("crafted_rows.bin");
  put(crafted.file, crafted.shard.offset + 8, kHugeCount);
  put(crafted.file, crafted.footer_record + 24, kHugeCount);
  reseal(crafted.file);
  spit(crafted.path, crafted.file);
  expect_read_refused_naming(crafted.path, "service row count");
  std::remove(crafted.path.c_str());
}

TEST(ScenarioStore, CraftedClassRowCountIsRefusedBeforeAllocating) {
  CraftedStore crafted = crafted_store("crafted_classes.bin");
  // No scenario owns a fleet, so the payload ends with class_rows = 0 and
  // the scenarios + 1 zero class offsets.
  const std::size_t class_rows_at = crafted.shard.offset + crafted.shard.bytes -
                                    8 * (crafted.shard.scenarios + 1) - 8;
  ASSERT_EQ(load_u64(crafted.file, class_rows_at), 0u);
  put(crafted.file, class_rows_at, kHugeCount);
  reseal(crafted.file);
  spit(crafted.path, crafted.file);
  expect_read_refused_naming(crafted.path, "class row count");
  std::remove(crafted.path.c_str());
}

TEST(ScenarioStore, CraftedNameLengthIsRefusedBeforeAllocating) {
  CraftedStore crafted = crafted_store("crafted_name.bin");
  // First service name: after the per-scenario columns (loss, vms, two
  // power models, row offsets) and the per-row double columns.
  const std::size_t scenarios = crafted.shard.scenarios;
  const std::size_t name_at =
      crafted.shard.offset + 16 + scenarios * (8 + 4 + 2 * 20) +
      (scenarios + 1) * 8 +
      crafted.shard.service_rows * 8 * (3 + 2 * dc::kResourceCount);
  ASSERT_EQ(load_u32(crafted.file, name_at), std::string("svc0").size());
  put(crafted.file, name_at, std::uint32_t{0x7ffffff0});
  reseal(crafted.file);
  spit(crafted.path, crafted.file);
  expect_read_refused_naming(crafted.path, "name length");
  std::remove(crafted.path.c_str());
}

TEST(ScenarioStore, RefusesStoresThatPredateTheXxh64Checksum) {
  const std::string path = temp_path("old_version.bin");
  write_store(path, 4, 4);
  std::string file = slurp(path);
  for (const std::uint32_t old_version : {1u, 2u}) {
    put(file, 8, old_version);  // header: 8-byte magic, then u32 version
    spit(path, file);
    try {
      const ScenarioStore store(path);
      ADD_FAILURE() << "a version " << old_version << " store opened";
    } catch (const IoError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("predates the v3"), std::string::npos) << what;
      EXPECT_NE(what.find("write_sweep_store"), std::string::npos) << what;
    }
  }
  put(file, 8, std::uint32_t{4});
  spit(path, file);
  EXPECT_THROW(ScenarioStore{path}, IoError);
  std::remove(path.c_str());
}

TEST(ScenarioStore, WriterRejectsZeroShardSize) {
  EXPECT_THROW(ScenarioStoreWriter(temp_path("zero.bin"), 0), InvalidArgument);
}

/// Scenario 0 of seed 7 with a one-class fleet ("edge"), so its columns
/// carry a class row as well as service rows.
ScenarioBatch fleet_reference() {
  ModelInputs inputs = random_inputs(7, 0);
  dc::ServerClass edge;
  edge.name = "edge";
  edge.capacity[dc::Resource::kCpu] = 1.5;
  edge.capacity[dc::Resource::kDiskIo] = 2.0;
  edge.power.base_watts = 150.0;
  edge.power.max_watts = 250.0;
  edge.count = 12;
  inputs.fleet.add(edge);
  return ScenarioBatch::from_inputs(std::vector<ModelInputs>{inputs});
}

/// A minimal valid Columns set, derived from a real batch via accessors.
ScenarioBatch::Columns columns_of(const ScenarioBatch& reference) {
  ScenarioBatch::Columns columns;
  columns.target_loss = {reference.target_loss(0)};
  columns.vm_count = {reference.vm_count(0)};
  columns.dedicated_power = {reference.dedicated_power()[0]};
  columns.consolidated_power = {reference.consolidated_power()[0]};
  columns.row_begin = {0, reference.service_rows()};
  const auto rows = reference.service_rows();
  for (std::size_t row = 0; row < rows; ++row) {
    columns.arrival_rate.push_back(reference.arrival_rate()[row]);
    columns.bottleneck_rate.push_back(reference.bottleneck_rate()[row]);
    columns.effective_rate.push_back(reference.effective_rate()[row]);
    columns.service_name.push_back(reference.service_name(row));
    for (const dc::Resource resource : dc::all_resources()) {
      const auto r = static_cast<std::size_t>(resource);
      columns.native_rate[r].push_back(reference.native_rate(resource)[row]);
      columns.impact[r].push_back(reference.impact(resource)[row]);
    }
  }
  columns.class_begin = {0, reference.class_rows()};
  for (std::size_t row = 0; row < reference.class_rows(); ++row) {
    columns.class_name.push_back(reference.class_name(row));
    for (const dc::Resource resource : dc::all_resources()) {
      columns.class_capacity[static_cast<std::size_t>(resource)].push_back(
          reference.class_capacity(resource)[row]);
    }
    columns.class_base_watts.push_back(reference.class_base_watts()[row]);
    columns.class_max_watts.push_back(reference.class_max_watts()[row]);
    columns.class_count.push_back(reference.class_available()[row]);
    columns.class_speed.push_back(reference.class_speed()[row]);
  }
  return columns;
}

/// The InvalidArgument message `call` raises, or "" if it raises none.
template <typename Call>
std::string rejection(Call&& call) {
  try {
    call();
  } catch (const InvalidArgument& error) {
    return error.what();
  }
  return "";
}

std::string from_columns_rejection(ScenarioBatch::Columns columns) {
  return rejection(
      [&] { ScenarioBatch::from_columns(std::move(columns)); });
}

TEST(ScenarioBatchColumns, FromColumnsRejectsInconsistentColumns) {
  const ScenarioBatch reference = fleet_reference();
  ASSERT_EQ(reference.class_rows(), 1u);
  const auto make_columns = [&reference] { return columns_of(reference); };

  EXPECT_NO_THROW(ScenarioBatch::from_columns(make_columns()));

  auto bad_offsets = make_columns();
  bad_offsets.row_begin.back() += 1;  // offsets disagree with column lengths
  EXPECT_THROW(ScenarioBatch::from_columns(std::move(bad_offsets)),
               InvalidArgument);

  auto bad_loss = make_columns();
  bad_loss.target_loss[0] = 1.5;
  EXPECT_THROW(ScenarioBatch::from_columns(std::move(bad_loss)),
               InvalidArgument);

  auto bad_rows = make_columns();
  bad_rows.arrival_rate.pop_back();
  EXPECT_THROW(ScenarioBatch::from_columns(std::move(bad_rows)),
               InvalidArgument);

  auto bad_counts = make_columns();
  bad_counts.vm_count.push_back(2);  // scenario columns disagree
  EXPECT_THROW(ScenarioBatch::from_columns(std::move(bad_counts)),
               InvalidArgument);

  // One bad value per class field. Each stored class row must be refused
  // with the very message Fleet::add gives the same class; the expected
  // texts are the ones Fleet::add produced before class rows were checked
  // straight from the columns.
  const auto class_of = [](const ScenarioBatch::Columns& columns) {
    dc::ServerClass server_class;
    server_class.name = columns.class_name[0];
    for (const dc::Resource resource : dc::all_resources()) {
      server_class.capacity[resource] =
          columns.class_capacity[static_cast<std::size_t>(resource)][0];
    }
    server_class.power.base_watts = columns.class_base_watts[0];
    server_class.power.max_watts = columns.class_max_watts[0];
    server_class.count = columns.class_count[0];
    return server_class;
  };
  const auto expect_class_rejected = [&](ScenarioBatch::Columns columns,
                                         const std::string& expected) {
    SCOPED_TRACE(expected);
    const dc::ServerClass server_class = class_of(columns);
    EXPECT_EQ(rejection([&] { dc::Fleet().add(server_class); }), expected);
    EXPECT_EQ(from_columns_rejection(std::move(columns)), expected);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  auto unnamed = make_columns();
  unnamed.class_name[0].clear();
  expect_class_rejected(std::move(unnamed),
                        "server class needs a non-empty name");

  struct BadValue {
    double value;
    const char* text;
    const char* requirement;
  };
  const std::string positive_capacity =
      " must be > 0 (relative to the reference server)";
  for (const dc::Resource resource : dc::all_resources()) {
    for (const BadValue& bad :
         {BadValue{nan, "nan", " must be finite"},
          BadValue{inf, "inf", " must be finite"},
          BadValue{-inf, "-inf", " must be finite"},
          BadValue{0.0, "0", positive_capacity.c_str()},
          BadValue{-2.5, "-2.5", positive_capacity.c_str()}}) {
      auto columns = make_columns();
      columns.class_capacity[static_cast<std::size_t>(resource)][0] =
          bad.value;
      expect_class_rejected(std::move(columns),
                            "class 'edge': " +
                                std::string(dc::resource_name(resource)) +
                                " capacity = " + bad.text + bad.requirement);
    }
  }
  for (const BadValue& bad : {BadValue{nan, "nan", " must be finite"},
                              BadValue{inf, "inf", " must be finite"},
                              BadValue{0.0, "0", " must be > 0"},
                              BadValue{-150.0, "-150", " must be > 0"}}) {
    auto columns = make_columns();
    columns.class_base_watts[0] = bad.value;
    expect_class_rejected(std::move(columns), std::string("class 'edge': ") +
                                                  "base_watts = " + bad.text +
                                                  bad.requirement);
  }
  auto unbounded_max = make_columns();
  unbounded_max.class_max_watts[0] = inf;
  expect_class_rejected(std::move(unbounded_max),
                        "class 'edge': max_watts = inf must be finite");
  auto inverted = make_columns();
  inverted.class_max_watts[0] = 149.5;
  expect_class_rejected(
      std::move(inverted),
      "class 'edge': max_watts = 149.5 must be >= base_watts (a negative "
      "dynamic range would reward utilization with phantom savings)");

  for (const double speed : {nan, 0.0, -1.0, inf}) {
    auto columns = make_columns();
    columns.class_speed[0] = speed;
    EXPECT_EQ(from_columns_rejection(std::move(columns)),
              "class 'edge' stores a non-positive derived speed");
  }
}

TEST(ScenarioBatchColumns, FromColumnsRejectsRatesTheRowCannotDerive) {
  const ScenarioBatch reference = fleet_reference();
  const ScenarioBatch::Columns valid = columns_of(reference);
  EXPECT_EQ(from_columns_rejection(valid), "");
  const std::string service = "service '" + reference.service_name(0) + "'";
  // The first resource row 0 demands, and one it does not demand (if any).
  std::size_t demanded = dc::kResourceCount;
  std::size_t idle = dc::kResourceCount;
  for (std::size_t r = dc::kResourceCount; r-- > 0;) {
    (valid.native_rate[r][0] > 0.0 ? demanded : idle) = r;
  }
  ASSERT_LT(demanded, dc::kResourceCount);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();

  const auto expect_rejected = [&](auto&& edit, const std::string& what) {
    ScenarioBatch::Columns columns = valid;
    edit(columns);
    const std::string message = from_columns_rejection(std::move(columns));
    EXPECT_NE(message.find(service), std::string::npos) << message;
    EXPECT_NE(message.find(what), std::string::npos) << message;
  };

  for (const double rate : {nan, inf, -inf, 0.0, 1e300,
                            std::nextafter(valid.effective_rate[0], 0.0)}) {
    SCOPED_TRACE("effective rate " + std::to_string(rate));
    expect_rejected([&](auto& c) { c.effective_rate[0] = rate; },
                    "effective rate");
  }
  for (const double rate : {nan, 0.0, std::nextafter(valid.bottleneck_rate[0],
                                                     inf)}) {
    SCOPED_TRACE("bottleneck rate " + std::to_string(rate));
    expect_rejected([&](auto& c) { c.bottleneck_rate[0] = rate; },
                    "bottleneck rate");
  }
  for (const double rate : {nan, inf, -1.0}) {
    SCOPED_TRACE("native rate " + std::to_string(rate));
    expect_rejected([&](auto& c) { c.native_rate[demanded][0] = rate; },
                    "native rate");
  }
  // A tiny but legal native rate still has to match the stored rates.
  expect_rejected([&](auto& c) { c.native_rate[demanded][0] = 1e-300; },
                  "rate its native rates");
  expect_rejected(
      [&](auto& c) {
        for (std::size_t r = 0; r < dc::kResourceCount; ++r) {
          c.native_rate[r][0] = 0.0;
        }
      },
      "demands no resource");
  // The write side refuses the same native rates, so a store never holds a
  // row its reader would refuse.
  for (const double rate : {nan, inf, -1.0}) {
    SCOPED_TRACE("appended native rate " + std::to_string(rate));
    ModelInputs inputs = random_inputs(7, 0);
    inputs.services[0].native_rates[dc::Resource::kMemory] = rate;
    const std::string expected =
        "service '" + inputs.services[0].name +
        "' needs finite native rates >= 0";
    EXPECT_EQ(rejection([&] { ScenarioBatch().append(inputs); }), expected);
    EXPECT_EQ(rejection([&] { ScenarioBatch::Prototype{inputs}; }), expected);
    EXPECT_EQ(rejection([&] { UtilityAnalyticModel{inputs}; }), expected);
  }
  for (const double factor : {nan, 0.0, virt::Impact::kMinFactor / 2, 1.5,
                              -0.5}) {
    SCOPED_TRACE("impact " + std::to_string(factor));
    expect_rejected([&](auto& c) { c.impact[demanded][0] = factor; },
                    "impact factor");
    if (idle < dc::kResourceCount) {
      expect_rejected([&](auto& c) { c.impact[idle][0] = factor; },
                      "impact factor");
    }
  }
}

TEST(ScenarioStore, CraftedClassCapacityIsRefusedAsIoError) {
  const std::string path = temp_path("crafted_capacity.bin");
  {
    const ScenarioBatch reference = fleet_reference();
    ScenarioStoreWriter writer(path, 4);
    writer.write_shard(reference);
    writer.finish();
  }
  std::string file = slurp(path);
  // The class's cpu capacity (1.5) is the only such double in the file.
  const double stored = 1.5;
  const std::string pattern(reinterpret_cast<const char*>(&stored),
                            sizeof stored);
  const std::size_t at = file.find(pattern);
  ASSERT_NE(at, std::string::npos);
  ASSERT_EQ(file.find(pattern, at + 1), std::string::npos);
  put(file, at, -1.5);
  reseal(file);
  spit(path, file);
  try {
    const ScenarioStore store(path);
    store.read_shard(0);
    ADD_FAILURE() << "a crafted class capacity was accepted";
  } catch (const IoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("shard 0"), std::string::npos) << what;
    EXPECT_NE(what.find("class 'edge': cpu capacity = -1.5 must be > 0"),
              std::string::npos)
        << what;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace vmcons::core
