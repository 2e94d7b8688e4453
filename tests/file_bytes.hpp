// Raw byte access to files under test, for crafting the edits no file API
// offers: read a whole file, write it back, and load or store a host-endian
// integer at a byte offset.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

namespace vmcons::file_bytes {

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

inline void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

inline std::uint64_t load_u64(const std::string& bytes, std::size_t at) {
  std::uint64_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof value);
  return value;
}

inline std::uint32_t load_u32(const std::string& bytes, std::size_t at) {
  std::uint32_t value = 0;
  std::memcpy(&value, bytes.data() + at, sizeof value);
  return value;
}

template <typename T>
void put(std::string& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof value);
}

}  // namespace vmcons::file_bytes
