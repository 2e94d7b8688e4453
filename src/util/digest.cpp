#include "util/digest.hpp"

#include <charconv>

namespace vmcons::util {
namespace {

constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

std::uint32_t load32(const unsigned char* p) noexcept {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap32(v);
  }
  return v;
}

}  // namespace

// The accumulators start from XXH64's seed-0 values.
Digest64::Digest64() noexcept
    : acc_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void Digest64::update(const void* data, std::size_t bytes) noexcept {
  if (bytes == 0) {
    return;  // empty ranges may hand over a null pointer
  }
  const auto* p = static_cast<const unsigned char*>(data);
  if (fill_ + bytes < kStripe) {
    std::memcpy(stripe_ + fill_, p, bytes);
    fill_ += bytes;
    return;
  }
  if (fill_ != 0) {
    const std::size_t take = kStripe - fill_;
    std::memcpy(stripe_ + fill_, p, take);
    consume_stripe(stripe_);
    p += take;
    bytes -= take;
    fill_ = 0;
  }
  // Bulk stripes straight from the input, accumulators in locals so the
  // four lanes stay in registers across the loop.
  std::uint64_t a0 = acc_[0], a1 = acc_[1], a2 = acc_[2], a3 = acc_[3];
  consumed_ += bytes - bytes % kStripe;
  for (; bytes >= kStripe; p += kStripe, bytes -= kStripe) {
    a0 = lane_round(a0, load64(p));
    a1 = lane_round(a1, load64(p + 8));
    a2 = lane_round(a2, load64(p + 16));
    a3 = lane_round(a3, load64(p + 24));
  }
  acc_[0] = a0;
  acc_[1] = a1;
  acc_[2] = a2;
  acc_[3] = a3;
  if (bytes != 0) {
    std::memcpy(stripe_, p, bytes);
    fill_ = bytes;
  }
}

std::uint64_t Digest64::digest() const noexcept {
  std::uint64_t h = 0;
  if (consumed_ != 0) {
    h = std::rotl(acc_[0], 1) + std::rotl(acc_[1], 7) +
        std::rotl(acc_[2], 12) + std::rotl(acc_[3], 18);
    for (const std::uint64_t acc : acc_) {
      h = (h ^ lane_round(0, acc)) * kPrime1 + kPrime4;
    }
  } else {
    h = kPrime5;
  }
  h += consumed_ + fill_;

  const unsigned char* p = stripe_;
  std::size_t left = fill_;
  for (; left >= 8; p += 8, left -= 8) {
    h ^= lane_round(0, load64(p));
    h = std::rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    h ^= static_cast<std::uint64_t>(load32(p)) * kPrime1;
    h = std::rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    h ^= *p * kPrime5;
    h = std::rotl(h, 11) * kPrime1;
  }

  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::uint64_t digest64(const void* data, std::size_t bytes) noexcept {
  Digest64 digest;
  digest.update(data, bytes);
  return digest.digest();
}

std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t hash = seed;
  for (std::size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string hex64(std::uint64_t value) {
  char buffer[16];
  char* end = std::to_chars(buffer, buffer + sizeof buffer, value, 16).ptr;
  return std::string(buffer, end);
}

}  // namespace vmcons::util
