// Non-cryptographic 64-bit digests: the one place the repo's hash functions
// live.
//
// Digest64 is XXH64 with seed 0, the integrity checksum of every
// durable byte: scenario-store shard payloads and footers, sharded-sweep
// result payloads, and the canonical per-shard result digest
// (checksum_model_results). It consumes 32-byte stripes as four independent
// multiply-rotate lanes, so it runs near memory bandwidth where a
// byte-serial hash is bound by one dependent multiply per byte. Words are
// read little-endian, so digests match the published XXH64 vectors on every
// host (the file formats themselves stay host-endian).
//
// fnv1a64 and mix64 are the small stable hashes of in-memory identities:
// fault-injection site names, worker-id shard placement, benchmark input
// witnesses. They guard no stored byte.
//
// hex64 is the one text form a digest takes in durable records (manifest
// rows, claim records, commit tokens) and in error messages.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace vmcons::util {

/// Streaming XXH64. Feeding a byte sequence in any split yields the same
/// digest as one digest64 call over the whole sequence.
class Digest64 {
 public:
  Digest64() noexcept;

  void update(const void* data, std::size_t bytes) noexcept;

  /// Digest of everything fed so far; does not disturb the state, so
  /// feeding may continue afterwards.
  std::uint64_t digest() const noexcept;

 private:
  static constexpr std::size_t kStripe = 32;
  static constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
  static constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;

  static std::uint64_t load64(const unsigned char* p) noexcept {
    std::uint64_t v = 0;
    std::memcpy(&v, p, sizeof v);
    if constexpr (std::endian::native == std::endian::big) {
      v = __builtin_bswap64(v);
    }
    return v;
  }
  static std::uint64_t lane_round(std::uint64_t acc,
                                  std::uint64_t input) noexcept {
    return std::rotl(acc + input * kPrime2, 31) * kPrime1;
  }
  void consume_stripe(const unsigned char* p) noexcept {
    for (std::size_t lane = 0; lane < 4; ++lane) {
      acc_[lane] = lane_round(acc_[lane], load64(p + 8 * lane));
    }
    consumed_ += kStripe;
  }

  std::uint64_t acc_[4];
  std::uint64_t consumed_ = 0;  ///< bytes folded into acc_, a multiple of 32
  std::size_t fill_ = 0;  ///< bytes buffered in stripe_, always < kStripe
  unsigned char stripe_[kStripe] = {};
};

/// One-shot XXH64 of a byte range.
std::uint64_t digest64(const void* data, std::size_t bytes) noexcept;

/// FNV-1a 64-bit over a byte range. Pass a previous digest as `seed` to
/// chain incremental updates; the default seed is the FNV offset basis.
std::uint64_t fnv1a64(const void* data, std::size_t bytes,
                      std::uint64_t seed = 0xcbf29ce484222325ULL) noexcept;

/// Lowercase hex without prefix or padding ("0", "1f", "deadbeef").
std::string hex64(std::uint64_t value);

/// splitmix64 finalizer: a bijective avalanche of one word.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace vmcons::util
