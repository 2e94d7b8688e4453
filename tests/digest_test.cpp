// util/digest: Digest64 is XXH64 (the published vectors hold) and feeding
// it in any split gives the one-shot digest. fnv1a64/mix64 keep their
// historical bits, which the fault-injection draws and the benchmark's
// input witnesses depend on.
#include "util/digest.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace vmcons::util {
namespace {

std::vector<unsigned char> pattern(std::size_t n) {
  std::vector<unsigned char> bytes(n);
  std::uint64_t state = 0x2009;
  for (unsigned char& b : bytes) {
    state = mix64(state);
    b = static_cast<unsigned char>(state >> 56);
  }
  return bytes;
}

TEST(Digest, PublishedXxh64Vectors) {
  EXPECT_EQ(digest64("", 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(digest64("abc", 3), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(digest64(nullptr, 0), 0xef46db3751d8e999ULL);
  EXPECT_EQ(Digest64().digest(), 0xef46db3751d8e999ULL);
}

TEST(Digest, StreamingEqualsOneShotAtEverySplit) {
  const std::vector<unsigned char> bytes = pattern(101);
  for (std::size_t n = 0; n <= 100; ++n) {
    const std::uint64_t expected = digest64(bytes.data(), n);
    for (std::size_t split = 0; split <= n; ++split) {
      Digest64 digest;
      digest.update(bytes.data(), split);
      digest.update(bytes.data() + split, n - split);
      ASSERT_EQ(digest.digest(), expected) << "n=" << n << " split=" << split;
    }
  }
}

TEST(Digest, StreamingAcrossTheStripeEdge) {
  // Buffered fill of 1..31 bytes, then a run that completes the stripe
  // and continues through several bulk stripes and a ragged tail.
  const std::vector<unsigned char> bytes = pattern(300);
  for (std::size_t head = 1; head < 32; ++head) {
    const std::size_t middles[] = {32 - head, 33 - head, 64 - head, 131};
    for (const std::size_t middle : middles) {
      Digest64 digest;
      digest.update(bytes.data(), head);
      digest.update(bytes.data() + head, middle);
      digest.update(bytes.data() + head + middle, 300 - head - middle);
      ASSERT_EQ(digest.digest(), digest64(bytes.data(), 300))
          << "head=" << head << " middle=" << middle;
    }
  }
}

TEST(Digest, DigestDoesNotDisturbTheState) {
  const std::vector<unsigned char> bytes = pattern(90);
  Digest64 digest;
  digest.update(bytes.data(), 40);
  EXPECT_EQ(digest.digest(), digest64(bytes.data(), 40));
  digest.update(bytes.data() + 40, 50);
  EXPECT_EQ(digest.digest(), digest64(bytes.data(), 90));
}

TEST(Digest, FnvAndMixKeepTheirBits) {
  EXPECT_EQ(fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("b", 1, fnv1a64("a", 1)), fnv1a64("ab", 2));
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafULL);  // splitmix64's first output
}

// The text form of every digest in manifest rows, claim records and commit
// tokens: changing it would orphan ledgers and manifests already on disk.
TEST(Digest, Hex64IsLowercaseUnpadded) {
  EXPECT_EQ(hex64(0), "0");
  EXPECT_EQ(hex64(0x1f), "1f");
  EXPECT_EQ(hex64(0xdeadbeefULL), "deadbeef");
  EXPECT_EQ(hex64(0x0123456789abcdefULL), "123456789abcdef");
  EXPECT_EQ(hex64(~std::uint64_t{0}), "ffffffffffffffff");
}

}  // namespace
}  // namespace vmcons::util
