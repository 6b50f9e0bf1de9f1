// The xor_bytes kernel against a naive byte loop.
//
// xor_bytes must be byte-for-byte the naive loop on every size and
// alignment. Sizes straddle the kernel's internal block widths (4x8-byte
// stride, single words, scalar tail) and offsets force unaligned heads.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gf2/simd.hpp"

namespace radiocast::gf2 {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng() & 0xff);
  return v;
}

TEST(Simd, XorBytesMatchesNaiveLoopAcrossSizes) {
  Rng rng(0x51d0ULL);
  // Straddle every internal stride: empty, sub-word, word, 4-word block,
  // and ragged tails around each; 136 is coded_bulk's wire image (128-byte
  // payload plus the 8-byte id) and 4104 the micro bench's 4 KiB one.
  const std::size_t sizes[] = {0,  1,  3,   7,   8,   9,   15,  16,   31,   32,  33,
                               63, 64, 65, 127, 128, 136, 255, 256, 257, 1000, 4104};
  for (const std::size_t n : sizes) {
    std::vector<std::uint8_t> dst = random_bytes(n, rng);
    const std::vector<std::uint8_t> src = random_bytes(n, rng);
    std::vector<std::uint8_t> expect = dst;
    for (std::size_t i = 0; i < n; ++i) expect[i] ^= src[i];

    xor_bytes(dst.data(), src.data(), n);
    EXPECT_EQ(dst, expect) << "n=" << n;
  }
}

TEST(Simd, XorBytesHandlesUnalignedOffsets) {
  Rng rng(0x51d1ULL);
  std::vector<std::uint8_t> dst_buf = random_bytes(512, rng);
  const std::vector<std::uint8_t> src_buf = random_bytes(512, rng);
  for (std::size_t dst_off = 0; dst_off < 8; ++dst_off) {
    for (std::size_t src_off = 0; src_off < 8; ++src_off) {
      std::vector<std::uint8_t> dst = dst_buf;
      const std::size_t n = 300;
      std::vector<std::uint8_t> expect = dst;
      for (std::size_t i = 0; i < n; ++i) expect[dst_off + i] ^= src_buf[src_off + i];

      xor_bytes(dst.data() + dst_off, src_buf.data() + src_off, n);
      EXPECT_EQ(dst, expect) << "dst_off=" << dst_off << " src_off=" << src_off;
    }
  }
}

TEST(Simd, XorBytesIsSelfInverse) {
  Rng rng(0x51d2ULL);
  std::vector<std::uint8_t> dst = random_bytes(333, rng);
  const std::vector<std::uint8_t> original = dst;
  const std::vector<std::uint8_t> src = random_bytes(333, rng);
  xor_bytes(dst.data(), src.data(), dst.size());
  xor_bytes(dst.data(), src.data(), dst.size());
  EXPECT_EQ(dst, original);
}

TEST(Simd, XorWordsMatchesXorBytes) {
  Rng rng(0x51d3ULL);
  std::vector<std::uint64_t> dst(37);
  std::vector<std::uint64_t> src(37);
  for (auto& w : dst) w = rng();
  for (auto& w : src) w = rng();
  std::vector<std::uint64_t> expect = dst;
  for (std::size_t i = 0; i < expect.size(); ++i) expect[i] ^= src[i];

  xor_words(dst.data(), src.data(), dst.size());
  EXPECT_EQ(dst, expect);
}

TEST(Simd, KernelNameIsKnown) { EXPECT_EQ(std::string(simd_kernel_name()), "portable"); }

}  // namespace
}  // namespace radiocast::gf2
