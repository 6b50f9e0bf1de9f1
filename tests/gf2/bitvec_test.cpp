#include "gf2/bitvec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace radiocast::gf2 {
namespace {

TEST(BitVec, ZeroInitialized) {
  BitVec v(100);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_TRUE(v.is_zero());
  EXPECT_EQ(v.popcount(), 0u);
  EXPECT_EQ(v.lowest_set_bit(), 100u);
  EXPECT_EQ(v.highest_set_bit(), 100u);
}

TEST(BitVec, SetGetFlip) {
  BitVec v(130);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(129));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 3u);
  v.flip(64);
  EXPECT_FALSE(v.get(64));
  EXPECT_EQ(v.popcount(), 2u);
  v.set(0, false);
  EXPECT_FALSE(v.get(0));
}

TEST(BitVec, LowestHighestSetBit) {
  BitVec v(200);
  v.set(70, true);
  v.set(150, true);
  EXPECT_EQ(v.lowest_set_bit(), 70u);
  EXPECT_EQ(v.highest_set_bit(), 150u);
}

TEST(BitVec, XorIsGroupAddition) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    BitVec a = BitVec::random(97, rng);
    BitVec b = BitVec::random(97, rng);
    BitVec c = BitVec::random(97, rng);
    // Commutative, associative, self-inverse, identity.
    EXPECT_EQ(a ^ b, b ^ a);
    EXPECT_EQ((a ^ b) ^ c, a ^ (b ^ c));
    EXPECT_TRUE((a ^ a).is_zero());
    EXPECT_EQ(a ^ BitVec(97), a);
  }
}

TEST(BitVec, OnesRoundTrip) {
  BitVec v = BitVec::from_bits(50, {3, 17, 49});
  const auto ones = v.ones();
  ASSERT_EQ(ones.size(), 3u);
  EXPECT_EQ(ones[0], 3u);
  EXPECT_EQ(ones[1], 17u);
  EXPECT_EQ(ones[2], 49u);
}

TEST(BitVec, DotProduct) {
  BitVec a = BitVec::from_bits(10, {1, 3, 5});
  BitVec b = BitVec::from_bits(10, {3, 5, 7});
  EXPECT_FALSE(a.dot(b));  // overlap {3,5}: parity 0
  BitVec c = BitVec::from_bits(10, {1});
  EXPECT_TRUE(a.dot(c));
}

TEST(BitVec, UnitVector) {
  BitVec e = BitVec::unit(8, 5);
  EXPECT_EQ(e.popcount(), 1u);
  EXPECT_TRUE(e.get(5));
  EXPECT_EQ(e.lowest_set_bit(), 5u);
}

TEST(BitVec, WordRoundTrip) {
  Rng rng(2);
  for (std::size_t size : {1u, 5u, 31u, 32u, 63u, 64u}) {
    BitVec v = BitVec::random(size, rng);
    const std::uint64_t w = v.to_word();
    EXPECT_EQ(BitVec::from_word(size, w), v);
  }
}

TEST(BitVec, ToWordMasksHighBits) {
  BitVec v(3);
  v.set(0, true);
  v.set(2, true);
  EXPECT_EQ(v.to_word(), 0b101u);
}

TEST(BitVec, RandomIsBalanced) {
  Rng rng(3);
  std::size_t total = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) total += BitVec::random(256, rng).popcount();
  const double mean = static_cast<double>(total) / trials;
  EXPECT_NEAR(mean, 128.0, 5.0);
}

TEST(BitVec, BernoulliExtremes) {
  Rng rng(4);
  EXPECT_TRUE(BitVec::bernoulli(64, 0.0, rng).is_zero());
  EXPECT_EQ(BitVec::bernoulli(64, 1.0, rng).popcount(), 64u);
}

TEST(BitVec, RandomTrimsPadding) {
  Rng rng(5);
  // Size not a multiple of 64: padding bits must stay clear so that ==,
  // popcount and is_zero are consistent.
  BitVec v = BitVec::random(70, rng);
  BitVec w = v;
  w ^= v;
  EXPECT_TRUE(w.is_zero());
  EXPECT_LE(v.popcount(), 70u);
  EXPECT_LT(v.highest_set_bit(), 70u);
}

TEST(BitVec, ToStringFormat) {
  BitVec v = BitVec::from_bits(4, {0, 3});
  EXPECT_EQ(v.to_string(), "1001");
}

TEST(BitVec, AndIntersectsSetBits) {
  const BitVec a = BitVec::from_bits(200, {0, 63, 64, 130, 199});
  const BitVec b = BitVec::from_bits(200, {0, 64, 129, 199});
  const BitVec both = a & b;
  EXPECT_EQ(both.ones(), (std::vector<std::size_t>{0, 64, 199}));

  BitVec c = a;
  c &= b;
  EXPECT_EQ(c, both);
}

TEST(BitVec, AndShortCircuitClearsTrailingWords) {
  // a populated only in its first word, b only in its last: the short-
  // circuited AND must still clear a's low word rather than keep it.
  BitVec a = BitVec::from_bits(320, {1, 2, 3});
  const BitVec b = BitVec::from_bits(320, {300, 319});
  a &= b;
  EXPECT_TRUE(a.is_zero());

  BitVec c = BitVec::from_bits(320, {300, 319});
  c &= BitVec::from_bits(320, {1, 300});
  EXPECT_EQ(c.ones(), (std::vector<std::size_t>{300}));
}

TEST(BitVec, PopcountOnSparseAndDenseVectors) {
  EXPECT_EQ(BitVec(1000).popcount(), 0u);
  EXPECT_EQ(BitVec::from_bits(1000, {5}).popcount(), 1u);
  EXPECT_EQ(BitVec::from_bits(1000, {0, 63, 64, 999}).popcount(), 4u);
  BitVec all(130);
  for (std::size_t i = 0; i < 130; ++i) all.set(i, true);
  EXPECT_EQ(all.popcount(), 130u);
}

TEST(BitVec, FindSingleBit) {
  EXPECT_EQ(BitVec(256).find_single_bit(), std::nullopt);
  EXPECT_EQ(BitVec::from_bits(256, {0}).find_single_bit(), 0u);
  EXPECT_EQ(BitVec::from_bits(256, {77}).find_single_bit(), 77u);
  EXPECT_EQ(BitVec::from_bits(256, {255}).find_single_bit(), 255u);
  // Two bits in one word, and two bits in different words: both reject.
  EXPECT_EQ(BitVec::from_bits(256, {10, 11}).find_single_bit(), std::nullopt);
  EXPECT_EQ(BitVec::from_bits(256, {10, 200}).find_single_bit(), std::nullopt);
}

TEST(BitVec, ResizePreservesPrefixAndMasksTail) {
  BitVec v = BitVec::from_bits(100, {0, 50, 99});
  v.resize(160);
  EXPECT_EQ(v.size(), 160u);
  EXPECT_EQ(v.ones(), (std::vector<std::size_t>{0, 50, 99}));

  v.resize(51);
  EXPECT_EQ(v.size(), 51u);
  EXPECT_EQ(v.ones(), (std::vector<std::size_t>{0, 50}));
  // Shrink then regrow: the truncated bits must not resurface.
  v.resize(100);
  EXPECT_EQ(v.ones(), (std::vector<std::size_t>{0, 50}));
}

TEST(BitVec, WordSpanRoundTripsWithClearExcessBits) {
  BitVec v(70);
  ASSERT_EQ(v.num_words(), 2u);
  v.words()[0] = ~0ULL;
  v.words()[1] = ~0ULL;  // sets bits 64..127, of which only 64..69 exist
  v.clear_excess_bits();
  EXPECT_EQ(v.popcount(), 70u);
  EXPECT_EQ(v.highest_set_bit(), 69u);
  BitVec expect(70);
  for (std::size_t i = 0; i < 70; ++i) expect.set(i, true);
  EXPECT_EQ(v, expect);

  const BitVec& cv = v;
  EXPECT_EQ(cv.words()[0], ~0ULL);
  EXPECT_EQ(cv.words()[1], (1ULL << 6) - 1);
}

}  // namespace
}  // namespace radiocast::gf2
