// Differential oracle for the fast coding path.
//
// The table-driven GroupEncoder (method of four Russians) and the packed
// IncrementalDecoder (uint64 coefficient masks, payload absorption
// deferred to innovative rows) both promise byte-identity with the naive definitions: an
// encode is the plain XOR of the selected packets, a decode recovers
// exactly the original group. This file pins those promises against
// independent reference implementations that share no kernel code with
// src/gf2 — plain byte loops only — across the width spectrum the table
// encoder and the packed decoder branch on (1, partial chunk, full chunk,
// the 64-bit word boundary), ragged payload lengths, the all-zero subset,
// and redundant row streams.
#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gf2/coding.hpp"
#include "gf2/solver.hpp"

namespace radiocast::gf2 {
namespace {

// --- reference implementations (no gf2 kernels) -----------------------

// Zero-extending XOR with plain byte loops.
void ref_xor_into(Payload& dst, const Payload& src) {
  if (src.size() > dst.size()) dst.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) dst[i] ^= src[i];
}

// The definition the paper gives: the coded payload is the XOR of the
// packets selected by the coefficient bits.
Payload ref_encode(const std::vector<Payload>& packets, const BitVec& coeffs) {
  Payload out;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (coeffs.get(i)) ref_xor_into(out, packets[i]);
  }
  return out;
}

// Offline Gaussian elimination over the full row list (no incremental
// structure shared with IncrementalDecoder). Returns the solved packets,
// or an empty vector if the rows do not reach full rank.
std::vector<Payload> ref_solve(std::size_t width, std::vector<BitVec> coeffs,
                               std::vector<Payload> payloads) {
  std::vector<std::size_t> pivot_row(width, coeffs.size());
  for (std::size_t r = 0; r < coeffs.size(); ++r) {
    for (std::size_t c = 0; c < width; ++c) {
      if (!coeffs[r].get(c)) continue;
      if (pivot_row[c] == coeffs.size()) {
        pivot_row[c] = r;
        break;
      }
      coeffs[r] ^= coeffs[pivot_row[c]];
      ref_xor_into(payloads[r], payloads[pivot_row[c]]);
    }
  }
  for (std::size_t c = 0; c < width; ++c) {
    if (pivot_row[c] == coeffs.size()) return {};
  }
  // Back-substitute (columns high to low).
  for (std::size_t c = width; c-- > 0;) {
    const std::size_t pr = pivot_row[c];
    for (std::size_t cc = c + 1; cc < width; ++cc) {
      if (coeffs[pr].get(cc)) {
        coeffs[pr] ^= coeffs[pivot_row[cc]];
        ref_xor_into(payloads[pr], payloads[pivot_row[cc]]);
      }
    }
  }
  std::vector<Payload> out;
  for (std::size_t c = 0; c < width; ++c) out.push_back(payloads[pivot_row[c]]);
  return out;
}

// Payloads compare equal modulo trailing zero padding (XOR arithmetic may
// grow a sum to the longest operand).
bool same_modulo_padding(const Payload& a, const Payload& b) {
  const std::size_t common = std::min(a.size(), b.size());
  if (!std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(common), b.begin())) {
    return false;
  }
  const Payload& longer = a.size() >= b.size() ? a : b;
  return std::all_of(longer.begin() + static_cast<std::ptrdiff_t>(common), longer.end(),
                     [](std::uint8_t x) { return x == 0; });
}

// Group with ragged payload lengths (cycling through a few sizes,
// including empty) so the zero-extension rules are exercised everywhere.
std::vector<Payload> make_group(std::size_t width, Rng& rng) {
  static constexpr std::size_t kSizes[] = {24, 7, 0, 65, 24, 1, 24};
  std::vector<Payload> packets;
  for (std::size_t i = 0; i < width; ++i) {
    Payload p(kSizes[i % std::size(kSizes)]);
    for (auto& b : p) b = static_cast<std::uint8_t>(rng() & 0xff);
    packets.push_back(std::move(p));
  }
  return packets;
}

class CodingOracle : public ::testing::TestWithParam<std::size_t> {};

// Every subset drawn by encode / encode_into / encode_word_into matches
// the naive XOR byte for byte, including the all-zero subset.
TEST_P(CodingOracle, TableEncoderMatchesNaiveXor) {
  const std::size_t width = GetParam();
  Rng rng(0xE0 + width);
  const std::vector<Payload> packets = make_group(width, rng);
  GroupEncoder enc(packets);
  std::vector<BitVec> subsets;
  subsets.push_back(BitVec(width));  // all-zero: encodes to the empty sum
  subsets.push_back(BitVec::from_bits(width, [&] {
    std::vector<std::size_t> all(width);
    for (std::size_t i = 0; i < width; ++i) all[i] = i;
    return all;
  }()));
  for (std::size_t i = 0; i < width; ++i) subsets.push_back(BitVec::unit(width, i));
  for (int i = 0; i < 200; ++i) subsets.push_back(BitVec::random(width, rng));
  for (const BitVec& coeffs : subsets) {
    const Payload want = ref_encode(packets, coeffs);
    EXPECT_EQ(enc.encode(coeffs).payload, want);
    Payload out(37, 0xAA);  // stale recycled contents must be overwritten
    enc.encode_into(coeffs, out);
    EXPECT_EQ(out, want);
    Payload out2(5, 0x55);
    enc.encode_word_into(coeffs.to_word(), out2);
    EXPECT_EQ(out2, want);
  }
}

// encode_random_word_into consumes the identical RNG draw and produces the
// identical bytes as encode_random from the same stream position.
TEST_P(CodingOracle, RandomWordPathMatchesRandomBitVecPath) {
  const std::size_t width = GetParam();
  Rng rng(0xF0 + width);
  const std::vector<Payload> packets = make_group(width, rng);
  GroupEncoder enc(packets);
  for (int i = 0; i < 100; ++i) {
    Rng a(9000 + i), b(9000 + i);
    const CodedRow row = enc.encode_random(a);
    Payload out;
    const std::uint64_t coeffs = enc.encode_random_word_into(b, out);
    EXPECT_EQ(coeffs, row.coeffs.to_word());
    EXPECT_EQ(out, row.payload);
    EXPECT_EQ(a(), b()) << "RNG streams diverged";
  }
}

// A redundant-laden row stream decodes (via add_row, which forwards to the
// packed path) to exactly what offline Gaussian elimination says, which is
// the original group.
TEST_P(CodingOracle, DecoderMatchesOfflineEliminationAndGroup) {
  const std::size_t width = GetParam();
  Rng rng(0xD0 + width);
  const std::vector<Payload> packets = make_group(width, rng);
  GroupEncoder enc(packets);

  std::vector<BitVec> coeffs;
  std::vector<Payload> payloads;
  IncrementalDecoder dec(width);
  std::size_t safety = 0;
  while (!dec.complete()) {
    CodedRow row = enc.encode_random(rng);
    coeffs.push_back(row.coeffs);
    payloads.push_back(row.payload);
    dec.add_row(row);
    // Duplicate every third row: guaranteed-redundant input.
    if (coeffs.size() % 3 == 0) dec.add_row(row);
    ASSERT_LT(++safety, 10000u);
  }
  EXPECT_EQ(dec.rows_seen() - dec.redundant_rows(), width);

  const std::vector<Payload> want = ref_solve(width, coeffs, payloads);
  ASSERT_EQ(want.size(), width) << "reference says rows were not full rank";
  for (std::size_t i = 0; i < width; ++i) {
    EXPECT_TRUE(same_modulo_padding(dec.packet(i), want[i])) << "packet " << i;
    EXPECT_TRUE(same_modulo_padding(dec.packet(i), packets[i])) << "packet " << i;
  }
}

// The packed entry point proper: rows fed as (uint64, buffer) with
// arena-style recycling. Redundant rows must hand their buffer back
// untouched-by-ownership, and recycled buffers full of stale bytes must
// never leak into decoded output.
TEST_P(CodingOracle, PackedRowsWithRecycledBuffersDecodeCleanly) {
  const std::size_t width = GetParam();
  Rng rng(0xC0 + width);
  const std::vector<Payload> packets = make_group(width, rng);
  GroupEncoder enc(packets);

  std::vector<Payload> pool;
  IncrementalDecoder dec(width);
  std::size_t safety = 0;
  std::size_t redundant_returns = 0;
  while (!dec.complete()) {
    Payload buf;
    if (!pool.empty()) {
      buf = std::move(pool.back());
      pool.pop_back();
      // Poison the recycled buffer: acquire-then-overwrite must erase it.
      buf.assign(buf.capacity(), 0xEE);
    }
    const std::uint64_t coeffs = enc.encode_random_word_into(rng, buf);
    if (!dec.add_row_packed(coeffs, buf)) {
      ++redundant_returns;
      pool.push_back(std::move(buf));  // buffer stays with the caller
    }
    ASSERT_LT(++safety, 10000u);
  }
  EXPECT_EQ(redundant_returns, dec.redundant_rows());

  std::vector<Payload> got = dec.take_packets();
  ASSERT_EQ(got.size(), width);
  for (std::size_t i = 0; i < width; ++i) {
    EXPECT_TRUE(same_modulo_padding(got[i], packets[i])) << "packet " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, CodingOracle,
                         ::testing::Values<std::size_t>(1, 3, 4, 15, 16, 33, 64));

// take_packets drains the decoder once; the buffers it returns are safe to
// recycle into later decoders without any byte bleeding through.
TEST(CodingOracleRecycle, DrainedBuffersCarryNoBytesAcrossGroups) {
  constexpr std::size_t kWidth = 16;
  Rng rng(0xAB);
  std::vector<Payload> pool;
  for (int run = 0; run < 4; ++run) {
    std::vector<Payload> packets;
    for (std::size_t i = 0; i < kWidth; ++i) {
      Payload p(48);
      for (auto& b : p) b = static_cast<std::uint8_t>(rng() & 0xff);
      packets.push_back(std::move(p));
    }
    GroupEncoder enc(packets);
    IncrementalDecoder dec(kWidth);
    while (!dec.complete()) {
      Payload buf;
      if (!pool.empty()) {
        buf = std::move(pool.back());
        pool.pop_back();
      }
      const std::uint64_t coeffs = enc.encode_random_word_into(rng, buf);
      if (!dec.add_row_packed(coeffs, buf)) pool.push_back(std::move(buf));
    }
    std::vector<Payload> got = dec.take_packets();
    for (std::size_t i = 0; i < kWidth; ++i) {
      EXPECT_EQ(got[i], packets[i]) << "run " << run << " packet " << i;
    }
    // Recycle everything the decoder handed back, as the round loop does.
    for (Payload& p : got) pool.push_back(std::move(p));
  }
}

}  // namespace
}  // namespace radiocast::gf2
