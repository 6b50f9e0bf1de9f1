// Random linear network coding over GF(2) — the encoder side of Stage 4.
//
// The paper's FORWARD sub-routine has each transmitting node draw a uniform
// random subset of the current packet group, XOR the selected packets, and
// transmit the sum with a ⌈log n⌉-bit header identifying the subset. This
// module implements that encoding against a decoded group held by the node.
//
// The encoder is table-driven (method of four Russians, window = 4): at
// construction the group is cut into ⌈w/4⌉ chunks of four packets and all
// 15 non-empty XOR combinations of each chunk are precomputed. An encode
// then XORs one precomputed entry per nonzero nibble of the coefficient
// vector — ~w/4 wide gf2::xor_bytes sweeps instead of ~w/2 per-packet
// calls — and is byte-identical to the naive subset XOR (associativity;
// zero-extension padding commutes), which tests/gf2/coding_oracle_test.cpp
// pins across widths and ragged payload lengths. The random-subset draw
// discipline is unchanged: encode_random and encode_random_word_into
// consume exactly the draws BitVec::random always consumed, so RNG streams
// and on-air bytes match the pre-table encoder bit for bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "gf2/solver.hpp"

namespace radiocast::gf2 {

/// A fully known packet group (payloads in group order) that a node can
/// encode from. In the protocol, the root knows the group outright and
/// relay layers obtain it from their IncrementalDecoder.
class GroupEncoder {
 public:
  /// 1 <= packets.size() <= 64: the coefficient header is one uint64 word.
  explicit GroupEncoder(std::vector<Payload> packets);

  std::size_t width() const { return packets_.size(); }
  const std::vector<Payload>& group() const { return packets_; }

  /// Encodes the subset given by `coeffs` (bit i selects packet i).
  CodedRow encode(const BitVec& coeffs) const;

  /// Same sum, accumulated into a caller-provided payload buffer (cleared
  /// first, so `out` may carry recycled capacity from a PayloadArena).
  /// Byte-identical to encode(coeffs).payload.
  void encode_into(const BitVec& coeffs, Payload& out) const;

  /// Packed-header variant: bit i of `coeffs` selects packet i, exactly
  /// the CodedMsg wire format. encode_into forwards here with the
  /// BitVec's word.
  void encode_word_into(std::uint64_t coeffs, Payload& out) const;

  /// Draws a uniform random subset (each packet independently w.p. 1/2) and
  /// encodes it — exactly the paper's transmission rule. The all-zero
  /// subset is permitted (it conveys no information but is what the
  /// uniform rule produces with probability 2^-w; the decoder simply
  /// counts it as redundant).
  CodedRow encode_random(Rng& rng) const;

  /// Allocation-free encode_random: draws the same single rng() word
  /// BitVec::random(width) would draw, encodes into `out` (an
  /// arena-recycled buffer), and returns the coefficient word for the
  /// CodedMsg header. Stream- and byte-identical to encode_random.
  std::uint64_t encode_random_word_into(Rng& rng, Payload& out) const;

 private:
  /// Entry for the `mask` subset (1 <= mask <= 15) of chunk `c`.
  const Payload& entry(std::size_t c, std::uint32_t mask) const {
    return table_[c * 15 + mask - 1];
  }
  void build_table();

  std::vector<Payload> packets_;
  /// Four-Russians chunk tables: chunk c covers packets [4c, 4c+4);
  /// table_[c*15 + m - 1] = XOR of the packets selected by nibble m
  /// (sized to the longest selected packet, like any XOR sum here).
  /// Entries whose mask selects past width() stay empty and are never
  /// addressed, because coefficient vectors never set those bits.
  std::vector<Payload> table_;
};

/// Convenience check used by tests: feeds `rows` to a fresh decoder and
/// reports whether they decode to exactly `expected`.
bool decodes_to(std::size_t width, const std::vector<CodedRow>& rows,
                const std::vector<Payload>& expected);

}  // namespace radiocast::gf2
