// Bit-packed vectors over GF(2).
//
// The network-coding layer (Stage 4 of the paper) represents coefficient
// vectors of coded packets as elements of GF(2)^w with w = ⌈log n⌉. BitVec
// is a small dynamic bitset with the algebraic operations the decoder needs
// (XOR-accumulate, leading-bit queries) plus random sampling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace radiocast::gf2 {

class BitVec {
 public:
  BitVec() = default;
  /// A zero vector of `size` bits.
  explicit BitVec(std::size_t size) : size_(size), words_(word_count(size), 0) {}

  /// Builds a vector from a list of set-bit positions.
  static BitVec from_bits(std::size_t size, const std::vector<std::size_t>& ones);

  /// Uniformly random vector: each bit set independently with probability 1/2.
  static BitVec random(std::size_t size, Rng& rng);

  /// Random vector where each bit is set with probability `p`.
  static BitVec bernoulli(std::size_t size, double p, Rng& rng);

  /// Unit vector e_i.
  static BitVec unit(std::size_t size, std::size_t i);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const {
    RC_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i, bool value) {
    RC_DCHECK(i < size_);
    const std::uint64_t mask = 1ULL << (i & 63);
    if (value) {
      words_[i >> 6] |= mask;
    } else {
      words_[i >> 6] &= ~mask;
    }
  }

  void flip(std::size_t i) {
    RC_DCHECK(i < size_);
    words_[i >> 6] ^= 1ULL << (i & 63);
  }

  /// In-place XOR (addition in GF(2)^size). Sizes must match.
  BitVec& operator^=(const BitVec& other);
  friend BitVec operator^(BitVec lhs, const BitVec& rhs) {
    lhs ^= rhs;
    return lhs;
  }

  /// In-place AND. Sizes must match. Short-circuits on trailing zero words:
  /// only words up to the shorter of the two operands' highest nonzero word
  /// are combined; the rest are cleared without reading `other`.
  BitVec& operator&=(const BitVec& other);
  friend BitVec operator&(BitVec lhs, const BitVec& rhs) {
    lhs &= rhs;
    return lhs;
  }

  bool operator==(const BitVec& other) const = default;

  /// True iff all bits are zero.
  bool is_zero() const;

  /// Number of set bits. Short-circuits on trailing zero words (common for
  /// sparse transmit sets whose population lives in a prefix of the words).
  std::size_t popcount() const;

  /// The index of the single set bit iff exactly one bit is set, otherwise
  /// nullopt. Used by the reception sweep's exactly-one-transmitter
  /// detector; early-exits on the first word with two hits.
  std::optional<std::size_t> find_single_bit() const;

  /// Index of the lowest set bit, or `size()` if the vector is zero.
  std::size_t lowest_set_bit() const;

  /// Index of the highest set bit, or `size()` if the vector is zero.
  std::size_t highest_set_bit() const;

  /// Positions of all set bits, ascending.
  std::vector<std::size_t> ones() const;

  /// Dot product over GF(2) (parity of AND). Sizes must match.
  bool dot(const BitVec& other) const;

  /// The low min(size, 64) bits packed into a word — used for compact
  /// message headers (the paper's ⌈log n⌉-bit coefficient header, which by
  /// assumption fits a machine word for any feasible simulation size).
  std::uint64_t to_word() const;

  /// Inverse of `to_word`: builds a vector of `size` bits (size <= 64).
  static BitVec from_word(std::size_t size, std::uint64_t word);

  /// "0101..." rendering, bit 0 first.
  std::string to_string() const;

  // --- word-span view -------------------------------------------------
  //
  // The bit-parallel round engine operates on BitVecs as raw uint64_t
  // arrays (AND/popcount sweeps over CSR rows). The span accessors expose
  // the packed words directly; callers that write through the mutable
  // span must call clear_excess_bits() before handing the vector back to
  // bit-level code, since bits past size() in the last word are otherwise
  // unspecified.

  /// Number of 64-bit words backing the vector (= ceil(size/64)).
  std::size_t num_words() const { return words_.size(); }

  /// The packed words, bit i of the vector at words()[i/64] >> (i%64).
  /// Storage is 64-byte aligned.
  std::span<std::uint64_t> words() { return {words_.data(), words_.size()}; }
  std::span<const std::uint64_t> words() const { return {words_.data(), words_.size()}; }

  /// Grows or shrinks to `bits`, zero-filling new bits and masking any
  /// now-out-of-range tail bits.
  void resize(std::size_t bits);

  /// Clears any bits beyond size() in the last word. Required after word-
  /// level writes through words() so ==, popcount, and ones stay honest.
  void clear_excess_bits() { trim(); }

  static std::size_t word_count(std::size_t bits) { return (bits + 63) / 64; }

 private:
  /// Clears any bits beyond `size_` in the last word (keeps == and
  /// popcount honest after word-level operations).
  void trim();

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace radiocast::gf2
