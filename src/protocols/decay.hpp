// The Decay transmission pacer (Bar-Yehuda, Goldreich, Itai 1992).
//
// Decay resolves contention among an unknown number (<= Δ) of co-located
// transmitters without collision detection: an epoch consists of
// ⌈log Δ⌉ rounds and in round s (1-based) every active node transmits
// independently with probability 2^-s. For any receiver with between 1 and
// Δ transmitting neighbors, some round of the epoch has success probability
// bounded below by a constant — the workhorse fact behind BGI broadcast,
// the paper's BFS construction, and the FORWARD sub-routine (whose
// probability sequence p_s = 1/2, 1/4, ..., 2^-⌈logΔ⌉ this module
// implements verbatim).
#pragma once

#include <bit>
#include <cstdint>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace radiocast::protocols {

class Decay {
 public:
  /// An epoch has `epoch_length` rounds (the protocol stack passes
  /// ⌈log Δ̂⌉; must be >= 1).
  explicit Decay(std::uint32_t epoch_length) : epoch_length_(epoch_length) {
    RC_ASSERT(epoch_length >= 1);
  }

  std::uint32_t epoch_length() const { return epoch_length_; }

  /// Transmission probability for the round at offset `rel_round` from the
  /// start of the epoch grid: slot_probability(rel_round mod epoch_length).
  double probability(std::uint64_t rel_round) const {
    return slot_probability(static_cast<std::uint32_t>(rel_round % epoch_length_));
  }

  /// Transmission probability of epoch slot `s` (0-based, s <
  /// epoch_length): 2^-(s+1), exact in binary floating point. It is built
  /// from the IEEE-754 exponent field (biased exponent 1023 - (s+1)), so a
  /// caller that tracks its slot incrementally pays no division per round.
  double slot_probability(std::uint32_t s) const {
    RC_DCHECK(s < epoch_length_);
    return std::bit_cast<double>(static_cast<std::uint64_t>(1022 - s) << 52);
  }

  /// Draws the transmit decision for `rel_round` (relative to the epoch
  /// grid shared by all participants).
  bool decide(std::uint64_t rel_round, Rng& rng) const {
    return rng.next_bool(probability(rel_round));
  }

  /// Index of the epoch containing `rel_round`.
  std::uint64_t epoch_of(std::uint64_t rel_round) const {
    return rel_round / epoch_length_;
  }

 private:
  std::uint32_t epoch_length_;
};

/// The original Bar-Yehuda–Goldreich–Itai formulation of Decay: at the
/// start of each epoch a node draws a geometric "time to live"
/// G ∈ {1..epoch_length} (stop after each round with probability 1/2) and
/// transmits in the first G rounds of the epoch. Marginal per-round
/// transmission probabilities are 1, 1/2, 1/4, … (the independent version
/// uses 1/2, 1/4, …) and a node's rounds within an epoch are positively
/// correlated.
///
/// Both formulations give a receiver constant per-epoch success
/// probability; the library uses the independent version (what the paper's
/// FORWARD spells out) and keeps this one for the E9 ablation comparing
/// the two.
class PersistentDecay {
 public:
  explicit PersistentDecay(std::uint32_t epoch_length)
      : epoch_length_(epoch_length) {
    RC_ASSERT(epoch_length >= 1);
  }

  std::uint32_t epoch_length() const { return epoch_length_; }

  /// Transmit decision for `rel_round` on the shared epoch grid. The
  /// per-epoch TTL is drawn lazily on the first round of each epoch, so
  /// the caller must drive consecutive rounds of an epoch with the same
  /// object (skipping whole epochs is fine).
  bool decide(std::uint64_t rel_round, Rng& rng) {
    const std::uint64_t epoch = rel_round / epoch_length_;
    if (epoch != current_epoch_) {
      current_epoch_ = epoch;
      ttl_ = 1;
      while (ttl_ < epoch_length_ && rng.next_bit()) ++ttl_;
    }
    return (rel_round % epoch_length_) < ttl_;
  }

 private:
  std::uint32_t epoch_length_;
  std::uint64_t current_epoch_ = static_cast<std::uint64_t>(-1);
  std::uint32_t ttl_ = 0;
};

}  // namespace radiocast::protocols
