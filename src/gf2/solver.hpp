// Incremental Gaussian decoder over GF(2).
//
// Stage 4 of the paper has every receiver accumulate random XOR
// combinations of a group of w = ⌈log n⌉ packets until the coefficient
// matrix reaches full rank (Lemma 3 guarantees this after O(log n)
// receptions w.h.p.), then solve for the original packets. The decoder here
// performs that elimination online: every received row is reduced against
// the current basis, so rank is always known and decoding finishes the
// moment the last pivot appears.
//
// Payloads ride along with the coefficient vectors: XORing two rows XORs
// both their coefficients and their payload bytes, which is exactly the
// field addition the paper uses (packets as elements of GF(2^b)).
//
// The basis is packed: a group has at most 64 packets (the protocol's
// coefficient header is one uint64 word, the paper's ⌈log n⌉-bit header),
// so every coefficient vector is a single uint64 mask. The basis is a flat
// mask array plus a flat payload array, and rows enter through
// `add_row_packed` without ever materializing a BitVec. Payload buffers
// move, never copy, and a redundant row hands its buffer back to the
// caller for arena recycling. `add_row` takes a BitVec row and forwards
// to the packed path.
//
// The elimination is lowest-set-bit pivoting; the decoder and the
// payload-free MaskRank tracker literally share it (`reduce_pivot_mask`
// below), so the two can never drift apart. tests/gf2/coding_oracle_test
// pins the decoder against an independent offline elimination.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "gf2/bitvec.hpp"

namespace radiocast::gf2 {

/// Raw packet payload bytes.
using Payload = std::vector<std::uint8_t>;

/// XOR-accumulates `src` into `dst`. If `src` is longer than `dst`, `dst`
/// is zero-extended first (packets in one group may differ in size; XOR in
/// GF(2^b) pads with zeros).
void xor_into(Payload& dst, const Payload& src);

/// One received coded message: payload = XOR of the group's packets
/// selected by `coeffs`.
struct CodedRow {
  BitVec coeffs;
  Payload payload;
};

/// Sentinel returned by reduce_pivot_mask for a linearly dependent row.
inline constexpr std::size_t kNoPivot = 64;

/// The shared lowest-set-bit pivot-elimination step: reduces `mask`
/// against `basis` (basis[c] = reduced row whose lowest set bit is c,
/// 0 = empty slot) until it is zero or lands on a free pivot. Calls
/// `absorb(p)` every time basis row p is XORed into the mask — the packed
/// IncrementalDecoder mirrors each absorption on the payload bytes, the
/// payload-free MaskRank passes a no-op — and writes the fully reduced
/// mask to `*reduced`. Returns the free pivot index (the caller stores
/// `*reduced` there), or kNoPivot if the row was linearly dependent.
///
/// MaskRank and IncrementalDecoder's packed path both call this exact
/// routine, so their notion of "innovative" can never diverge (the
/// lock-step property obs::PacketTracer's decode tap rests on).
template <typename Absorb>
inline std::size_t reduce_pivot_mask(std::uint64_t mask, const std::uint64_t* basis,
                                     Absorb&& absorb, std::uint64_t* reduced) {
  while (mask != 0) {
    const auto pivot = static_cast<std::size_t>(std::countr_zero(mask));
    if (basis[pivot] == 0) {
      *reduced = mask;
      return pivot;
    }
    mask ^= basis[pivot];
    absorb(pivot);
  }
  return kNoPivot;
}

class IncrementalDecoder {
 public:
  /// Decoder for a group of `width` packets; 1 <= width <= 64.
  explicit IncrementalDecoder(std::size_t width);

  std::size_t width() const { return width_; }

  /// Current rank of the received coefficient matrix.
  std::size_t rank() const { return rank_; }

  /// True once every packet of the group is recoverable.
  bool complete() const { return rank_ == width_; }

  /// Number of rows offered via add_row (including redundant ones).
  std::size_t rows_seen() const { return rows_seen_; }

  /// Number of rows that were linearly dependent on earlier rows.
  std::size_t redundant_rows() const { return redundant_rows_; }

  /// Feeds one coded message into the decoder. Returns true if the row
  /// increased the rank (was innovative). Same as add_row_packed with the
  /// row's coefficient word.
  bool add_row(CodedRow row);

  /// Feeds one row whose coefficients are the low `width` bits of
  /// `coeffs` (higher bits must be 0 — the CodedMsg wire format). On an
  /// innovative row the payload is reduced in place, then the buffer is
  /// MOVED into the basis and `payload` is left moved-from. On a redundant
  /// row — decided by a mask-only reduction, so no payload byte is ever
  /// touched — the buffer stays with the caller, untouched and capacity
  /// intact, for recycling into a PayloadArena.
  bool add_row_packed(std::uint64_t coeffs, Payload& payload);

  /// Recovers packet `index` of the group. Must only be called when
  /// `complete()`; the first call performs back-substitution, subsequent
  /// calls are O(1) lookups.
  const Payload& packet(std::size_t index);

  /// Recovers all packets (requires `complete()`).
  const std::vector<Payload>& packets();

  /// Moves the decoded payload buffers out (requires `complete()`),
  /// leaving the decoder drained: the caller keeps or recycles the
  /// buffers and must not call packet()/packets() afterwards. This is the
  /// allocation-free hand-off DisseminationState uses before resetting
  /// the decoder.
  std::vector<Payload> take_packets();

 private:
  void back_substitute();
  /// Applies one reduction chain to `payload`: xor_into of
  /// mask_payload_[p] for every set bit p of `absorbed`.
  void absorb_payloads(Payload& payload, std::uint64_t absorbed);

  std::size_t width_;
  std::size_t rank_ = 0;
  std::size_t rows_seen_ = 0;
  std::size_t redundant_rows_ = 0;
  bool solved_ = false;
  /// Packed basis: mask_basis_[c] is the reduced coefficient mask whose
  /// lowest set bit is c (0 = empty slot, valid because a stored row
  /// always contains its own pivot bit), and mask_payload_[c] the
  /// matching payload. Back-substitution recycles these buffers into
  /// decoded_ by move; the masks stay behind so late redundant rows still
  /// reduce correctly (their payload bytes are then meaningless, but
  /// redundancy is a mask-only fact and the buffer is discarded or
  /// recycled either way).
  std::vector<std::uint64_t> mask_basis_;
  std::vector<Payload> mask_payload_;
  std::vector<Payload> decoded_;
};

/// Payload-free rank tracker over GF(2) for groups of <= 64 packets,
/// with coefficient vectors packed into one uint64 (exactly the CodedMsg
/// wire format). Runs the same reduce_pivot_mask elimination as
/// IncrementalDecoder's packed path, so fed with the same row stream it
/// reaches `complete()` in the same step — this is the decode-event tap
/// the telemetry layer (obs::PacketTracer) uses to timestamp
/// rank-complete events without duplicating payload arithmetic.
class MaskRank {
 public:
  /// Tracker for a group of `width` packets; 1 <= width <= 64.
  explicit MaskRank(std::size_t width);

  std::size_t width() const { return width_; }
  std::size_t rank() const { return rank_; }
  bool complete() const { return rank_ == width_; }

  /// Reduces one coefficient mask against the basis. Returns true iff the
  /// row was innovative (increased the rank). Bits >= width must be 0.
  bool add(std::uint64_t coeffs);

 private:
  std::size_t width_;
  std::size_t rank_ = 0;
  /// basis_[c] is the reduced row whose lowest set bit is c (0 = empty).
  std::array<std::uint64_t, 64> basis_{};
};

}  // namespace radiocast::gf2
