#include "gf2/solver.hpp"

#include <bit>
#include <utility>

#include "common/assert.hpp"
#include "gf2/simd.hpp"

namespace radiocast::gf2 {

void xor_into(Payload& dst, const Payload& src) {
  if (src.size() > dst.size()) dst.resize(src.size(), 0);
  xor_bytes(dst.data(), src.data(), src.size());
}

IncrementalDecoder::IncrementalDecoder(std::size_t width) : width_(width) {
  RC_ASSERT_MSG(width >= 1 && width <= 64,
                "a group's coefficient header is one 64-bit word");
  mask_basis_.assign(width, 0);
  mask_payload_.resize(width);
}

bool IncrementalDecoder::add_row(CodedRow row) {
  RC_ASSERT(row.coeffs.size() == width_);
  return add_row_packed(row.coeffs.to_word(), row.payload);
}

bool IncrementalDecoder::add_row_packed(std::uint64_t coeffs, Payload& payload) {
  RC_ASSERT(width_ == 64 || (coeffs >> width_) == 0);
  ++rows_seen_;
  // Mask-only reduction first: record which pivots get absorbed instead of
  // XORing payload bytes inside the loop. Redundancy is then decided
  // without touching the payload at all, and only an innovative row
  // applies its absorptions. Each pivot is absorbed at most once — the
  // mask's lowest set bit strictly increases through the reduction — so a
  // bitmask captures the chain losslessly.
  std::uint64_t absorbed = 0;
  std::uint64_t reduced = 0;
  const std::size_t pivot = reduce_pivot_mask(
      coeffs, mask_basis_.data(), [&](std::size_t p) { absorbed |= 1ULL << p; },
      &reduced);
  if (pivot == kNoPivot) {
    ++redundant_rows_;
    return false;  // payload untouched; the caller keeps/recycles the buffer
  }
  if (absorbed != 0) absorb_payloads(payload, absorbed);
  mask_basis_[pivot] = reduced;
  mask_payload_[pivot] = std::move(payload);
  ++rank_;
  solved_ = false;
  return true;
}

void IncrementalDecoder::absorb_payloads(Payload& payload, std::uint64_t absorbed) {
  for (std::uint64_t m = absorbed; m != 0; m &= m - 1) {
    xor_into(payload, mask_payload_[std::countr_zero(m)]);
  }
}

void IncrementalDecoder::back_substitute() {
  RC_ASSERT_MSG(complete(), "decoder is not full rank yet");
  // Eliminate upwards so each basis row becomes a unit vector; the payload
  // of row c is then exactly packet c. The decoded payloads are MOVED out
  // of the basis (no copies); the unit masks stay behind so a late
  // redundant add_row still reduces to zero against them.
  decoded_.clear();
  decoded_.reserve(width_);
  // Row-major descending order: when row r is processed every row above
  // its pivot (c > r) is already a unit vector, so the whole chain
  // mask_basis_[r] & ~e_r can be absorbed at once. Same XOR multiset as
  // the classic column-major sweep (a unit row's absorption only clears
  // its own bit), hence byte-identical packets.
  for (std::size_t r = width_; r-- > 0;) {
    const std::uint64_t absorbed = mask_basis_[r] & ~(1ULL << r);
    if (absorbed != 0) absorb_payloads(mask_payload_[r], absorbed);
    mask_basis_[r] = 1ULL << r;
  }
  for (std::size_t c = 0; c < width_; ++c) {
    decoded_.push_back(std::move(mask_payload_[c]));
  }
  solved_ = true;
}

const Payload& IncrementalDecoder::packet(std::size_t index) {
  RC_ASSERT(index < width_);
  if (!solved_) back_substitute();
  RC_ASSERT_MSG(decoded_.size() == width_, "decoder drained by take_packets");
  return decoded_[index];
}

const std::vector<Payload>& IncrementalDecoder::packets() {
  if (!solved_) back_substitute();
  return decoded_;
}

std::vector<Payload> IncrementalDecoder::take_packets() {
  if (!solved_) back_substitute();
  RC_ASSERT_MSG(decoded_.size() == width_, "decoder already drained");
  return std::move(decoded_);
}

MaskRank::MaskRank(std::size_t width) : width_(width) {
  RC_ASSERT(width >= 1 && width <= 64);
}

bool MaskRank::add(std::uint64_t coeffs) {
  RC_ASSERT(width_ == 64 || (coeffs >> width_) == 0);
  // Same elimination as IncrementalDecoder's packed path — literally the
  // shared reduce_pivot_mask routine, with a payload-free absorb.
  std::uint64_t reduced = 0;
  const std::size_t pivot =
      reduce_pivot_mask(coeffs, basis_.data(), [](std::size_t) {}, &reduced);
  if (pivot == kNoPivot) return false;
  basis_[pivot] = reduced;
  ++rank_;
  return true;
}

}  // namespace radiocast::gf2
