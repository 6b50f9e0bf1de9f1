#include "gf2/coding.hpp"

#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace radiocast::gf2 {

GroupEncoder::GroupEncoder(std::vector<Payload> packets)
    : packets_(std::move(packets)) {
  RC_ASSERT_MSG(!packets_.empty() && packets_.size() <= 64,
                "a group's coefficient header is one 64-bit word");
  build_table();
}

void GroupEncoder::build_table() {
  const std::size_t w = packets_.size();
  const std::size_t chunks = (w + 3) / 4;
  table_.assign(chunks * 15, Payload{});
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t base = 4 * c;
    const std::size_t span = std::min<std::size_t>(4, w - base);
    for (std::uint32_t m = 1; m < (1u << span); ++m) {
      Payload& dst = table_[c * 15 + m - 1];
      const auto bit = static_cast<std::size_t>(std::countr_zero(m));
      const Payload& add = packets_[base + bit];
      const std::uint32_t rest = m & (m - 1);  // m without its lowest bit
      // dst = entry(rest) ^ add; entry(rest) is already built, since
      // popcount(rest) < popcount(m) and masks fill in mask order.
      if (rest != 0) dst = entry(c, rest);
      xor_into(dst, add);
    }
  }
}

CodedRow GroupEncoder::encode(const BitVec& coeffs) const {
  CodedRow row;
  row.coeffs = coeffs;
  encode_into(coeffs, row.payload);
  return row;
}

void GroupEncoder::encode_into(const BitVec& coeffs, Payload& out) const {
  RC_ASSERT(coeffs.size() == packets_.size());
  encode_word_into(coeffs.to_word(), out);
}

void GroupEncoder::encode_word_into(std::uint64_t coeffs, Payload& out) const {
  RC_ASSERT(packets_.size() == 64 || (coeffs >> packets_.size()) == 0);
  out.clear();
  bool first = true;
  for (std::size_t c = 0; coeffs != 0; ++c, coeffs >>= 4) {
    const auto nib = static_cast<std::uint32_t>(coeffs & 0xf);
    if (nib == 0) continue;
    const Payload& e = entry(c, nib);
    if (first) {
      // XOR into an empty accumulator is a copy; assign() reuses `out`'s
      // recycled capacity and skips the zero-extension pass.
      out.assign(e.begin(), e.end());
      first = false;
    } else {
      xor_into(out, e);
    }
  }
}

CodedRow GroupEncoder::encode_random(Rng& rng) const {
  return encode(BitVec::random(packets_.size(), rng));
}

std::uint64_t GroupEncoder::encode_random_word_into(Rng& rng, Payload& out) const {
  const std::size_t w = packets_.size();
  // One rng() draw masked to w bits — exactly what BitVec::random(w, rng)
  // does for a one-word vector (draw, then trim), so the stream position
  // and the drawn subset are identical to the encode_random path.
  const std::uint64_t coeffs = rng() & (w == 64 ? ~0ULL : (1ULL << w) - 1);
  encode_word_into(coeffs, out);
  return coeffs;
}

bool decodes_to(std::size_t width, const std::vector<CodedRow>& rows,
                const std::vector<Payload>& expected) {
  RC_ASSERT(expected.size() == width);
  IncrementalDecoder decoder(width);
  for (const CodedRow& row : rows) decoder.add_row(row);
  if (!decoder.complete()) return false;
  for (std::size_t i = 0; i < width; ++i) {
    // Compare modulo trailing zero padding: XOR arithmetic may have grown
    // payloads to the group's max size.
    const Payload& got = decoder.packet(i);
    const Payload& want = expected[i];
    const std::size_t common = std::min(got.size(), want.size());
    for (std::size_t b = 0; b < common; ++b) {
      if (got[b] != want[b]) return false;
    }
    for (std::size_t b = common; b < got.size(); ++b) {
      if (got[b] != 0) return false;
    }
    for (std::size_t b = common; b < want.size(); ++b) {
      if (want[b] != 0) return false;
    }
  }
  return true;
}

}  // namespace radiocast::gf2
