// The bulk XOR kernel of the GF(2) coding layer.
//
// Stage 4's encoder and decoder reduce to `dst ^= src` sweeps over payload
// bytes, and BitVec's XOR to the same sweep over words. This header holds
// that one primitive: a portable 4-way unrolled word loop, which compilers
// auto-vectorise with the build's baseline ISA.
#pragma once

#include <cstddef>
#include <cstdint>

namespace radiocast::gf2 {

/// dst[0..n) ^= src[0..n). Alignment-free (memcpy-based word access) and
/// endian-agnostic, because XOR is bytewise. Regions must not partially
/// overlap.
void xor_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n);

/// Word-array convenience wrapper over xor_bytes.
inline void xor_words(std::uint64_t* dst, const std::uint64_t* src, std::size_t n_words) {
  xor_bytes(reinterpret_cast<std::uint8_t*>(dst),
            reinterpret_cast<const std::uint8_t*>(src), n_words * sizeof(std::uint64_t));
}

/// Name of the XOR kernel ("portable"), surfaced in `radiocast version`
/// and the manifest environment block as benchmark provenance.
const char* simd_kernel_name();

}  // namespace radiocast::gf2
