#include "gf2/simd.hpp"

#include <cstring>

namespace radiocast::gf2 {

// 4x8-byte unrolled, memcpy word access (alignment-safe, no
// strict-aliasing traps). Compilers auto-vectorise this loop with the
// baseline ISA; the explicit unroll keeps it respectable even at -O1.
void xor_bytes(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t a0, a1, a2, a3;
    std::uint64_t b0, b1, b2, b3;
    std::memcpy(&a0, dst + i, 8);
    std::memcpy(&a1, dst + i + 8, 8);
    std::memcpy(&a2, dst + i + 16, 8);
    std::memcpy(&a3, dst + i + 24, 8);
    std::memcpy(&b0, src + i, 8);
    std::memcpy(&b1, src + i + 8, 8);
    std::memcpy(&b2, src + i + 16, 8);
    std::memcpy(&b3, src + i + 24, 8);
    a0 ^= b0;
    a1 ^= b1;
    a2 ^= b2;
    a3 ^= b3;
    std::memcpy(dst + i, &a0, 8);
    std::memcpy(dst + i + 8, &a1, 8);
    std::memcpy(dst + i + 16, &a2, 8);
    std::memcpy(dst + i + 24, &a3, 8);
  }
  for (; i + 8 <= n; i += 8) {
    std::uint64_t a, b;
    std::memcpy(&a, dst + i, 8);
    std::memcpy(&b, src + i, 8);
    a ^= b;
    std::memcpy(dst + i, &a, 8);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

const char* simd_kernel_name() { return "portable"; }

}  // namespace radiocast::gf2
