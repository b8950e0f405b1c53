#include "common/hash.hpp"

#include <array>

namespace flymon {

std::uint32_t crc_polynomial(unsigned unit_index) noexcept {
  // Reflected polynomials of well-known CRC-32 variants.  Units cycle
  // through them; the init value is additionally perturbed per unit by
  // callers that need more than `size()` independent units.
  static constexpr std::array<std::uint32_t, 8> kPolys = {
      0xEDB88320u,  // CRC-32 (IEEE)
      0x82F63B78u,  // CRC-32C (Castagnoli)
      0xEB31D82Eu,  // CRC-32K (Koopman)
      0xD5828281u,  // CRC-32Q
      0x992C1A4Cu,  // CRC-32/AUTOSAR (reflected)
      0xBA0DC66Bu,  // CRC-32K/2
      0x76DC4190u,  // degenerate shift of IEEE (distinct table)
      0xA833982Bu,  // CRC-32D
  };
  return kPolys[unit_index % kPolys.size()];
}

std::uint64_t hash64(std::span<const std::uint8_t> data, std::uint64_t seed) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ull ^ mix64(seed);
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return mix64(h);
}

}  // namespace flymon
