// Bit-manipulation helpers shared across the FlyMon code base.
#pragma once

#include <bit>
#include <cstdint>

namespace flymon {

/// True iff `v` is a power of two (0 is not).
constexpr bool is_pow2(std::uint64_t v) noexcept {
  return v != 0 && (v & (v - 1)) == 0;
}

/// floor(log2(v)); v must be non-zero.
constexpr unsigned log2_floor(std::uint64_t v) noexcept {
  return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/// ceil(log2(v)); v must be non-zero. log2_ceil(1) == 0.
constexpr unsigned log2_ceil(std::uint64_t v) noexcept {
  return v <= 1 ? 0u : log2_floor(v - 1) + 1u;
}

/// Smallest power of two >= v (v must be >= 1).
constexpr std::uint64_t pow2_ceil(std::uint64_t v) noexcept {
  return std::uint64_t{1} << log2_ceil(v);
}

/// Largest power of two <= v (v must be >= 1).
constexpr std::uint64_t pow2_floor(std::uint64_t v) noexcept {
  return std::uint64_t{1} << log2_floor(v);
}

/// Mask with the low `n` bits set.
constexpr std::uint32_t low_mask32(unsigned n) noexcept {
  return n >= 32 ? 0xFFFF'FFFFu : (std::uint32_t{1} << n) - 1;
}

}  // namespace flymon
