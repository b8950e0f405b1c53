// Hash primitives modelling the Tofino hash units used by FlyMon.
//
// Tofino's hash distribution units compute CRC-family hashes over selected
// PHV fields.  FlyMon's "dynamic hashing" feature lets the control plane
// mask out portions of the input at runtime; we model that with a per-call
// byte mask applied before the CRC (see dataplane::HashUnit).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace flymon {

/// A small set of distinct reflected CRC-32 polynomials (CRC-32, CRC-32C,
/// CRC-32K, CRC-32Q, ...) used to parameterise independent hash units.
std::uint32_t crc_polynomial(unsigned unit_index) noexcept;

/// 64-bit finaliser (splitmix64): used where software baselines need a
/// high-quality mix rather than a hardware-faithful CRC.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Seeded 64-bit hash of a byte string (FNV-1a core + splitmix finaliser).
/// Baseline sketches use this; the FlyMon data plane uses the CRC kernels
/// (common/crc_kernels.hpp).
std::uint64_t hash64(std::span<const std::uint8_t> data, std::uint64_t seed) noexcept;

/// Convenience: hash a trivially-copyable value.
template <typename T>
std::uint64_t hash64_value(const T& v, std::uint64_t seed) noexcept {
  static_assert(std::is_trivially_copyable_v<T>);
  return hash64(std::span<const std::uint8_t>(
                    reinterpret_cast<const std::uint8_t*>(&v), sizeof(T)),
                seed);
}

}  // namespace flymon
