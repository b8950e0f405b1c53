#include "sketch/odd_sketch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace flymon::sketch {

OddSketch::OddSketch(std::uint64_t m_bits) : m_(m_bits) {
  if (m_bits == 0) throw std::invalid_argument("OddSketch: m must be > 0");
  bits_.assign((m_bits + 63) / 64, 0ull);
}

OddSketch OddSketch::with_memory(std::size_t bytes) {
  return OddSketch(std::max<std::uint64_t>(64, std::uint64_t{bytes} * 8));
}

void OddSketch::load_parity(std::uint64_t idx, bool parity) {
  const std::uint64_t bit = 1ull << (idx & 63);
  if (parity) {
    bits_.at(idx >> 6) |= bit;
  } else {
    bits_.at(idx >> 6) &= ~bit;
  }
}

std::uint64_t OddSketch::odd_bits() const noexcept {
  std::uint64_t z = 0;
  for (std::uint64_t w : bits_) z += static_cast<std::uint64_t>(std::popcount(w));
  return z;
}

double OddSketch::invert(double m, double odd) {
  // E[z] = (m/2)(1 - (1-2/m)^n)  =>  n-hat = -(m/2) ln(1 - 2z/m).
  const double arg = 1.0 - 2.0 * odd / m;
  if (arg <= 0) return m;  // saturated: estimate capped at capacity scale
  return -0.5 * m * std::log(arg);
}

double OddSketch::estimate_size() const {
  return invert(static_cast<double>(m_), static_cast<double>(odd_bits()));
}

double OddSketch::estimate_symmetric_difference(const OddSketch& other) const {
  if (other.m_ != m_) throw std::invalid_argument("OddSketch: geometry mismatch");
  std::uint64_t z = 0;
  for (std::size_t i = 0; i < bits_.size(); ++i) {
    z += static_cast<std::uint64_t>(std::popcount(bits_[i] ^ other.bits_[i]));
  }
  return invert(static_cast<double>(m_), static_cast<double>(z));
}

double OddSketch::estimate_jaccard(const OddSketch& other) const {
  const double na = estimate_size();
  const double nb = other.estimate_size();
  const double sd = estimate_symmetric_difference(other);
  const double denom = na + nb + sd;
  if (denom <= 0) return 1.0;
  return std::max(0.0, (na + nb - sd) / denom);
}

void OddSketch::clear() { std::fill(bits_.begin(), bits_.end(), 0ull); }

}  // namespace flymon::sketch
