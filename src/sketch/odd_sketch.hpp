// Odd Sketch (Mitzenmacher, Pagh & Pham, WWW 2014): an m-bit parity bitmap
// over a *set* — each distinct element toggles one bit.  The XOR of two odd
// sketches is the odd sketch of the symmetric difference, enabling cheap
// set-similarity (Jaccard) estimation.  This is the algorithm the FlyMon
// paper names as the natural use of the reserved XOR stateful operation
// (§6, "Expressiveness of FlyMon").
#pragma once

#include <cstdint>
#include <vector>

namespace flymon::sketch {

class OddSketch {
 public:
  explicit OddSketch(std::uint64_t m_bits);

  static OddSketch with_memory(std::size_t bytes);

  /// Estimated set size: n-hat = -(m/2) ln(1 - 2z/m), z = #odd bits.
  double estimate_size() const;

  /// Estimated |A (symmetric difference) B| from two same-geometry sketches.
  double estimate_symmetric_difference(const OddSketch& other) const;

  /// Jaccard similarity J = (|A|+|B|-|AdB|) / (|A|+|B|+|AdB|).
  double estimate_jaccard(const OddSketch& other) const;

  std::uint64_t bit_count() const noexcept { return m_; }
  std::uint64_t odd_bits() const noexcept;
  std::size_t memory_bytes() const noexcept { return bits_.size() * 8; }
  void clear();

  /// Load a raw parity bit collected from a FlyMon CMU register.
  void load_parity(std::uint64_t idx, bool parity);

 private:
  static double invert(double m, double odd);

  std::uint64_t m_;
  std::vector<std::uint64_t> bits_;
};

}  // namespace flymon::sketch
