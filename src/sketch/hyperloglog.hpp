// HyperLogLog (Flajolet et al., 2007) with small-range linear-counting
// correction.
#pragma once

#include <cstdint>
#include <vector>

#include "sketch/sketch_common.hpp"

namespace flymon::sketch {

class HyperLogLog {
 public:
  /// 2^b registers, each tracking the max rho (position of leftmost 1-bit).
  explicit HyperLogLog(unsigned b);

  /// Construct with at least `bytes` of register memory (1 byte/register).
  static HyperLogLog with_memory(std::size_t bytes);

  void insert(KeyBytes key);
  /// Harmonic-mean cardinality estimate with bias/small-range corrections.
  double estimate() const;

  unsigned precision() const noexcept { return b_; }
  std::size_t memory_bytes() const noexcept { return regs_.size(); }
  void clear();

  /// Direct register write — used to load state collected by a FlyMon CMU
  /// (the data plane tracks max rho, the control plane runs this estimator).
  void load_register(std::size_t idx, std::uint8_t rho);

 private:
  unsigned b_;
  std::vector<std::uint8_t> regs_;
};

}  // namespace flymon::sketch
