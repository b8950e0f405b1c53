// Count-Sketch (Charikar et al.): signed counters, median estimator.
// Used as the per-level frequency estimator inside UnivMon.
#pragma once

#include <cstdint>
#include <vector>

#include "sketch/sketch_common.hpp"

namespace flymon::sketch {

class CountSketch {
 public:
  CountSketch(unsigned d, std::uint32_t w);

  static CountSketch with_memory(unsigned d, std::size_t bytes);

  void update(KeyBytes key, std::int64_t inc = 1);
  /// Median-of-rows estimate (can be negative; callers clamp as needed).
  std::int64_t query(KeyBytes key) const;

  unsigned depth() const noexcept { return d_; }
  std::uint32_t width() const noexcept { return w_; }
  std::size_t memory_bytes() const noexcept { return std::size_t{d_} * w_ * 4; }
  void clear();

 private:
  std::int32_t sign(KeyBytes key, unsigned row) const noexcept;

  unsigned d_;
  std::uint32_t w_;
  std::vector<std::int64_t> cells_;
};

}  // namespace flymon::sketch
