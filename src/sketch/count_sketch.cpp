#include "sketch/count_sketch.hpp"

#include <algorithm>
#include <stdexcept>

namespace flymon::sketch {

CountSketch::CountSketch(unsigned d, std::uint32_t w) : d_(d), w_(w) {
  if (d == 0 || w == 0) throw std::invalid_argument("CountSketch: d and w must be > 0");
  cells_.assign(std::size_t{d} * w, 0);
}

CountSketch CountSketch::with_memory(unsigned d, std::size_t bytes) {
  const std::size_t w = bytes / (std::size_t{4} * d);
  return CountSketch(d, static_cast<std::uint32_t>(std::max<std::size_t>(1, w)));
}

std::int32_t CountSketch::sign(KeyBytes key, unsigned row) const noexcept {
  return (row_hash(key, row, 0x51619ull) & 1) ? 1 : -1;
}

void CountSketch::update(KeyBytes key, std::int64_t inc) {
  for (unsigned r = 0; r < d_; ++r) {
    cells_[std::size_t{r} * w_ + row_hash(key, r, 0xC5ull) % w_] += sign(key, r) * inc;
  }
}

std::int64_t CountSketch::query(KeyBytes key) const {
  std::vector<std::int64_t> est(d_);
  for (unsigned r = 0; r < d_; ++r) {
    est[r] = sign(key, r) * cells_[std::size_t{r} * w_ + row_hash(key, r, 0xC5ull) % w_];
  }
  std::nth_element(est.begin(), est.begin() + d_ / 2, est.end());
  return est[d_ / 2];
}

void CountSketch::clear() { std::fill(cells_.begin(), cells_.end(), 0); }

}  // namespace flymon::sketch
