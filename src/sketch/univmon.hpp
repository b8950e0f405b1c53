// UnivMon (Liu et al., SIGCOMM 2016): universal sketching.  L levels of
// hash-sampled substreams, each summarised by a Count-Sketch plus a top-k
// heavy-hitter set; any G-sum statistic (entropy, cardinality, frequency
// moments) is estimated by the recursive combination of per-level sums.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "packet/flowkey.hpp"
#include "sketch/count_sketch.hpp"

namespace flymon::sketch {

class UnivMon {
 public:
  /// `levels` sampled substreams; per-level Count-Sketch of d x w counters;
  /// top-k tracked keys per level.
  UnivMon(unsigned levels, unsigned cs_depth, std::uint32_t cs_width, unsigned top_k);

  /// Size the per-level Count-Sketch from a total memory budget.
  static UnivMon with_memory(std::size_t total_bytes, unsigned levels = 14,
                             unsigned cs_depth = 5, unsigned top_k = 512);

  void update(const FlowKeyValue& key, std::uint32_t inc = 1);

  /// G-sum estimate: sum over distinct flows of g(flow_count).
  double g_sum(const std::function<double(double)>& g) const;

  /// Entropy (nats): H = ln(N) - (sum f ln f)/N with N = total updates.
  double estimate_entropy() const;

  /// Distinct flow count (g == 1).
  double estimate_cardinality() const;

  /// Level-0 heavy hitters with estimated count >= threshold.
  std::vector<std::pair<FlowKeyValue, std::uint64_t>> heavy_hitters(
      std::uint64_t threshold) const;

  std::size_t memory_bytes() const noexcept;
  unsigned levels() const noexcept { return static_cast<unsigned>(levels_.size()); }
  void clear();

 private:
  struct Level {
    CountSketch cs;
    std::unordered_map<FlowKeyValue, std::int64_t> top;  // candidate HHs
    std::int64_t cached_min = 0;  // lower bound on the smallest tracked est
    explicit Level(CountSketch s) : cs(std::move(s)) {}
  };

  /// Key is sampled into level l iff the low l bits of its sample hash are 0.
  bool sampled_at(const FlowKeyValue& key, unsigned level) const noexcept;
  void track_top(Level& lvl, const FlowKeyValue& key);

  std::vector<Level> levels_;
  unsigned top_k_;
  std::uint64_t total_ = 0;
};

}  // namespace flymon::sketch
