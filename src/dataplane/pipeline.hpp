// The 12-stage RMT pipeline: per-stage resource ledgers plus the shared
// PHV bit budget.
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/mau_stage.hpp"
#include "dataplane/tofino_model.hpp"

namespace flymon::dataplane {

class Pipeline {
 public:
  explicit Pipeline(unsigned num_stages = TofinoModel::kNumStages,
                    unsigned phv_bits = TofinoModel::kPhvBits);

  unsigned num_stages() const noexcept { return static_cast<unsigned>(stages_.size()); }
  MauStage& stage(unsigned i) { return stages_.at(i); }
  const MauStage& stage(unsigned i) const { return stages_.at(i); }

  /// PHV is a whole-pipe resource.
  bool allocate_phv(unsigned bits) noexcept;
  void release_phv(unsigned bits) noexcept;
  unsigned phv_capacity() const noexcept { return phv_bits_; }
  double phv_utilization() const noexcept {
    return phv_bits_ == 0 ? 0.0 : static_cast<double>(phv_used_) / phv_bits_;
  }

  /// Average utilisation of a resource across all stages.
  double utilization(Resource r) const noexcept;

  /// Total used / total capacity for a resource across all stages.
  std::uint64_t total_used(Resource r) const noexcept;
  std::uint64_t total_capacity(Resource r) const noexcept;

 private:
  std::vector<MauStage> stages_;
  unsigned phv_bits_;
  unsigned phv_used_ = 0;
};

}  // namespace flymon::dataplane
