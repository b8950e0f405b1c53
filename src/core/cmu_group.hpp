// CMU Group (paper §3.2, Fig 7): three CMUs sharing one compression stage,
// expanded into four pipeline stages (Compression / Initialization /
// Preparation / Operation) with distinct dominant resources so that groups
// can be cross-stacked across MAU stages.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/cmu.hpp"
#include "core/compression.hpp"
#include "dataplane/mau_stage.hpp"

namespace flymon {

struct CmuGroupConfig {
  unsigned num_cmus = 3;
  /// Hash units used by the compression stage.  The paper's Tofino build
  /// allocates 6 units per group: 3 here and 3 in the operation stage for
  /// SALU addressing (footnote 4).
  unsigned compression_units = 3;
  std::uint32_t register_buckets = 65536;  ///< per-CMU stateful memory
};

/// Indices of the four CMU-Group stages.
enum class GroupStage : std::uint8_t { kCompression = 0, kInitialization, kPreparation, kOperation };

class CmuGroup {
 public:
  explicit CmuGroup(unsigned group_id, const CmuGroupConfig& cfg = {});

  unsigned id() const noexcept { return id_; }
  const CmuGroupConfig& config() const noexcept { return cfg_; }

  CompressionStage& compression() noexcept { return compression_; }
  const CompressionStage& compression() const noexcept { return compression_; }

  unsigned num_cmus() const noexcept { return static_cast<unsigned>(cmus_.size()); }
  Cmu& cmu(unsigned i) { return cmus_.at(i); }
  const Cmu& cmu(unsigned i) const { return cmus_.at(i); }

  /// Compressed keys of one packet (the compression stage's output), in a
  /// fixed-size buffer so control-plane probes do not allocate.
  CompressionStage::UnitKeys compute_keys(const CandidateKey& key) const noexcept {
    return compression_.compute(key);
  }

  /// Run the packet through all CMUs of this group.
  void process(const Packet& pkt, PhvContext& ctx);

  /// Per-stage resource demands (paper Fig 8 table), used by the
  /// cross-stacking planner and the overhead experiments.
  static std::array<dataplane::StageDemand, 4> stage_demands(const CmuGroupConfig& cfg = {});

  /// PHV bits a group occupies (compressed keys + chain metadata).
  static unsigned phv_bits(const CmuGroupConfig& cfg = {});

  /// (Re)bind this group's and its CMUs' counters into `registry`.
  void bind_telemetry(telemetry::Registry& registry);

  // ---- snapshot accessors for the plan compiler (src/exec) ----
  telemetry::Counter* packets_counter() const noexcept { return packets_counter_; }
  telemetry::Counter* hash_counter() const noexcept { return hash_counter_; }

 private:
  unsigned id_;
  CmuGroupConfig cfg_;
  CompressionStage compression_;
  std::vector<Cmu> cmus_;
  telemetry::Counter* packets_counter_ = nullptr;
  telemetry::Counter* hash_counter_ = nullptr;
};

}  // namespace flymon
