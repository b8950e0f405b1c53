#include "core/cmu_group.hpp"

#include <stdexcept>

#include "dataplane/tofino_model.hpp"
#include "telemetry/trace_ring.hpp"

namespace flymon {

using dataplane::Resource;
using dataplane::StageDemand;
using dataplane::TofinoModel;

CmuGroup::CmuGroup(unsigned group_id, const CmuGroupConfig& cfg)
    : id_(group_id),
      cfg_(cfg),
      compression_(cfg.compression_units, group_id * cfg.compression_units) {
  if (cfg.num_cmus == 0) throw std::invalid_argument("CmuGroup: zero CMUs");
  cmus_.reserve(cfg.num_cmus);
  for (unsigned i = 0; i < cfg.num_cmus; ++i) cmus_.emplace_back(cfg.register_buckets);
  bind_telemetry(telemetry::Registry::global());
}

void CmuGroup::bind_telemetry(telemetry::Registry& registry) {
  const telemetry::Labels labels = {{"group", std::to_string(id_)}};
  packets_counter_ = &registry.counter("flymon_group_packets_total", labels);
  hash_counter_ = &registry.counter("flymon_hash_invocations_total", labels);
  for (unsigned i = 0; i < cmus_.size(); ++i) {
    cmus_[i].bind_telemetry(registry, id_, i);
  }
}

void CmuGroup::process(const Packet& pkt, PhvContext& ctx) {
  const CandidateKey key = serialize_candidate_key(pkt);
  const CompressionStage::UnitKeys unit_keys = compression_.compute(key);
  if (telemetry::enabled()) {
    packets_counter_->inc();
    unsigned configured = 0;
    for (unsigned u = 0; u < compression_.num_units(); ++u) {
      if (compression_.spec_of(u)) ++configured;
    }
    hash_counter_->inc(configured);
  }
  if (ctx.trace != nullptr) {
    ctx.trace->keys.push_back(telemetry::GroupKeys{
        id_, {unit_keys.begin(), unit_keys.begin() + compression_.num_units()}});
  }
  for (Cmu& c : cmus_) c.process(pkt, unit_keys, ctx);
}

std::array<StageDemand, 4> CmuGroup::stage_demands(const CmuGroupConfig& cfg) {
  // Calibrated to the paper's Fig 8 resource table: per stage, compression
  // uses 50% hash + 6.25% VLIW; initialization 25% VLIW + 12.5% TCAM;
  // preparation 6.25% VLIW + 50% TCAM; operation 50% hash + 25% VLIW +
  // 75% SALU (+ the registers' SRAM).
  std::array<StageDemand, 4> d{};

  StageDemand& compression = d[0];
  compression.add(Resource::kHashUnit, cfg.compression_units);  // 3/6 = 50%
  compression.add(Resource::kVliwSlot, 2);                      // 6.25%
  compression.add(Resource::kLogicalTable, 1);

  StageDemand& init = d[1];
  init.add(Resource::kVliwSlot, 8);   // 25%
  init.add(Resource::kTcamBlock, 3);  // 12.5%
  init.add(Resource::kLogicalTable, cfg.num_cmus);

  StageDemand& prep = d[2];
  prep.add(Resource::kVliwSlot, 2);    // 6.25%
  prep.add(Resource::kTcamBlock, 12);  // 50%
  prep.add(Resource::kLogicalTable, cfg.num_cmus);

  StageDemand& op = d[3];
  op.add(Resource::kHashUnit, cfg.num_cmus);  // SALU addressing (footnote 4)
  op.add(Resource::kVliwSlot, 8);             // 25%
  op.add(Resource::kSalu, cfg.num_cmus);      // 3/4 = 75%
  op.add(Resource::kSramBlock,
         cfg.num_cmus * TofinoModel::sram_blocks_for(cfg.register_buckets,
                                                     TofinoModel::kRegisterBitWidth));
  op.add(Resource::kLogicalTable, cfg.num_cmus);
  return d;
}

unsigned CmuGroup::phv_bits(const CmuGroupConfig& cfg) {
  // Compressed keys (32 b each) + one 32-bit chain/result metadata field
  // per CMU + the 16-bit task id assigned at filter match.
  return cfg.compression_units * 32 + cfg.num_cmus * 32 + 16;
}

}  // namespace flymon
