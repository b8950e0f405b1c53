// A small SSA-like intermediate representation of one deployed pipeline
// snapshot, extracted from a (Controller, FlyMonDataPlane) pair.  Each CMU
// task entry becomes a dataflow chain
//
//   header-field sources -> hash-unit masks -> compressed key (XOR of up to
//   two units) -> key slice -> address translation -> SALU operation
//
// with two abstract domains attached: per-node candidate-key bit sets
// (provenance/taint over the 136-bit candidate key) and unsigned intervals
// (value ranges of SALU parameters).  The semantic analyzers in
// src/verify/dataflow_*.cpp interpret this IR; nothing here executes a
// packet.
#pragma once

#include <bitset>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/cmu.hpp"
#include "core/compression.hpp"
#include "core/flymon_dataplane.hpp"
#include "core/memory_partition.hpp"
#include "core/task.hpp"
#include "packet/flowkey.hpp"
#include "packet/packet.hpp"

namespace flymon::control {
class Controller;
}  // namespace flymon::control

namespace flymon::ir {

/// Taint domain: one bit per candidate-key bit (136 = 17 bytes).
using KeyBitSet = std::bitset<kCandidateKeyBits>;

/// Lift a candidate-key byte mask into the taint domain.
KeyBitSet key_bits(const CandidateKey& mask) noexcept;

/// Taint footprint of a flow-key spec (= key_bits of its byte mask).
KeyBitSet spec_bits(const FlowKeySpec& spec) noexcept;

/// The flow-key spec a task addresses buckets with: its own key, or the
/// parameter's key for single-key (cardinality-style) tasks.
inline FlowKeySpec addressed_key(const TaskSpec& spec) {
  return spec.key.empty() ? spec.param.key_spec : spec.key;
}

/// Unsigned interval [lo, hi], the value-range abstract domain.  All
/// arithmetic saturates at 2^64-1 so widening is always sound.
struct Interval {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;

  static Interval exact(std::uint64_t v) noexcept { return {v, v}; }
  static Interval full32() noexcept { return {0, 0xFFFF'FFFFull}; }
  bool singleton() const noexcept { return lo == hi; }
  friend bool operator==(const Interval&, const Interval&) = default;
};

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) noexcept;
std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) noexcept;

/// One physical hash unit of a group's compression stage.
struct HashUnitNode {
  unsigned group = 0;
  unsigned unit = 0;
  bool configured = false;
  FlowKeySpec spec{};      ///< meaningful iff configured
  KeyBitSet sources;       ///< candidate-key bits that influence the output
};

/// A dynamic key as one CMU entry selects it: XOR of up to two compressed
/// keys, then a bit slice.  A CRC32 hash fully diffuses its input, so any
/// non-empty slice of the output depends on *all* unmasked input bits —
/// provenance through the slice is the union of the contributing units'
/// masks, except when the XOR cancels (both operands are the same unit).
struct KeyExpr {
  CompressedKeySelector sel{};
  KeySlice slice{};
  KeyBitSet sources;              ///< provenance after XOR cancellation
  bool self_cancelling = false;   ///< unit_a == unit_b: key is constant 0
  bool reads_unconfigured = false;///< selector references a cleared unit
};

/// A SALU parameter with its value range.
struct ParamExpr {
  ParamSelect::Source source = ParamSelect::Source::kConst;
  Interval range{};
  bool chain_derived = false;  ///< value flows in from a chain channel
};

/// Address translation of one entry: `eff_width` significant sliced-key
/// bits mapped onto a power-of-two partition (paper §3.3).  Addresses can
/// never escape the partition (the translation masks by size-1); what *can*
/// go wrong statically is a slice too narrow for the partition, leaving
/// upper cells permanently cold.
struct AddressExpr {
  unsigned eff_width = 0;          ///< min(slice.width, 32 - slice.offset)
  std::uint64_t reachable_cells = 0;
  bool in_bounds = false;          ///< partition fits the register array
};

/// One installed CMU task entry lowered to IR.
struct EntryNode {
  unsigned group = 0;
  unsigned cmu = 0;
  std::uint32_t phys_id = 0;
  bool owned = false;        ///< referenced by a controller task placement
  std::uint32_t task_id = 0; ///< public controller id when owned
  std::size_t row = 0;       ///< row index within the owning task

  KeyExpr key;
  ParamExpr p1, p2;
  PrepFn prep = PrepFn::kNone;
  bool chained = false;      ///< consumes or produces chain channels
  dataplane::StatefulOp op = dataplane::StatefulOp::kNop;
  MemoryPartition partition{};
  AddressExpr address;
  std::uint32_t value_mask = 0;   ///< register bucket value mask
  std::uint64_t register_size = 0;
};

/// One controller task with indices of its entries in PipelineIr::entries.
struct TaskNode {
  std::uint32_t id = 0;
  Algorithm algorithm = Algorithm::kAuto;
  TaskSpec spec{};
  std::uint32_t buckets = 0;  ///< quantized per-row buckets
  unsigned rows = 0;
  std::vector<std::size_t> entries;
};

struct PipelineIr {
  std::vector<HashUnitNode> units;  ///< group-major, units_per_group each
  unsigned units_per_group = 0;
  std::vector<EntryNode> entries;
  std::vector<TaskNode> tasks;
  std::uint64_t packets_per_epoch = 0;

  const HashUnitNode* unit(unsigned group, unsigned unit) const noexcept;
  const EntryNode* find_entry(unsigned group, unsigned cmu,
                              std::uint32_t phys_id) const noexcept;
};

/// Epoch packet budget the verifier assumes: a Cond-ADD counter is
/// "overflow-safe" when neither its p2 guard nor this many worst-case
/// increments can push it past the register's value mask.
inline constexpr std::uint64_t kEpochPacketBudget = 1ull << 26;

/// Extract the IR from a data-plane snapshot.  `ctl` may be null (entries
/// are still lowered, but task nodes and ownership are absent).
/// `packets_per_epoch` bounds per-epoch Cond-ADD accumulation for the
/// value-range analysis.
PipelineIr extract_ir(const FlyMonDataPlane& dp,
                      const control::Controller* ctl,
                      std::uint64_t packets_per_epoch);

/// Walk every installed CMU entry in pipeline order: group-major, CMU-major,
/// priority (installation) order within a CMU.  This enumeration is the
/// single source of truth for "what is deployed" — the IR builder lowers
/// analyzer nodes from it and exec::PlanCompiler lowers compiled entries
/// from it, so the static analyses and the compiled hot path can never
/// disagree about the entry set or its evaluation order.  `Dp` may be const
/// (analyzers) or mutable (the compiler resolves counter handles).
template <typename Dp, typename Fn>
void for_each_installed_entry(Dp& dp, Fn&& fn) {
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    auto& grp = dp.group(g);
    for (unsigned c = 0; c < grp.num_cmus(); ++c) {
      auto& cmu = grp.cmu(c);
      for (const CmuTaskEntry& e : cmu.entries()) fn(g, c, cmu, e);
    }
  }
}

}  // namespace flymon::ir
