// Per-worker register shards for the multi-core execution engine.
//
// Every worker in the exec::WorkerPool owns a RegisterShard: a private,
// lazily mapped replica of every CMU register bank (resident only where
// written; see dataplane::RegisterArray) plus a flat block of
// telemetry counter deltas.  The hot path writes only its own shard —
// never a shared atomic — and shards fold back into the live registers at
// epoch/query boundaries via merge_into(), which applies the op-aware
// reduction the PlanCompiler proved exact (Cond-ADD→saturating sum,
// MAX→max, OR-mode AND-OR→or, XOR→xor; see DESIGN.md §11).
//
// Invariant maintained by the pool's fencing: a dirty shard only ever
// holds deltas produced under the currently published ExecPlan, so
// merge_into() is always called with the plan those deltas belong to.
#pragma once

#include <cstdint>
#include <vector>

#include "dataplane/salu.hpp"
#include "exec/exec_plan.hpp"

namespace flymon {
class FlyMonDataPlane;
}  // namespace flymon

namespace flymon::exec {

/// One cell of the exact shard merge: fold shard value `v` into `cur`.
inline std::uint32_t fold_cell(MergeKind kind, std::uint32_t cur,
                               std::uint32_t v, std::uint32_t mask) noexcept {
  switch (kind) {
    case MergeKind::kSum: {
      const std::uint64_t sum = std::uint64_t{cur} + v;
      return sum > mask ? mask : static_cast<std::uint32_t>(sum);
    }
    case MergeKind::kMax: return cur > v ? cur : v;
    case MergeKind::kOr: return cur | v;
    case MergeKind::kXor: return (cur ^ v) & mask;
  }
  return cur;
}

class RegisterShard {
 public:
  /// Build zeroed replicas of every CMU register bank in `dp`, in the same
  /// flat CMU order the PlanCompiler emits (group-major), plus a counter
  /// block sized for that geometry (2 slots per group, 8 per CMU).
  explicit RegisterShard(const FlyMonDataPlane& dp);

  RegisterShard(RegisterShard&&) noexcept = default;
  RegisterShard(const RegisterShard&) = delete;
  RegisterShard& operator=(const RegisterShard&) = delete;

  /// Binding handed to ExecPlan::run_batch.
  ShardBinding binding() noexcept {
    return ShardBinding{reg_ptrs_, counters_};
  }

  /// Whether any batch has written this shard since the last merge/discard.
  bool dirty() const noexcept { return dirty_; }
  void mark_dirty() noexcept { dirty_ = true; }

  /// Fold this shard into the live registers behind `plan` using the
  /// plan's merge regions, flush the counter deltas onto the plan's live
  /// telemetry counters, and zero the shard.  Caller must guarantee the
  /// shard's deltas were produced under `plan` (pool fencing does).
  void merge_into(const ExecPlan& plan);

  /// Drop all shard state without merging (epoch clear).  With a plan,
  /// zero only the cells its merge regions cover — the ones merge_into
  /// folds.  That takes merge_into's contract: the deltas were produced
  /// under `plan`, whose regions cover every state-writing entry (the
  /// merge prover checks this), so no other cell can be non-zero.  With
  /// no plan (fold_dirty_shards' null-plan case), zero every bank.
  void discard(const ExecPlan* plan = nullptr);

 private:
  std::vector<dataplane::RegisterArray> regs_;   ///< flat CMU order
  std::vector<dataplane::RegisterArray*> reg_ptrs_;
  std::vector<std::uint64_t> counters_;
  bool dirty_ = false;
};

}  // namespace flymon::exec
