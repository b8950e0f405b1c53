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
// Invariant maintained by the pool's fencing, per region: a dirty shard
// holds deltas only in regions that the currently published ExecPlan
// merges exactly like the plan that produced them (same register, cells,
// MergeKind and value mask), so merge_into() under the published plan is
// exact.  A publish keeps it in one of two ways: it folds every shard
// under the old plan, or, when the new plan merges every region outside
// the cells it zeroes exactly like the old one, it drops the replica cells
// it zeroes and carries the rest (PlanCompiler::scoped_regions).
#pragma once

#include <cstdint>
#include <span>
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
  /// telemetry counters, and zero the shard.  Caller must guarantee that
  /// `plan` merges every region holding deltas like the plan that produced
  /// them (pool fencing does).
  void merge_into(const ExecPlan& plan);

  /// Zero the replica cells of `regions`, dropping the deltas there: a
  /// scoped publish zeroes the same live cells.  The shard stays dirty.
  void discard(std::span<const MergeRegion> regions);

  /// Flush the counter deltas onto `plan`'s live telemetry counters (the
  /// plan that produced them: the next plan may not count that op).
  void flush_counters(const ExecPlan& plan) {
    plan.flush_counter_block(counters_);
  }

  /// Drop all shard state without merging (epoch clear), zeroing only the
  /// cells `plan`'s merge regions cover — the ones merge_into folds.  That
  /// takes merge_into's contract: the deltas were produced under `plan`,
  /// whose regions cover every state-writing entry (the merge prover
  /// checks this), so no other cell can be non-zero.
  void discard(const ExecPlan& plan);

 private:
  std::vector<dataplane::RegisterArray> regs_;   ///< flat CMU order
  std::vector<dataplane::RegisterArray*> reg_ptrs_;
  std::vector<std::uint64_t> counters_;
  bool dirty_ = false;
};

}  // namespace flymon::exec
