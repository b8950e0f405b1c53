#include "exec/sharded_runtime.hpp"

#include <algorithm>

#include "core/flymon_dataplane.hpp"

namespace flymon::exec {

RegisterShard::RegisterShard(const FlyMonDataPlane& dp) {
  std::size_t total_cmus = 0;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    total_cmus += dp.group(g).num_cmus();
  }
  regs_.reserve(total_cmus);
  reg_ptrs_.reserve(total_cmus);
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    const CmuGroup& grp = dp.group(g);
    for (unsigned c = 0; c < grp.num_cmus(); ++c) {
      const dataplane::RegisterArray& live = grp.cmu(c).reg();
      regs_.emplace_back(live.size(), live.bit_width());
    }
  }
  for (dataplane::RegisterArray& r : regs_) reg_ptrs_.push_back(&r);
  counters_.assign(dp.num_groups() * 2 + total_cmus * 8, 0);
}

namespace {

/// Fold every cell of [base, end) of `shard` into `live` and zero the shard
/// cell, so an overlapping region folds it once.  No branch on the shard
/// value: 0 is the identity of every MergeKind over the register's value
/// domain (the merge prover checks this per region), so a clean cell
/// stores back what it read.
template <MergeKind kKind>
void fold_range(dataplane::RegisterArray& shard, dataplane::RegisterArray& live,
                std::uint32_t base, std::uint32_t end, std::uint32_t mask) {
  for (std::uint32_t addr = base; addr < end; ++addr) {
    live.store_relaxed(addr, fold_cell(kKind, live.load_relaxed(addr),
                                       shard.load_relaxed(addr), mask));
    shard.store_relaxed(addr, 0);
  }
}

}  // namespace

void RegisterShard::merge_into(const ExecPlan& plan) {
  if (!dirty_) return;
  for (const MergeRegion& r : plan.merge_regions()) {
    dataplane::RegisterArray& shard = regs_[r.cmu];
    dataplane::RegisterArray& live = *plan.live_register(r.cmu);
    const std::uint32_t end = r.base + r.size;
    switch (r.kind) {
      case MergeKind::kSum:
        fold_range<MergeKind::kSum>(shard, live, r.base, end, r.value_mask);
        break;
      case MergeKind::kMax:
        fold_range<MergeKind::kMax>(shard, live, r.base, end, r.value_mask);
        break;
      case MergeKind::kOr:
        fold_range<MergeKind::kOr>(shard, live, r.base, end, r.value_mask);
        break;
      case MergeKind::kXor:
        fold_range<MergeKind::kXor>(shard, live, r.base, end, r.value_mask);
        break;
    }
  }
  plan.flush_counter_block(counters_);
  dirty_ = false;
}

void RegisterShard::discard(std::span<const MergeRegion> regions) {
  for (const MergeRegion& region : regions) {
    regs_[region.cmu].clear_range(region.base, region.base + region.size);
  }
}

void RegisterShard::discard(const ExecPlan& plan) {
  if (!dirty_) return;
  discard(plan.merge_regions());
  std::fill(counters_.begin(), counters_.end(), 0);
  dirty_ = false;
}

}  // namespace flymon::exec
