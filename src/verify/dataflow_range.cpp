// Value-range analyzer over the pipeline IR: interval analysis of SALU
// parameters proving Cond-ADD counters cannot overflow their register's
// value mask within an epoch, and that address translation lands every
// entry inside its partition with enough sliced-key bits to reach all of
// it (paper §3.3).
#include <string>

#include "ir/ir.hpp"
#include "verify/verifier.hpp"

namespace flymon::verify {
namespace {

std::string cmu_site(unsigned g, unsigned c) {
  return "g" + std::to_string(g) + ".cmu" + std::to_string(c);
}

class DataflowRangeAnalyzer final : public Analyzer {
 public:
  std::string_view name() const noexcept override { return "dataflow-range"; }
  std::string_view description() const noexcept override {
    return "SALU interval analysis: Cond-ADD overflow within an epoch, "
           "address-translation bounds and reachability";
  }

  void run(const VerifyContext& ctx, VerifyReport& report) const override {
    if (ctx.dataplane == nullptr) return;
    const ir::PipelineIr irx =
        ir::extract_ir(*ctx.dataplane, ctx.controller, ir::kEpochPacketBudget);
    for (const ir::EntryNode& e : irx.entries) {
      check_overflow(irx, e, report);
      check_address(e, report);
    }
  }

 private:
  /// Cond-ADD adds p1 while the bucket value is below the p2 guard.  The
  /// largest value ever stored is bounded two ways: the guard admits one
  /// final add from just below it (min(p2.hi-1, mask) + p1.hi), and an
  /// epoch admits at most packets_per_epoch increments of p1.hi from zero.
  /// If the tighter of the two still exceeds the register's value mask the
  /// counter wraps mid-epoch and every read-out under-reports.
  void check_overflow(const ir::PipelineIr& irx, const ir::EntryNode& e,
                      VerifyReport& report) const {
    if (e.op != dataplane::StatefulOp::kCondAdd) return;
    // A chain-fed increment is bounded by the upstream stage, not by the
    // packet stream; the interval for it is already the full 32-bit range
    // and flagging it would condemn every composite algorithm.
    if (e.p1.chain_derived) return;
    const std::uint64_t mask = e.value_mask;
    if (mask == 0) return;
    const std::uint64_t guard_hi = e.p2.range.hi == 0 ? 0 : e.p2.range.hi - 1;
    const std::uint64_t guard_bound =
        ir::sat_add(guard_hi < mask ? guard_hi : mask, e.p1.range.hi);
    const std::uint64_t epoch_bound =
        ir::sat_mul(irx.packets_per_epoch, e.p1.range.hi);
    const std::uint64_t reachable =
        guard_bound < epoch_bound ? guard_bound : epoch_bound;
    if (reachable > mask) {
      report.add(Severity::kError, "dataflow.range.overflow",
                 cmu_site(e.group, e.cmu),
                 "task " + std::to_string(e.phys_id) +
                     " Cond-ADD can reach " + std::to_string(reachable) +
                     " within one epoch but the register value mask is " +
                     std::to_string(mask) + "; the counter wraps",
                 "lower the p2 guard or the p1 increment so the maximum "
                 "reachable value fits the value mask");
    }
  }

  void check_address(const ir::EntryNode& e, VerifyReport& report) const {
    const std::string site = cmu_site(e.group, e.cmu);
    const std::string who = "task " + std::to_string(e.phys_id);
    if (!e.address.in_bounds) {
      report.add(Severity::kError, "dataflow.range.address", site,
                 who + " partition [" + std::to_string(e.partition.base) +
                     ", +" + std::to_string(e.partition.size) +
                     ") is not a power-of-two range inside the " +
                     std::to_string(e.register_size) +
                     "-bucket register array",
                 "re-allocate the partition from the buddy allocator");
      return;
    }
    if (e.key.sel.valid() && !e.key.self_cancelling &&
        e.address.reachable_cells < e.partition.size) {
      report.add(Severity::kWarning, "dataflow.range.address", site,
                 who + " key slice yields " +
                     std::to_string(e.address.eff_width) +
                     " effective bits, reaching only " +
                     std::to_string(e.address.reachable_cells) + " of " +
                     std::to_string(e.partition.size) +
                     " partition cells; upper cells stay cold",
                 "widen the key slice or shrink the partition");
    }
  }
};

}  // namespace

std::unique_ptr<Analyzer> make_dataflow_range_analyzer() {
  return std::make_unique<DataflowRangeAnalyzer>();
}

}  // namespace flymon::verify
