// Resource-ledger analyzer: per-MAU-stage hash/VLIW/TCAM/SALU demand and
// the PHV bit budget against pipeline capacity, plus cross-stacking plan
// consistency (paper §3.2 / Fig 8).
#include <sstream>
#include <string>

#include "verify/verifier.hpp"

namespace flymon::verify {
namespace {

using dataplane::MauStage;
using dataplane::Pipeline;
using dataplane::Resource;
using dataplane::StageDemand;
using dataplane::TofinoModel;

std::string stage_site(unsigned stage) { return "stage " + std::to_string(stage); }

/// Which resources `d` would push past capacity on `stage`.
std::string over_capacity(const MauStage& stage, const StageDemand& d) {
  std::ostringstream out;
  for (unsigned i = 0; i < dataplane::kNumResourceKinds; ++i) {
    const auto r = static_cast<Resource>(i);
    if (stage.used(r) + d[r] > stage.capacity(r)) {
      if (out.tellp() > 0) out << ", ";
      out << dataplane::to_string(r) << " " << (stage.used(r) + d[r]) << "/"
          << stage.capacity(r);
    }
  }
  return out.str();
}

class ResourceAnalyzer final : public Analyzer {
 public:
  std::string_view name() const noexcept override { return "resources"; }
  std::string_view description() const noexcept override {
    return "per-stage hash/VLIW/TCAM/SALU and PHV budgets, cross-stack plan "
           "consistency";
  }

  void run(const VerifyContext& ctx, VerifyReport& report) const override {
    const FlyMonDataPlane& dp = *ctx.dataplane;

    // PHV is a whole-pipe budget: compressed keys + chain metadata of every
    // group must fit next to nothing else (dedicated measurement device).
    unsigned phv = 0;
    for (unsigned g = 0; g < dp.num_groups(); ++g) {
      phv += CmuGroup::phv_bits(dp.group(g).config());
    }
    if (phv > TofinoModel::kPhvBits) {
      report.add(Severity::kError, "resources.phv", "pipeline",
                 "groups need " + std::to_string(phv) + " PHV bits, budget is " +
                     std::to_string(TofinoModel::kPhvBits),
                 "deploy fewer groups or shrink compression_units");
    }

    if (ctx.plan != nullptr) {
      audit_plan(ctx, *ctx.plan, report);
    } else {
      // No plan supplied: re-derive one and check the modelled data plane
      // actually fits the pipeline.
      const auto derived =
          control::cross_stack(TofinoModel::kNumStages,
                               dp.num_groups() > 0 ? dp.group(0).config()
                                                   : CmuGroupConfig{});
      if (derived.groups_placed < dp.num_groups()) {
        report.add(Severity::kWarning, "resources.capacity", "pipeline",
                   "data plane models " + std::to_string(dp.num_groups()) +
                       " groups but cross-stacking places only " +
                       std::to_string(derived.groups_placed),
                   "use cross_stack_spliced (recirculation) or fewer groups");
      }
    }

    // SALU action-slot audit (at most 4 pre-loaded register actions).
    for (unsigned g = 0; g < dp.num_groups(); ++g) {
      for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
        const unsigned loaded = dp.group(g).cmu(c).salu().loaded_ops();
        if (loaded > TofinoModel::kMaxRegisterActions) {
          report.add(Severity::kError, "resources.salu",
                     "g" + std::to_string(g) + ".cmu" + std::to_string(c),
                     std::to_string(loaded) +
                         " register actions pre-loaded, hardware holds " +
                         std::to_string(TofinoModel::kMaxRegisterActions));
        }
      }
    }
  }

 private:
  void audit_plan(const VerifyContext& ctx, const control::CrossStackPlan& plan,
                  VerifyReport& report) const {
    const FlyMonDataPlane& dp = *ctx.dataplane;
    const unsigned stages = plan.pipeline.num_stages();
    if (plan.groups_placed != plan.start_stage.size()) {
      report.add(Severity::kError, "resources.plan", "plan",
                 "plan places " + std::to_string(plan.groups_placed) +
                     " groups but records " +
                     std::to_string(plan.start_stage.size()) + " start stages");
      return;
    }
    if (plan.groups_placed < dp.num_groups()) {
      report.add(Severity::kWarning, "resources.capacity", "plan",
                 "plan places " + std::to_string(plan.groups_placed) + " of " +
                     std::to_string(dp.num_groups()) + " modelled groups");
    }

    // Replay the plan onto a fresh pipeline; each group claims its four
    // stage demands (C/I/P/O) shifted one stage per group.
    Pipeline replay(stages, TofinoModel::kPhvBits);
    for (unsigned g = 0; g < plan.start_stage.size(); ++g) {
      const CmuGroupConfig cfg =
          g < dp.num_groups() ? dp.group(g).config() : CmuGroupConfig{};
      const unsigned start = plan.start_stage[g];
      if (start + 4 > stages) {
        report.add(Severity::kError, "resources.plan",
                   "group " + std::to_string(g),
                   "start stage " + std::to_string(start) +
                       " leaves no room for 4 pipeline-ordered stages",
                   "only spliced (recirculating) plans may wrap the pipe end");
        continue;
      }
      if (!replay.allocate_phv(CmuGroup::phv_bits(cfg))) {
        report.add(Severity::kError, "resources.phv", "group " + std::to_string(g),
                   "PHV budget exhausted during plan replay");
      }
      const auto demands = CmuGroup::stage_demands(cfg);
      for (unsigned k = 0; k < demands.size(); ++k) {
        const unsigned idx = start + k;
        if (!replay.stage(idx).allocate(demands[k])) {
          report.add(Severity::kError, "resources.stage", stage_site(idx),
                     "group " + std::to_string(g) + " stage " +
                         std::to_string(k) + " over capacity: " +
                         over_capacity(replay.stage(idx), demands[k]),
                     "re-run cross_stack; two groups may share a start stage");
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Analyzer> make_resource_analyzer() {
  return std::make_unique<ResourceAnalyzer>();
}

}  // namespace flymon::verify
