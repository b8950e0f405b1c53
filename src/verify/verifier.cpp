#include "verify/verifier.hpp"

#include <stdexcept>

namespace flymon::verify {

Verifier::Verifier() {
  add(make_resource_analyzer());
  add(make_tcam_analyzer());
  add(make_memory_analyzer());
  add(make_task_analyzer());
  add(make_dataflow_key_analyzer());
  add(make_dataflow_range_analyzer());
  add(make_dataflow_accuracy_analyzer());
  add(make_translation_analyzer());
  add(make_merge_soundness_analyzer());
  add(make_concur_analyzer());
}

void Verifier::add(std::unique_ptr<Analyzer> analyzer) {
  analyzers_.push_back(std::move(analyzer));
}

const Analyzer* Verifier::find(std::string_view name) const noexcept {
  for (const auto& a : analyzers_) {
    if (a->name() == name) return a.get();
  }
  return nullptr;
}

VerifyReport Verifier::run(const VerifyContext& ctx) const {
  VerifyReport report;
  for (const auto& a : analyzers_) {
    a->run(ctx, report);
    report.analyzers_run.emplace_back(a->name());
  }
  return report;
}

VerifyReport Verifier::run_one(std::string_view name,
                               const VerifyContext& ctx) const {
  const Analyzer* a = find(name);
  if (a == nullptr) {
    throw std::invalid_argument("unknown analyzer: " + std::string(name));
  }
  VerifyReport report;
  a->run(ctx, report);
  report.analyzers_run.emplace_back(a->name());
  return report;
}

VerifyReport verify_deployment(const control::Controller& ctl,
                               const control::CrossStackPlan* plan,
                               const exec::ExecPlan* exec_plan) {
  VerifyContext ctx;
  ctx.controller = &ctl;
  ctx.dataplane = &ctl.dataplane();
  ctx.plan = plan;
  ctx.exec_plan = exec_plan;
  return Verifier{}.run(ctx);
}

}  // namespace flymon::verify
