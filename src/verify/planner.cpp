// Implementation of the dry-run reconfiguration planner (Controller::plan,
// the shell's `plan` commands).  Lives in src/verify (like run_verify_gate)
// so controller.cpp stays free of the analyzer headers.
#include "verify/planner.hpp"

#include <algorithm>
#include <utility>

#include "exec/exec_plan.hpp"
#include "trace/span.hpp"
#include "verify/verifier.hpp"

namespace flymon::control {

PlanOp PlanOp::add(TaskSpec spec) {
  PlanOp op;
  op.kind = Kind::kAdd;
  op.spec = std::move(spec);
  return op;
}

PlanOp PlanOp::remove(std::uint32_t id) {
  PlanOp op;
  op.kind = Kind::kRemove;
  op.task_id = id;
  return op;
}

PlanOp PlanOp::resize(std::uint32_t id, std::uint32_t new_buckets) {
  PlanOp op;
  op.kind = Kind::kResize;
  op.task_id = id;
  op.new_buckets = new_buckets;
  return op;
}

PlanOp PlanOp::split(std::uint32_t id) {
  PlanOp op;
  op.kind = Kind::kSplit;
  op.task_id = id;
  return op;
}

std::string describe(const PlanOp& op) {
  const std::string task = " task " + std::to_string(op.task_id);
  switch (op.kind) {
    case PlanOp::Kind::kAdd: return "add \"" + op.spec.name + "\"";
    case PlanOp::Kind::kRemove: return "remove" + task;
    case PlanOp::Kind::kResize:
      return "resize" + task + " -> " + std::to_string(op.new_buckets) + " buckets";
    case PlanOp::Kind::kSplit: return "split" + task;
  }
  return "?";
}

}  // namespace flymon::control

namespace flymon::verify {

std::string format_plan_diff(const std::vector<std::string>& before,
                             const std::vector<std::string>& after) {
  std::vector<std::string> b = before, a = after;
  std::sort(b.begin(), b.end());
  std::sort(a.begin(), a.end());
  std::vector<std::string> removed, added;
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(removed));
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(added));
  std::string out = "plan diff: " + std::to_string(before.size()) +
                    " compiled entries -> " + std::to_string(after.size()) +
                    " (+" + std::to_string(added.size()) + " / -" +
                    std::to_string(removed.size()) + ")\n";
  if (removed.empty() && added.empty()) {
    out += "  no compiled-entry changes\n";
    return out;
  }
  for (const std::string& line : removed) out += "  - " + line + "\n";
  for (const std::string& line : added) out += "  + " + line + "\n";
  return out;
}

std::string PlanResult::format() const {
  std::string out = ok ? "plan OK" : "plan FAILED: " + error;
  out += "\n";
  for (const PlanOpResult& r : ops) {
    out += std::string("  [") + (r.ok ? "ok" : "FAIL") + "] " +
           control::describe(r.op) + ": " + r.detail + "\n";
  }
  const std::string diags = report.format(Severity::kWarning);
  if (!diags.empty()) out += diags;
  return out;
}

}  // namespace flymon::verify

namespace flymon::control {

verify::PlanResult Controller::plan(const std::vector<PlanOp>& ops) {
  trace::ReconfigScope reconfig;  // the batch's ops share one tag
  trace::Span span("ctl.plan", ops.size());
  verify::PlanResult result;
  result.compiled_before = dp_->current_plan()->signature();

  // Run the batch through the commit's own path, then undo it from one
  // checkpoint however the batch ends.
  struct Rewind {
    Controller& ctl;
    Checkpoint cp;
    ~Rewind() {
      ctl.restore(std::move(cp));
      ctl.dry_run_ = false;
    }
  } rewind{*this, checkpoint()};
  dry_run_ = true;

  for (const PlanOp& op : ops) {
    const ApplyResult r = apply(op);
    result.ops.push_back({op, r.ok, r.detail});
    if (!r.ok) {
      result.error = "op '" + describe(op) + "' failed: " + r.detail;
      break;
    }
  }

  // The post-batch deployment, compiled once: exactly the plan a commit
  // would publish, checked by every analyzer as the paranoid gate would.
  const std::shared_ptr<const exec::ExecPlan> after =
      exec::PlanCompiler::compile(*dp_, entry_ownership(), 0);
  result.compiled_after = after->signature();
  result.report = verify::verify_deployment(*this, nullptr, false, after.get());
  if (result.error.empty() && result.report.has_errors()) {
    result.error = "verification failed";
  }
  result.ok = result.error.empty();
  return result;
}

}  // namespace flymon::control
