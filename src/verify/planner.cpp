// The reconfiguration transaction (Controller::apply and Controller::plan,
// the shell's `plan` commands).  Lives in src/verify so the transaction can
// read the analyzers' report while controller.cpp stays free of their
// headers.
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

namespace {

/// Some error is the candidate plan's own (translate.*): a batch that
/// stages nothing is still rejected for it.
bool plan_is_wrong(const verify::VerifyReport& report) {
  return std::any_of(report.diagnostics().begin(), report.diagnostics().end(),
                     [](const verify::Diagnostic& d) {
                       return d.severity == verify::Severity::kError &&
                              d.check.starts_with("translate.");
                     });
}

}  // namespace

verify::PlanResult Controller::apply(const std::vector<PlanOp>& ops) {
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.apply", ops.size());
  return transact(ops, true);
}

verify::PlanResult Controller::plan(const std::vector<PlanOp>& ops) {
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.plan", ops.size());
  return transact(ops, false);
}

verify::PlanResult Controller::transact(const std::vector<PlanOp>& ops, bool publish) {
  verify::PlanResult result;
  if (!publish) result.compiled_before = dp_->current_plan()->signature();
  // Each phase a published transaction reaches is one
  // flymon_reconfig_phase_us sample, timed on the span clock.
  const auto observe = [&](Phase p, std::uint64_t since) {
    if (publish) phase_us_[p]->observe(static_cast<double>(trace::now_ns() - since) / 1e3);
  };
  std::uint64_t since = trace::now_ns();
  trace::Span saving("ctl.checkpoint");
  Checkpoint cp = checkpoint();
  saving.close();
  observe(kCheckpoint, since);
  // Every exit that does not publish restores the checkpoint: the data
  // plane ends byte-identical and the published plan keeps serving.
  const auto rewind = [&] {
    trace::Span undo("ctl.restore");
    restore(std::move(cp));
    if (publish && !result.ok) deploy_failures_counter_->inc();
    return std::move(result);
  };

  Staged staged;
  trace::Span staging("ctl.stage", ops.size());
  for (const PlanOp& op : ops) {
    try {
      result.ops.push_back(stage(op, staged));
    } catch (const std::exception& ex) {
      // No task-mutation path may leak an exception mid-transaction.
      result.ops.push_back({op, false, std::string("deployment aborted: ") + ex.what(), {}});
    }
    if (!result.ops.back().ok) {
      result.error = "op '" + describe(op) + "' failed: " + result.ops.back().detail;
      result.compiled_after = result.compiled_before;  // nothing would change
      staging.close();
      return rewind();
    }
  }
  // Deploys and releases already swept the hash units nothing references:
  // the candidate is exactly the plan the batch publishes.
  const std::vector<exec::EntryOwnership> owners = entry_ownership();
  staging.close();
  since = trace::now_ns();
  // A dry run compiles outside the generation sequence.
  std::shared_ptr<const exec::ExecPlan> candidate =
      publish ? dp_->compile_plan(owners) : exec::PlanCompiler::compile(*dp_, owners, 0);
  observe(kCompile, since);
  if (!publish) result.compiled_after = candidate->signature();
  if (paranoid_ || !publish) {
    since = trace::now_ns();
    trace::Span gate("ctl.verify_gate");
    result.report = verify::verify_deployment(*this, nullptr, candidate.get());
    if (!publish) {
      if (result.report.has_errors()) result.error = "verification failed";
    } else {
      last_verify_errors_.clear();
      if (result.report.has_errors()) {
        last_verify_errors_ = result.report.format(verify::Severity::kError);
        // A batch that stages nothing has nothing to undo, so its
        // deployment findings only report; a wrong plan is never published.
        if (staged.deploys > 0 || plan_is_wrong(result.report)) {
          cp.last_verify_errors = last_verify_errors_;  // the verdict outlives the rollback
          result.error = "paranoid verify rejected deployment:\n" + last_verify_errors_;
        }
      }
    }
    gate.close();
    observe(kValidate, since);
  }
  result.ok = result.error.empty();
  if (!publish || !result.ok) return rewind();

  // The commit: count, publish under one fence that zeroes every partition
  // the batch retired or staged, and free the checkpoint's copies.
  trace::Span commit("ctl.commit");
  removals_counter_->inc(staged.removals);
  resizes_counter_->inc(staged.resizes);
  deploys_counter_->inc(staged.deploys);
  std::vector<exec::CellRange> cells;
  cells.reserve(staged.zeroed.size());
  for (const UnitPlacement& up : staged.zeroed) {
    std::uint32_t flat = up.cmu;
    for (unsigned g = 0; g < up.group; ++g) flat += dp_->group(g).num_cmus();
    cells.push_back({flat, up.partition.base, up.partition.size});
  }
  std::uint64_t zero_ns = 0;
  since = trace::now_ns();
  dp_->publish_plan(std::move(candidate), cells, [&] {
    const std::uint64_t t0 = trace::now_ns();
    trace::Span zeroing("ctl.zero");
    for (const UnitPlacement& up : staged.zeroed) {
      dp_->group(up.group).cmu(up.cmu).clear_partition(up.partition,
                                                       cp.cmus[up.group][up.cmu]);
    }
    zeroing.close();
    observe(kZero, t0);
    zero_ns = trace::now_ns() - t0;
  });
  observe(kPublish, since + zero_ns);  // the fence and the store
  { const Checkpoint spent = std::move(cp); }
  return result;
}

}  // namespace flymon::control
