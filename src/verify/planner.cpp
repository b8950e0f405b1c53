// Implementation of the dry-run reconfiguration planner (Controller::plan,
// the shell's `plan` commands).  Lives in src/verify (like run_verify_gate)
// so controller.cpp stays free of the analyzer headers.
#include "verify/planner.hpp"

#include <algorithm>
#include <utility>

#include "core/flymon_dataplane.hpp"
#include "exec/exec_plan.hpp"
#include "telemetry/telemetry.hpp"
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
namespace {

/// Apply one op to the shadow controller.  `id_map` translates live ids to
/// shadow ids and forgets ids whose task the op retired.  Ops may only
/// reference ids that exist on the *live* controller; ids minted by
/// earlier ops of the same batch are not addressable.
PlanOpResult apply_op(control::Controller& shadow, const control::PlanOp& op,
                      std::map<std::uint32_t, std::uint32_t>& id_map) {
  control::PlanOp shadow_op = op;
  if (op.kind != control::PlanOp::Kind::kAdd) {
    const auto it = id_map.find(op.task_id);
    if (it == id_map.end()) {
      return {op, false, "unknown live task id " + std::to_string(op.task_id)};
    }
    shadow_op.task_id = it->second;
  }
  const control::ApplyResult res = shadow.apply(shadow_op, "shadow task");
  if (res.ok && shadow_op.task_id != 0 && shadow.task(shadow_op.task_id) == nullptr) {
    id_map.erase(op.task_id);  // the op retired the task (remove, split)
  }
  return {op, res.ok, res.detail};
}

}  // namespace

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

verify::PlanResult Controller::plan(const std::vector<PlanOp>& ops) const {
  trace::Span span("ctl.plan", ops.size());
  verify::PlanResult result;

  // Compiled signature of the live world: what the published ExecPlan
  // looks like before the batch.  (Compiling is read-only apart from
  // counter-series registration, which the last publish already did for
  // every live entry.)
  result.compiled_before =
      exec::PlanCompiler::compile(*dp_, entry_ownership(), 0)->signature();

  // A private shadow world: same pipeline geometry and allocation policy,
  // its own telemetry registry so shadow deploys never pollute the live
  // counters.
  telemetry::Registry shadow_registry;
  FlyMonDataPlane shadow_dp(dp_->num_groups(),
                            dp_->num_groups() ? dp_->group(0).config()
                                              : CmuGroupConfig{});
  shadow_dp.bind_telemetry(shadow_registry);
  Controller shadow(shadow_dp, strategy_, mode_);
  shadow.bind_telemetry(shadow_registry);

  // Replay the live tasks in ascending id order.  Specs are kept current
  // across resize/split, so replay-by-spec reproduces an equivalent
  // deployment (placements may legally differ from the live ones when the
  // live world is fragmented by past removals).
  for (const std::uint32_t live_id : task_ids()) {
    const DeployedTask* t = task(live_id);
    if (t == nullptr) continue;
    const DeployResult res = shadow.add_task(t->spec);
    if (!res.ok) {
      result.error = "failed to replay live task " + std::to_string(live_id) +
                     ": " + res.error;
      return result;
    }
    result.id_map[live_id] = res.task_id;
  }

  // Apply the staged batch, stopping at the first failure.
  bool ops_ok = true;
  for (const PlanOp& op : ops) {
    verify::PlanOpResult r = verify::apply_op(shadow, op, result.id_map);
    const bool op_ok = r.ok;
    result.ops.push_back(std::move(r));
    if (!op_ok) {
      result.error = "op '" + describe(op) +
                     "' failed: " + result.ops.back().detail;
      ops_ok = false;
      break;
    }
  }

  // Compiled signature of the post-batch shadow world, with shadow task
  // ids translated back to live ids so the diff is phrased in terms the
  // operator staged.  Tasks minted by this batch have no live id; tag them.
  {
    std::map<std::uint32_t, std::uint32_t> shadow_to_live;
    for (const auto& [live, sh] : result.id_map) shadow_to_live[sh] = live;
    std::vector<exec::EntryOwnership> owners = shadow.entry_ownership();
    for (exec::EntryOwnership& o : owners) {
      const auto it = shadow_to_live.find(o.task_id);
      if (it != shadow_to_live.end()) {
        o.task_id = it->second;
      } else {
        o.name += " (new)";
      }
    }
    result.compiled_after =
        exec::PlanCompiler::compile(shadow_dp, owners, 0)->signature();
  }

  // Full semantic verification of the post-batch shadow world.
  result.report = verify::verify_deployment(shadow);
  if (ops_ok && result.report.has_errors()) {
    result.error = "verification failed";
  }
  result.ok = ops_ok && !result.report.has_errors();
  return result;
}

}  // namespace flymon::control
