// The result of one reconfiguration transaction: Controller::apply()
// stages a batch of deploy/resize/split/remove ops on the live controller,
// compiles the result once, verifies it and publishes it; Controller::plan()
// runs the same transaction, always verifies, and restores the checkpoint
// instead of publishing.  A plan's verdict, ids and compiled entries are the
// commit's; its registers, counters and published plan are never touched.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "verify/diagnostics.hpp"

namespace flymon::verify {

/// Outcome of one staged op.
struct PlanOpResult {
  control::PlanOp op{};
  bool ok = false;
  std::string detail;  ///< deploy summary or failure reason
  /// The public ids the op minted (add: one, split: two) or kept (resize).
  std::vector<std::uint32_t> task_ids;
};

/// Result of one Controller::apply() or Controller::plan() transaction.
struct PlanResult {
  /// Every op staged cleanly AND the verification passed: for plan(), no
  /// error at all (warnings do not fail a plan); for apply(), no paranoid
  /// rejection.  An apply() that is not ok published nothing.
  bool ok = false;
  /// First failure: "op '<op>' failed: <detail>", "verification failed"
  /// (plan) or "paranoid verify rejected deployment:\n<errors>" (apply).
  std::string error;
  /// Per-op outcomes, in order; stops at the first failed op.
  std::vector<PlanOpResult> ops;
  /// Full analyzer report over the deployment after the batch, with its
  /// compiled plan as the translation validator's subject.  Empty when an
  /// op failed, or for an apply() outside paranoid mode.
  VerifyReport report;

  /// plan() only: compiled-entry signature lines (exec::ExecPlan::signature)
  /// of the published plan before the batch and of the plan a commit of the
  /// batch would publish, under the task ids the commit would mint (the
  /// plan before, when an op fails).  Render with format_plan_diff().
  std::vector<std::string> compiled_before;
  std::vector<std::string> compiled_after;

  std::string format() const;
};

/// Unified added/removed view of two compiled-entry signature sets: what
/// the reconfiguration batch would change in the published ExecPlan.
std::string format_plan_diff(const std::vector<std::string>& before,
                             const std::vector<std::string>& after);

}  // namespace flymon::verify
