// Dry-run reconfiguration planner: Controller::plan() runs a batch of
// deploy/resize/split/remove operations on the live controller through the
// same path a commit takes, runs every analyzer over the result and the
// plan it compiles to, and then restores the controller from one
// checkpoint.  Its verdict, ids and compiled entries are the commit's; the
// registers, counters and published plan are never touched.
#pragma once

#include <string>
#include <vector>

#include "control/controller.hpp"
#include "verify/diagnostics.hpp"

namespace flymon::verify {

/// Outcome of one staged op in the dry run.
struct PlanOpResult {
  control::PlanOp op{};
  bool ok = false;
  std::string detail;  ///< deploy summary or failure reason
};

/// Result of one Controller::plan() call.
struct PlanResult {
  /// Every op applied cleanly AND the post-batch verification has no
  /// errors (warnings do not fail a plan).
  bool ok = false;
  /// First failure: op error, or "verification failed".
  std::string error;
  /// Per-op outcomes, in order; stops at the first failed op.
  std::vector<PlanOpResult> ops;
  /// Full analyzer report over the deployment after the batch, with its
  /// compiled plan as the translation validator's subject.  When an op
  /// fails the report covers the state up to that op.
  VerifyReport report;

  /// Compiled-entry signature lines (exec::ExecPlan::signature) of the
  /// published plan before the batch and of the plan a commit of the batch
  /// would publish, under the task ids the commit would mint.  Render with
  /// format_plan_diff().
  std::vector<std::string> compiled_before;
  std::vector<std::string> compiled_after;

  std::string format() const;
};

/// Unified added/removed view of two compiled-entry signature sets: what
/// the reconfiguration batch would change in the published ExecPlan.
std::string format_plan_diff(const std::vector<std::string>& before,
                             const std::vector<std::string>& after);

}  // namespace flymon::verify
