// The common analyzer interface of the static deployment verifier.  Each
// analyzer inspects a (Controller, FlyMonDataPlane) snapshot — never the
// packet path — and appends structured diagnostics.
#pragma once

#include <string_view>

#include "control/controller.hpp"
#include "control/crossstack.hpp"
#include "verify/diagnostics.hpp"

namespace flymon::exec {
class ExecPlan;
}  // namespace flymon::exec

namespace flymon::verify {

/// Read-only snapshot the analyzers run over.  `plan` is optional: when a
/// cross-stacking plan is supplied the resource analyzer audits it against
/// the pipeline capacity; otherwise it re-derives one from the data-plane
/// configuration.
struct VerifyContext {
  const control::Controller* controller = nullptr;
  const FlyMonDataPlane* dataplane = nullptr;
  const control::CrossStackPlan* plan = nullptr;
  /// Compiled plan for the translation-validation analyzers ("translate",
  /// "merge").  Deliberately NOT defaulted to the data plane's current
  /// plan: during a reconfiguration the published plan still describes the
  /// previous deployment.  Callers with a plan in hand (the paranoid gate's
  /// candidate, --translate, self-test) set it explicitly; when null those
  /// analyzers are silent no-ops.
  const exec::ExecPlan* exec_plan = nullptr;
};

class Analyzer {
 public:
  virtual ~Analyzer() = default;
  /// Stable short name ("resources", "tcam", "memory", "tasks").
  virtual std::string_view name() const noexcept = 0;
  virtual std::string_view description() const noexcept = 0;
  virtual void run(const VerifyContext& ctx, VerifyReport& report) const = 0;
};

}  // namespace flymon::verify
