// The verifier: a registry of analyzers run over one deployment snapshot.
// Entry points: the Controller's reconfiguration transaction (its
// paranoid gate and dry-run plan), the shell `verify` command family, and
// the flymon_verify CLI.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "verify/analyzer.hpp"

namespace flymon::verify {

// Built-in analyzer factories.
std::unique_ptr<Analyzer> make_resource_analyzer();
std::unique_ptr<Analyzer> make_tcam_analyzer();
std::unique_ptr<Analyzer> make_memory_analyzer();
std::unique_ptr<Analyzer> make_task_analyzer();
std::unique_ptr<Analyzer> make_dataflow_key_analyzer();
std::unique_ptr<Analyzer> make_dataflow_range_analyzer();
std::unique_ptr<Analyzer> make_dataflow_accuracy_analyzer();
std::unique_ptr<Analyzer> make_translation_analyzer();
std::unique_ptr<Analyzer> make_merge_soundness_analyzer();
std::unique_ptr<Analyzer> make_concur_analyzer();

class Verifier {
 public:
  /// Registers the ten built-in analyzers (resources, tcam, memory,
  /// tasks, dataflow-key, dataflow-range, dataflow-accuracy, translate,
  /// merge, concur).  Translate and merge only act when
  /// VerifyContext::exec_plan is set; concur reads the process-global
  /// declared/witnessed lock graphs, not the snapshot.
  Verifier();

  void add(std::unique_ptr<Analyzer> analyzer);
  const std::vector<std::unique_ptr<Analyzer>>& analyzers() const noexcept {
    return analyzers_;
  }
  const Analyzer* find(std::string_view name) const noexcept;

  /// Run every registered analyzer.
  VerifyReport run(const VerifyContext& ctx) const;
  /// Run one analyzer by name; throws std::invalid_argument when unknown.
  VerifyReport run_one(std::string_view name, const VerifyContext& ctx) const;

 private:
  std::vector<std::unique_ptr<Analyzer>> analyzers_;
};

/// Convenience: full verification of a controller + its data plane, and
/// of `exec_plan` against it when one is given.
VerifyReport verify_deployment(const control::Controller& ctl,
                               const control::CrossStackPlan* plan = nullptr,
                               const exec::ExecPlan* exec_plan = nullptr);

}  // namespace flymon::verify
