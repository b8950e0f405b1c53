// Task-plane consistency analyzer: every installed entry must name a
// configured compressed key and a pre-loaded SALU operation; every deployed
// task's placements must reference live table entries; composite rows
// must chain forward across distinct groups on wired channels; co-resident
// hash units must not alias one another's key spec.  Sites and messages are
// formatted only when a check fails.
#include <set>
#include <string>

#include "verify/verifier.hpp"

namespace flymon::verify {
namespace {

std::string cmu_site(unsigned g, unsigned c) {
  return "g" + std::to_string(g) + ".cmu" + std::to_string(c);
}

std::string task_who(std::uint32_t id) { return "task " + std::to_string(id); }

class TaskAnalyzer final : public Analyzer {
 public:
  std::string_view name() const noexcept override { return "tasks"; }
  std::string_view description() const noexcept override {
    return "entry/selector/operation wiring, rendered-rule liveness, chain "
           "topology, hash-unit aliasing";
  }

  void run(const VerifyContext& ctx, VerifyReport& report) const override {
    const FlyMonDataPlane& dp = *ctx.dataplane;
    check_entries(dp, report);
    check_hash_aliasing(dp, report);
    if (ctx.controller != nullptr) check_tasks(*ctx.controller, dp, report);
  }

 private:
  /// Entry-level wiring, covering raw entries that bypassed the controller.
  void check_entries(const FlyMonDataPlane& dp, VerifyReport& report) const {
    for (unsigned g = 0; g < dp.num_groups(); ++g) {
      const auto& comp = dp.group(g).compression();
      for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
        const Cmu& cmu = dp.group(g).cmu(c);
        for (const CmuTaskEntry& e : cmu.entries()) {
          if (!cmu.salu().has_op(e.op)) {
            report.add(Severity::kError, "task.op", cmu_site(g, c),
                       task_who(e.task_id) + " selects " +
                           dataplane::to_string(e.op) +
                           " but the SALU has no such register action",
                       "pre-load the operation before installing the entry");
          }
          check_selector(comp, e.key_sel, g, c, e.task_id, "key", report);
          if (e.p1.source == ParamSelect::Source::kCompressedKey) {
            check_selector(comp, e.p1.key_sel, g, c, e.task_id, "p1", report);
          }
          if (e.p2.source == ParamSelect::Source::kCompressedKey) {
            check_selector(comp, e.p2.key_sel, g, c, e.task_id, "p2", report);
          }
        }
      }
    }
  }

  /// `what` names the selector ("key", "p1", "p2") of `task_id`'s entry
  /// in g<g>.cmu<c>.
  void check_selector(const CompressionStage& comp,
                      const CompressedKeySelector& sel, unsigned g, unsigned c,
                      std::uint32_t task_id, const char* what,
                      VerifyReport& report) const {
    const auto who = [&] { return task_who(task_id) + " " + what; };
    if (!sel.valid()) {
      report.add(Severity::kError, "task.selector", cmu_site(g, c),
                 who() + " has no compressed-key selector");
      return;
    }
    for (const std::int8_t u : {sel.unit_a, sel.unit_b}) {
      if (u < 0) continue;
      if (static_cast<unsigned>(u) >= comp.num_units()) {
        report.add(Severity::kError, "task.selector", cmu_site(g, c),
                   who() + " names hash unit " + std::to_string(u) +
                       ", the group has " + std::to_string(comp.num_units()));
      } else if (!comp.spec_of(static_cast<unsigned>(u)).has_value()) {
        report.add(Severity::kError, "task.selector", cmu_site(g, c),
                   who() + " reads hash unit " + std::to_string(u) +
                       " which has no dynamic-hash mask configured",
                   "a cleared unit hashes nothing; re-install the mask rule");
      }
    }
  }

  /// Two units of one compression stage configured with the same key spec
  /// waste a unit and break the XOR-composition independence assumption.
  void check_hash_aliasing(const FlyMonDataPlane& dp, VerifyReport& report) const {
    for (unsigned g = 0; g < dp.num_groups(); ++g) {
      const auto& comp = dp.group(g).compression();
      for (unsigned u = 0; u < comp.num_units(); ++u) {
        if (!comp.spec_of(u)) continue;
        for (unsigned v = u + 1; v < comp.num_units(); ++v) {
          if (comp.spec_of(v) && *comp.spec_of(v) == *comp.spec_of(u)) {
            report.add(Severity::kWarning, "task.alias",
                       "g" + std::to_string(g),
                       "hash units " + std::to_string(u) + " and " +
                           std::to_string(v) + " both compress " +
                           comp.spec_of(u)->name(),
                       "reuse one unit for both consumers (paper §3.4)");
          }
        }
      }
    }
  }

  void check_tasks(const control::Controller& ctl, const FlyMonDataPlane& dp,
                   VerifyReport& report) const {
    for (const std::uint32_t id : ctl.task_ids()) {
      const control::DeployedTask* t = ctl.task(id);
      if (t == nullptr) continue;

      // Every placement must resolve to a live installed entry — otherwise
      // the task's runtime rules reference tables that no longer exist.
      bool all_live = true;
      bool placed = false;
      for (const auto& row : t->rows) {
        for (const auto& up : row.units) {
          placed = true;
          if (up.group >= dp.num_groups() ||
              up.cmu >= dp.group(up.group).num_cmus() ||
              dp.group(up.group).cmu(up.cmu).find(up.phys_id) == nullptr) {
            report.add(Severity::kError, "task.placement", task_who(id),
                       "placement " + cmu_site(up.group, up.cmu) +
                           " has no installed entry for physical id " +
                           std::to_string(up.phys_id),
                       "the entry was removed behind the controller's back");
            all_live = false;
          }
        }
      }
      // A live placement renders at least its init and op-select rules,
      // so a task renders none exactly when it has no placement.
      if (all_live && !placed) {
        report.add(Severity::kError, "task.rules", task_who(id),
                   "deployed task renders zero runtime rules");
      }

      // Composite rows chain strictly forward across distinct groups, and
      // every consumed chain channel must be produced earlier in the row.
      for (std::size_t r = 0; r < t->rows.size(); ++r) {
        const auto& units = t->rows[r].units;
        if (units.size() < 2) continue;
        const auto row_site = [&] {
          return task_who(id) + " row " + std::to_string(r);
        };
        std::set<std::uint32_t> produced;
        unsigned prev_group = 0;
        for (std::size_t u = 0; u < units.size(); ++u) {
          const auto& up = units[u];
          if (up.group >= dp.num_groups() ||
              up.cmu >= dp.group(up.group).num_cmus()) {
            continue;  // already reported as task.placement
          }
          if (u > 0 && up.group <= prev_group) {
            report.add(Severity::kError, "task.chain", row_site(),
                       "unit " + std::to_string(u) + " sits in group " +
                           std::to_string(up.group) +
                           ", not after its upstream group " +
                           std::to_string(prev_group),
                       "chained CMUs must occupy distinct groups in pipeline "
                       "order");
          }
          prev_group = up.group;
          const CmuTaskEntry* e =
              dp.group(up.group).cmu(up.cmu).find(up.phys_id);
          if (e == nullptr) continue;
          auto consumed = [&](std::uint32_t channel, const char* what) {
            if (channel == 0) return;
            if (produced.find(channel) == produced.end()) {
              report.add(Severity::kError, "task.chain", row_site(),
                         "unit " + std::to_string(u) + " " + what +
                             " reads chain channel " + std::to_string(channel) +
                             " which no upstream unit publishes");
            }
          };
          if (e->p1.source == ParamSelect::Source::kChain) {
            consumed(e->p1.const_value, "p1");
          }
          if (e->p2.source == ParamSelect::Source::kChain) {
            consumed(e->p2.const_value, "p2");
          }
          consumed(e->chain_gate, "gate");
          if (e->chain_out != 0) produced.insert(e->chain_out);
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Analyzer> make_task_analyzer() {
  return std::make_unique<TaskAnalyzer>();
}

}  // namespace flymon::verify
