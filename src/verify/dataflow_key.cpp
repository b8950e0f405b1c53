// Hash-bit provenance (taint) analyzer over the pipeline IR: every dynamic
// key must carry entropy from the candidate-key bits its task asked for.
// Flags fully-masked (zero-entropy) hash units, XOR self-cancellation
// between the two compressed keys of a selector, dead requested key bits
// that cannot influence the address, and same-task rows whose keys alias
// (identical selector + slice => the rows are copies, not independent
// estimators).
#include <string>

#include "ir/ir.hpp"
#include "verify/verifier.hpp"

namespace flymon::verify {
namespace {

std::string cmu_site(unsigned g, unsigned c) {
  return "g" + std::to_string(g) + ".cmu" + std::to_string(c);
}

class DataflowKeyAnalyzer final : public Analyzer {
 public:
  std::string_view name() const noexcept override { return "dataflow-key"; }
  std::string_view description() const noexcept override {
    return "hash-bit provenance: zero-entropy masks, XOR self-cancellation, "
           "dead key bits, aliased task rows";
  }

  void run(const VerifyContext& ctx, VerifyReport& report) const override {
    if (ctx.dataplane == nullptr) return;
    const ir::PipelineIr irx =
        ir::extract_ir(*ctx.dataplane, ctx.controller, ir::kEpochPacketBudget);
    check_units(irx, report);
    check_entries(irx, report);
    check_row_aliasing(irx, report);
  }

 private:
  /// A configured hash unit whose mask selects no candidate-key bit hashes
  /// a constant: every packet lands in the same bucket.
  void check_units(const ir::PipelineIr& irx, VerifyReport& report) const {
    for (const ir::HashUnitNode& u : irx.units) {
      if (u.configured && u.sources.none()) {
        report.add(Severity::kError, "dataflow.key.entropy",
                   "g" + std::to_string(u.group) + ".unit" +
                       std::to_string(u.unit),
                   "hash unit is configured with an all-zero mask; its "
                   "compressed key is a constant (zero entropy)",
                   "configure the unit with a non-empty flow-key spec or "
                   "clear it");
      }
    }
  }

  void check_entries(const ir::PipelineIr& irx, VerifyReport& report) const {
    for (const ir::EntryNode& e : irx.entries) {
      const std::string site = cmu_site(e.group, e.cmu);
      const std::string who = "task " + std::to_string(e.phys_id);
      if (e.key.self_cancelling) {
        report.add(Severity::kError, "dataflow.key.cancel", site,
                   who + " XORs compressed-key unit " +
                       std::to_string(e.key.sel.unit_a) +
                       " with itself; the dynamic key cancels to the "
                       "constant 0",
                   "select two distinct units or a single unit");
        continue;
      }
      // An unconfigured unit is already a task.selector error; an entry
      // whose whole selector carries no entropy collapses every flow into
      // one bucket.
      if (!e.key.reads_unconfigured && e.key.sel.valid() &&
          e.key.sources.none()) {
        report.add(Severity::kError, "dataflow.key.entropy", site,
                   who + " dynamic key has no candidate-key provenance; all "
                         "packets hash identically",
                   "check the hash-unit masks feeding this selector");
      }
    }
    check_dead_bits(irx, report);
  }

  /// Requested key bits that cannot influence the dynamic key.  Only
  /// straight-line entries are compared against the task's addressed key:
  /// chained / prep-rewritten entries key by stage-specific specs by
  /// design (e.g. a coupon table keyed by the parameter key).
  void check_dead_bits(const ir::PipelineIr& irx, VerifyReport& report) const {
    for (const ir::TaskNode& t : irx.tasks) {
      const ir::KeyBitSet requested = ir::spec_bits(ir::addressed_key(t.spec));
      if (requested.none()) continue;
      for (const std::size_t i : t.entries) {
        const ir::EntryNode& e = irx.entries[i];
        if (e.chained || e.prep != PrepFn::kNone) continue;
        if (e.key.self_cancelling || e.key.reads_unconfigured) continue;
        const ir::KeyBitSet dead = requested & ~e.key.sources;
        if (dead.none()) continue;
        report.add(Severity::kWarning, "dataflow.key.dead",
                   cmu_site(e.group, e.cmu),
                   "task " + std::to_string(t.id) + " requests key " +
                       ir::addressed_key(t.spec).name() + " but " +
                       std::to_string(dead.count()) +
                       " of its bits never reach the hash input (dead key "
                       "bits)",
                   "reconfigure the hash-unit masks to cover the full key");
      }
    }
  }

  /// Two rows of one task inside one group selecting the same compressed
  /// key *and* the same slice compute identical addresses: the rows are
  /// correlated copies and the min-across-rows estimate degenerates.
  void check_row_aliasing(const ir::PipelineIr& irx, VerifyReport& report) const {
    for (const ir::TaskNode& t : irx.tasks) {
      for (std::size_t a = 0; a < t.entries.size(); ++a) {
        for (std::size_t b = a + 1; b < t.entries.size(); ++b) {
          const ir::EntryNode& ea = irx.entries[t.entries[a]];
          const ir::EntryNode& eb = irx.entries[t.entries[b]];
          if (ea.group != eb.group) continue;
          if (ea.row == eb.row) continue;  // chained units of one row
          if (ea.key.sel == eb.key.sel && ea.key.slice == eb.key.slice) {
            report.add(
                Severity::kError, "dataflow.key.alias",
                cmu_site(ea.group, ea.cmu) + "+" + cmu_site(eb.group, eb.cmu),
                "task " + std::to_string(t.id) + " rows " +
                    std::to_string(ea.row) + " and " + std::to_string(eb.row) +
                    " select the same compressed key and slice; the rows "
                    "are not independent",
                "give each row a distinct key slice");
          }
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Analyzer> make_dataflow_key_analyzer() {
  return std::make_unique<DataflowKeyAnalyzer>();
}

}  // namespace flymon::verify
