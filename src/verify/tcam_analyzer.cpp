// TCAM lint analyzer: per-CMU initialization rules linted for shadowed /
// unreachable entries and order-dependent same-priority conflicts, plus
// address-translation range expansions checked for exact reassembly and the
// preparation stage's TCAM block budget (paper §3.3).
#include <sstream>
#include <string>

#include "common/bits.hpp"
#include "verify/tcam_lint.hpp"
#include "verify/verifier.hpp"

namespace flymon::verify {
namespace {

using dataplane::TernaryPattern;

std::string cmu_site(unsigned g, unsigned c) {
  return "g" + std::to_string(g) + ".cmu" + std::to_string(c);
}

/// A task filter as the 64-bit ternary key the initialization table
/// matches: src prefix in the high word, dst prefix in the low word.
TernaryPattern filter_pattern(const TaskFilter& f) {
  auto prefix_mask = [](std::uint8_t len) -> std::uint64_t {
    if (len == 0) return 0;
    return (0xFFFF'FFFFull << (32u - len)) & 0xFFFF'FFFFull;
  };
  TernaryPattern p;
  p.mask = (prefix_mask(f.src_len) << 32) | prefix_mask(f.dst_len);
  p.value = ((std::uint64_t{f.src_ip} << 32) | f.dst_ip) & p.mask;
  return p;
}

/// What an initialization rule does once it matches: its SALU op on its
/// partition.  Two rules conflict only when these differ.
struct RuleAction {
  dataplane::StatefulOp op;
  std::uint32_t base;
  std::uint32_t size;

  friend bool operator==(const RuleAction&, const RuleAction&) = default;
};

/// An installed entry as the lint sees it; labels and action tags are
/// rendered from the entry only for a finding.
struct InitRule {
  TernaryPattern pattern;
  std::uint32_t priority;
  RuleAction action;
  bool terminal;
};

std::string action_tag(const CmuTaskEntry& e) {
  std::ostringstream out;
  out << dataplane::to_string(e.op) << "@[" << e.partition.base << "+"
      << e.partition.size << "]";
  return out.str();
}

std::string label(const CmuTaskEntry& e) {
  return "task " + std::to_string(e.task_id);
}

class TcamAnalyzer final : public Analyzer {
 public:
  std::string_view name() const noexcept override { return "tcam"; }
  std::string_view description() const noexcept override {
    return "shadowed/conflicting ternary rules, range-expansion reassembly, "
           "preparation TCAM budget";
  }

  void run(const VerifyContext& ctx, VerifyReport& report) const override {
    const FlyMonDataPlane& dp = *ctx.dataplane;
    const bool tcam_translation =
        ctx.controller == nullptr ||
        ctx.controller->strategy() == TranslationStrategy::kTcam;
    std::vector<InitRule> lint;  // reused across CMUs

    for (unsigned g = 0; g < dp.num_groups(); ++g) {
      const auto prep_budget =
          CmuGroup::stage_demands(dp.group(g).config())
              [static_cast<unsigned>(GroupStage::kPreparation)]
              [dataplane::Resource::kTcamBlock];
      std::size_t group_addr_entries = 0;
      unsigned addr_key_bits = 1;

      for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
        const Cmu& cmu = dp.group(g).cmu(c);
        const auto& entries = cmu.entries();

        // Entries are stored priority-sorted (install order breaking
        // ties) — exactly the order Cmu::process scans, so lint them as-is.
        lint.clear();
        for (const CmuTaskEntry& e : entries) {
          lint.push_back(InitRule{filter_pattern(e.filter), e.priority,
                                  {e.op, e.partition.base, e.partition.size},
                                  e.sample_probability >= 1.0});
        }
        for (const LintFinding& f : lint_entries(lint)) {
          const CmuTaskEntry& entry = entries[f.entry];
          const CmuTaskEntry& blocker = entries[f.blocker];
          if (f.kind == LintFinding::Kind::kShadowed) {
            report.add(Severity::kError, "tcam.shadow", cmu_site(g, c),
                       label(entry) + " can never match: " + label(blocker) +
                           " matches first and covers its filter",
                       "tighten the earlier filter or raise this priority");
          } else {
            report.add(Severity::kWarning, "tcam.conflict", cmu_site(g, c),
                       label(entry) + " and " + label(blocker) +
                           " overlap at priority " +
                           std::to_string(entry.priority) +
                           " with different actions (" + action_tag(entry) +
                           " vs " + action_tag(blocker) + ")",
                       "the winner depends on install order; use distinct "
                       "priorities");
          }
        }

        // Address-translation range expansion: each relocated block of a
        // sub-register partition must reassemble exactly (paper Fig 9).
        if (!tcam_translation) continue;
        const std::uint32_t total = cmu.reg().size();
        addr_key_bits = total > 1 ? log2_floor(total) : 1;
        for (const CmuTaskEntry& e : entries) {
          const MemoryPartition& p = e.partition;
          if (p.size == 0 || !is_pow2(p.size) || p.size >= total) continue;
          const std::uint32_t blocks = total / p.size;
          for (std::uint32_t b = 0; b < blocks; ++b) {
            if (b == p.base / p.size) continue;  // home block: default entry
            const std::uint64_t lo = std::uint64_t{b} * p.size;
            const std::uint64_t hi = lo + p.size - 1;
            const auto patterns =
                dataplane::range_to_ternary(lo, hi, addr_key_bits);
            group_addr_entries += patterns.size();
            const std::string defect =
                check_range_reassembly(patterns, lo, hi, addr_key_bits);
            if (!defect.empty()) {
              report.add(Severity::kError, "tcam.range", cmu_site(g, c),
                         label(e) + " block " + std::to_string(b) +
                             " expansion broken: " + defect);
            }
          }
        }
      }

      // The group's preparation stage reserves a fixed TCAM slice; warn
      // when the rendered address entries would not fit it.
      if (group_addr_entries > 0) {
        const unsigned need = dataplane::tcam_blocks_for(
            group_addr_entries, addr_key_bits);
        if (need > prep_budget) {
          report.add(Severity::kWarning, "tcam.budget",
                     "g" + std::to_string(g) + ".prep",
                     std::to_string(group_addr_entries) +
                         " address-translation entries need " +
                         std::to_string(need) + " TCAM blocks, stage budget is " +
                         std::to_string(prep_budget),
                     "coarsen partitions or switch to shift translation");
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Analyzer> make_tcam_analyzer() {
  return std::make_unique<TcamAnalyzer>();
}

}  // namespace flymon::verify
