// Generic ternary-rule lint used by the TCAM analyzer and directly testable
// on hand-built rule sets: cover/overlap relations on (value, mask)
// patterns, shadowed/unreachable-entry detection, same-priority conflicts,
// and range-expansion reassembly checks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataplane/tcam.hpp"

namespace flymon::verify {

/// True iff every key matched by `b` is also matched by `a` (a's care bits
/// are a subset of b's and agree on them).
bool covers(const dataplane::TernaryPattern& a,
            const dataplane::TernaryPattern& b) noexcept;

/// True iff some key matches both patterns.
bool overlaps(const dataplane::TernaryPattern& a,
              const dataplane::TernaryPattern& b) noexcept;

/// One rule as seen by the lint, in effective match order (the order the
/// lookup logic scans: priority-sorted, install order breaking ties).
struct LintEntry {
  dataplane::TernaryPattern pattern;
  std::uint32_t priority = 0;
  std::string action;    ///< action tag; divergent tags make a conflict
  bool terminal = true;  ///< a match always consumes the packet (no sampling
                         ///< fall-through), so it can shadow later entries
  std::string label;     ///< for diagnostics ("task 3", "entry 7", ...)
};

struct LintFinding {
  enum class Kind : std::uint8_t {
    kShadowed,  ///< entry can never match: an earlier terminal entry covers it
    kConflict,  ///< same priority, overlapping patterns, different actions
  };
  Kind kind = Kind::kShadowed;
  std::size_t entry = 0;    ///< index of the offending entry
  std::size_t blocker = 0;  ///< index of the covering / conflicting entry
};

/// Lint `entries` given in effective match order.  `Entry` is LintEntry or
/// any rule type with its pattern/priority/action/terminal members whose
/// actions compare with `!=`; the TCAM analyzer lints structural actions and
/// formats labels only for the findings.
template <class Entry>
std::vector<LintFinding> lint_entries(const std::vector<Entry>& entries) {
  std::vector<LintFinding> findings;
  for (std::size_t j = 0; j < entries.size(); ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      const Entry& a = entries[i];
      const Entry& b = entries[j];
      // Earlier terminal entry covering a later one: the later entry is
      // unreachable.  Entries that sample (non-terminal) fall through on a
      // coin skip, so they never fully shadow.
      if (a.terminal && covers(a.pattern, b.pattern)) {
        findings.push_back({LintFinding::Kind::kShadowed, j, i});
        continue;  // a conflict report on a dead entry would be noise
      }
      // Same priority + overlapping patterns + divergent actions: which
      // rule wins depends on install order, which reinstallation (resize,
      // controller restart) does not preserve.
      if (a.priority == b.priority && a.action != b.action &&
          overlaps(a.pattern, b.pattern)) {
        findings.push_back({LintFinding::Kind::kConflict, j, i});
      }
    }
  }
  return findings;
}

/// Check that `patterns` (as produced by range_to_ternary) reassemble the
/// range [lo, hi] over a `width`-bit key exactly: every pattern is an
/// aligned prefix block inside the range, blocks are pairwise disjoint, and
/// their sizes sum to the range length.  Returns an empty string when
/// exact, else a description of the first defect.
std::string check_range_reassembly(
    const std::vector<dataplane::TernaryPattern>& patterns, std::uint64_t lo,
    std::uint64_t hi, unsigned width);

}  // namespace flymon::verify
