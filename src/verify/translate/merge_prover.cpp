// Merge-soundness prover (DESIGN.md §13): proves the compiled plan's shard
// merge is exact.
//
// Part A checks each MergeRegion describes a fold that is a commutative,
// associative monoid with identity 0 over the *register's* value domain
// (probing the exact RegisterShard::merge_into fold, which folds clean
// cells too, and the region's saturation mask), that the region metadata
// is structurally sound (bounds, value mask = register mask), and that
// every state-writing compiled entry is covered by a matching region — an
// uncovered entry's shard writes would be silently dropped at merge time.
//
// Part B independently re-derives the merge blockers from the *interpreted*
// deployment: ir::extract_ir's value intervals (PR 3) give each entry's
// effective p2 range after prep rewrites, from which the Cond-ADD
// unconditionality and AND-OR pinning conditions follow semantically rather
// than from the compiler's const-only syntactic rule.  The two answers are
// cross-checked in both directions:
//
//   derived > compiled  ->  translate.merge.unsound (ERROR): the compiler
//       believes a fold is exact that the semantics say is register-gated;
//       sharded execution would diverge from sequential execution.
//   compiled > derived  ->  translate.merge.spurious (WARNING): the
//       compiler is more conservative than necessary; the plan falls back
//       to sequential execution it could have avoided.
#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <sstream>
#include <vector>

#include "core/flymon_dataplane.hpp"
#include "exec/exec_plan.hpp"
#include "ir/ir.hpp"
#include "verify/translate/translate.hpp"

namespace flymon::verify::translate {
namespace {

using exec::CompiledCmu;
using exec::CompiledEntry;
using exec::ExecPlan;
using exec::MergeBlockerKind;
using exec::MergeKind;
using exec::MergeRegion;

/// The exact merge step RegisterShard::merge_into performs for one cell:
/// fold shard value `v` into live value `cur`.  Mirrored, not shared — the
/// point of translation validation is an independent implementation to
/// check the production one against.  merge_into does not skip zero shard
/// cells, so fold(cur, 0) == cur is the identity law below, not a shortcut.
std::uint32_t fold(MergeKind kind, std::uint32_t cur, std::uint32_t v,
                   std::uint32_t value_mask) {
  switch (kind) {
    case MergeKind::kSum: {
      const std::uint64_t sum = std::uint64_t{cur} + v;
      return sum > value_mask ? value_mask : static_cast<std::uint32_t>(sum);
    }
    case MergeKind::kMax:
      return std::max(cur, v);
    case MergeKind::kOr:
      return cur | v;
    case MergeKind::kXor:
      return (cur ^ v) & value_mask;
  }
  return cur;
}

/// The reduction a SALU op folds under across shards; nullopt for kNop
/// (reads nothing, writes nothing).
std::optional<MergeKind> kind_of(dataplane::StatefulOp op) {
  switch (op) {
    case dataplane::StatefulOp::kNop:
      return std::nullopt;
    case dataplane::StatefulOp::kCondAdd:
      return MergeKind::kSum;
    case dataplane::StatefulOp::kMax:
      return MergeKind::kMax;
    case dataplane::StatefulOp::kAndOr:
      return MergeKind::kOr;
    case dataplane::StatefulOp::kXor:
      return MergeKind::kXor;
  }
  return std::nullopt;
}

/// Probe values spanning the register's value domain [0, domain_mask]:
/// identities, saturation boundaries, and alternating bit patterns.
std::vector<std::uint32_t> probe_values(std::uint32_t domain_mask) {
  std::vector<std::uint32_t> probes = {
      0u,          1u,          2u,           3u,
      domain_mask, domain_mask - 1u,          domain_mask >> 1,
      (domain_mask >> 1) + 1u,  0x5555'5555u, 0xAAAA'AAAAu,
      0x0F0F'0F0Fu, 0xFFFFu};
  for (std::uint32_t& p : probes) p &= domain_mask;
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  return probes;
}

std::string region_site(const MergeRegion& r) {
  std::ostringstream os;
  os << "cmu " << r.cmu << " [" << r.base << ", " << (r.base + r.size) << ")";
  return os.str();
}

/// The first monoid law a fold breaks, with its counterexample.
struct LawViolation {
  const char* law;
  std::uint32_t a, b, c, lhs, rhs;
};

/// Prove a region's fold is a commutative/associative monoid with identity
/// 0 over the register's value domain: merging any multiset of shard values
/// must yield one result regardless of merge order.  Probed exhaustively
/// over representative triples; returns the first violated law.  The
/// verdict depends only on (kind, domain mask, region value mask).
std::optional<LawViolation> prove_monoid_laws(MergeKind kind,
                                              std::uint32_t domain_mask,
                                              std::uint32_t value_mask) {
  const std::vector<std::uint32_t> probes = probe_values(domain_mask);
  const auto f = [&](std::uint32_t cur, std::uint32_t v) {
    return fold(kind, cur, v, value_mask);
  };
  for (const std::uint32_t a : probes) {
    // Identity: folding one shard value into an untouched live cell must
    // reproduce the value, and folding a clean shard cell (0) must store
    // back the live value unchanged.
    if (f(0, a) != a || f(a, 0) != a) {
      return LawViolation{"the identity law", a, 0, 0, f(0, a), f(a, 0)};
    }
    for (const std::uint32_t b : probes) {
      const std::uint32_t ab = f(f(0, a), b);
      const std::uint32_t ba = f(f(0, b), a);
      if (ab != ba) return LawViolation{"commutativity", a, b, 0, ab, ba};
      for (const std::uint32_t c : probes) {
        // Merge-order exchange over three shards: (a then b then c) must
        // equal (c then b then a) — with commutativity above this covers
        // every merge order of three replicas.
        const std::uint32_t abc = f(ab, c);
        const std::uint32_t cba = f(f(f(0, c), b), a);
        if (abc != cba) return LawViolation{"associativity", a, b, c, abc, cba};
      }
    }
  }
  return std::nullopt;
}

/// Effective p2 range after the preparation stage, mirroring Cmu::process:
/// the one-hot preps rewrite p2 to 1, SubtractGated consumes it as the
/// subtrahend and leaves 0 for the SALU, every other prep passes the raw
/// parameter through (KeepOnChainZero / BitSelectOneHotGated gate p1 only).
ir::Interval effective_p2(PrepFn prep, const ir::Interval& raw) {
  switch (prep) {
    case PrepFn::kCouponOneHot:
    case PrepFn::kBitSelectOneHot:
      return ir::Interval::exact(1);
    case PrepFn::kSubtractGated:
      return ir::Interval::exact(0);
    default:
      return raw;
  }
}

struct BlockerCounts {
  std::array<std::size_t, 4> by_kind{};

  std::size_t& operator[](MergeBlockerKind k) {
    return by_kind[static_cast<std::size_t>(k)];
  }
  std::size_t operator[](MergeBlockerKind k) const {
    return by_kind[static_cast<std::size_t>(k)];
  }
};

constexpr std::array<MergeBlockerKind, 4> kAllBlockerKinds = {
    MergeBlockerKind::kChainOutput, MergeBlockerKind::kGatedCondAdd,
    MergeBlockerKind::kAndMode, MergeBlockerKind::kMixedWindow};

}  // namespace

void prove_merge_soundness(const FlyMonDataPlane& dp, const ExecPlan& plan,
                           VerifyReport& report) {
  const auto cmus = plan.compiled_cmus();
  const auto entries = plan.entries();

  if (plan.merge_blockers().size() != plan.merge_blocker_kinds().size()) {
    report.add(Severity::kError, "translate.merge.region", "plan",
               "merge blocker strings and kinds are not parallel arrays",
               "per-cause fallback accounting would misreport; the plan's "
               "merge metadata is corrupt");
  }

  // ---- Part A: region structure, monoid laws, entry coverage ----

  // A task's rows share a kind and a mask: prove each distinct domain once
  // per run and report its verdict at every region that uses it.
  struct ProvedDomain {
    MergeKind kind;
    std::uint32_t domain_mask;
    std::uint32_t value_mask;
    std::optional<LawViolation> violation;
  };
  std::vector<ProvedDomain> proved;
  for (const MergeRegion& region : plan.merge_regions()) {
    if (region.cmu >= cmus.size()) {
      report.add(Severity::kError, "translate.merge.region",
                 region_site(region),
                 "region names a CMU outside the compiled plan");
      continue;
    }
    const dataplane::RegisterArray* reg = plan.live_register(region.cmu);
    if (reg == nullptr) {
      report.add(Severity::kError, "translate.merge.region",
                 region_site(region), "region's CMU has no bound register");
      continue;
    }
    if (region.size == 0 ||
        std::uint64_t{region.base} + region.size > reg->size()) {
      std::ostringstream os;
      os << "region window is empty or escapes the register ("
         << reg->size() << " cells)";
      report.add(Severity::kError, "translate.merge.region",
                 region_site(region), os.str(),
                 "merge_into would fold cells belonging to other partitions");
    }
    if (region.value_mask != reg->value_mask()) {
      std::ostringstream os;
      os << "region saturation mask 0x" << std::hex << region.value_mask
         << " differs from the register's value mask 0x" << reg->value_mask();
      report.add(Severity::kError, "translate.merge.mask", region_site(region),
                 os.str(),
                 "the merge fold would saturate/mask at a different bound "
                 "than the per-packet SALU");
    }
    // Laws are probed over the REGISTER's domain: that is what shard cells
    // actually hold, so a region mask narrower than the register also
    // surfaces here as an identity violation.
    const std::uint32_t domain_mask = reg->value_mask();
    auto it = std::find_if(proved.begin(), proved.end(), [&](const ProvedDomain& d) {
      return d.kind == region.kind && d.domain_mask == domain_mask &&
             d.value_mask == region.value_mask;
    });
    if (it == proved.end()) {
      proved.push_back({region.kind, domain_mask, region.value_mask,
                        prove_monoid_laws(region.kind, domain_mask,
                                          region.value_mask)});
      it = proved.end() - 1;
    }
    if (const std::optional<LawViolation>& v = it->violation) {
      std::ostringstream os;
      os << to_string(region.kind) << " fold violates " << v->law << " over [0, "
         << domain_mask << "]: probes (" << v->a << ", " << v->b << ", " << v->c
         << ") give " << v->lhs << " vs " << v->rhs;
      report.add(Severity::kError, "translate.merge.law", region_site(region),
                 os.str(),
                 "shard merge order would change the register contents; the "
                 "fold is not an exact reduction over this domain");
    }
  }

  // Coverage: every state-writing compiled entry must fold under exactly
  // the region its partition and op demand.
  for (std::uint32_t fc = 0; fc < cmus.size(); ++fc) {
    const CompiledCmu& cc = cmus[fc];
    if (cc.entry_end < cc.entry_begin || cc.entry_end > entries.size()) {
      continue;  // reported by validate_translation
    }
    for (std::uint32_t i = cc.entry_begin; i < cc.entry_end; ++i) {
      const CompiledEntry& ce = entries[i];
      const std::optional<MergeKind> want = kind_of(ce.op);
      if (!want) continue;  // kNop writes no state
      const bool covered = std::any_of(
          plan.merge_regions().begin(), plan.merge_regions().end(),
          [&](const MergeRegion& r) {
            return r.cmu == fc && r.base == ce.addr_base &&
                   r.size == ce.addr_mask + 1u && r.kind == *want &&
                   r.value_mask == ce.value_mask;
          });
      if (!covered) {
        std::ostringstream os;
        os << "state-writing entry " << i << " (op "
           << dataplane::to_string(ce.op) << ", window [" << ce.addr_base
           << ", " << (std::uint64_t{ce.addr_base} + ce.addr_mask + 1)
           << ")) is not covered by any matching merge region";
        std::ostringstream site;
        site << "cmu " << fc << " entry " << i;
        report.add(Severity::kError, "translate.merge.region", site.str(),
                   os.str(),
                   "its shard-replica writes would be dropped (or folded "
                   "under the wrong reduction) at merge time");
      }
    }
  }

  // ---- Part B: independent blocker derivation + two-way cross-check ----

  // Raw installed entries in pipeline order with their flat CMU index —
  // the same enumeration the compiler lowered from.
  struct RawEntry {
    unsigned group;
    unsigned cmu;
    std::uint32_t flat_cmu;
    const CmuTaskEntry* e;
    std::uint32_t register_value_mask;
    std::uint32_t register_size;
  };
  std::vector<RawEntry> raw;
  {
    std::vector<std::uint32_t> group_base(dp.num_groups() + 1, 0);
    for (unsigned g = 0; g < dp.num_groups(); ++g) {
      group_base[g + 1] = group_base[g] + dp.group(g).num_cmus();
    }
    ir::for_each_installed_entry(dp, [&](unsigned g, unsigned c,
                                         const Cmu& cmu,
                                         const CmuTaskEntry& e) {
      raw.push_back({g, c, group_base[g] + c, &e, cmu.reg().value_mask(),
                     cmu.reg().size()});
    });
  }

  // Interval facts from the interpreted deployment.  The controller handle
  // is not needed: blocker derivation only consumes per-entry value ranges,
  // not task ownership.
  const ir::PipelineIr pir = ir::extract_ir(dp, nullptr, ir::kEpochPacketBudget);
  if (pir.entries.size() != raw.size()) {
    report.add(Severity::kError, "translate.merge.unsound", "plan",
               "IR extraction and the raw entry walk disagree on the entry "
               "set; blocker cross-check impossible",
               "ir::extract_ir must enumerate via for_each_installed_entry");
    return;
  }

  BlockerCounts derived;
  std::vector<MergeRegion> derived_regions;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const RawEntry& r = raw[i];
    const ir::EntryNode& n = pir.entries[i];
    if (n.group != r.group || n.cmu != r.cmu || n.phys_id != r.e->task_id) {
      report.add(Severity::kError, "translate.merge.unsound", "plan",
                 "IR extraction and the raw entry walk are misaligned; "
                 "blocker cross-check impossible");
      return;
    }
    const CmuTaskEntry& e = *r.e;
    if (e.chain_out != 0) derived[MergeBlockerKind::kChainOutput] += 1;

    const ir::Interval p2 = effective_p2(e.prep, n.p2.range);
    if (e.op == dataplane::StatefulOp::kCondAdd &&
        p2.lo < r.register_value_mask) {
      // `cur < p2` can be false below saturation: the add is gated on the
      // register value, which is not a monoid over shards.
      derived[MergeBlockerKind::kGatedCondAdd] += 1;
    }
    if (e.op == dataplane::StatefulOp::kAndOr && p2.lo < 1) {
      derived[MergeBlockerKind::kAndMode] += 1;
    }

    if (const std::optional<MergeKind> k = kind_of(e.op); k && e.partition.size != 0) {
      derived_regions.push_back({r.flat_cmu, e.partition.base,
                                 e.partition.size, *k,
                                 r.register_value_mask});
    }
  }

  // Mixed-window derivation: identical collapse + overlap scan to the
  // compiler's, but over regions derived from the installed partitions.
  std::sort(derived_regions.begin(), derived_regions.end(),
            [](const MergeRegion& a, const MergeRegion& b) {
              if (a.cmu != b.cmu) return a.cmu < b.cmu;
              if (a.base != b.base) return a.base < b.base;
              if (a.size != b.size) return a.size < b.size;
              return a.kind < b.kind;
            });
  derived_regions.erase(
      std::unique(derived_regions.begin(), derived_regions.end(),
                  [](const MergeRegion& a, const MergeRegion& b) {
                    return a.cmu == b.cmu && a.base == b.base &&
                           a.size == b.size && a.kind == b.kind;
                  }),
      derived_regions.end());
  for (std::size_t i = 0; i + 1 < derived_regions.size(); ++i) {
    for (std::size_t j = i + 1; j < derived_regions.size(); ++j) {
      const MergeRegion& a = derived_regions[i];
      const MergeRegion& b = derived_regions[j];
      if (a.cmu != b.cmu || a.base + a.size <= b.base) break;
      if (a.kind != b.kind) derived[MergeBlockerKind::kMixedWindow] += 1;
    }
  }

  BlockerCounts compiled;
  for (const MergeBlockerKind k : plan.merge_blocker_kinds()) compiled[k] += 1;

  for (const MergeBlockerKind k : kAllBlockerKinds) {
    if (derived[k] > compiled[k]) {
      std::ostringstream os;
      os << "interpreted semantics require " << derived[k] << " "
         << to_string(k) << " merge blocker(s) but the compiler recorded "
         << compiled[k];
      report.add(Severity::kError, "translate.merge.unsound", "plan", os.str(),
                 "the plan would shard-merge a fold the semantics say is "
                 "register-gated; sharded and sequential execution would "
                 "diverge");
    } else if (compiled[k] > derived[k]) {
      std::ostringstream os;
      os << "compiler recorded " << compiled[k] << " " << to_string(k)
         << " merge blocker(s) where the interval derivation proves only "
         << derived[k] << " necessary";
      report.add(Severity::kWarning, "translate.merge.spurious", "plan",
                 os.str(),
                 "harmless but wasteful: the plan falls back to sequential "
                 "execution it could avoid (the compiler's const-only rule "
                 "is coarser than the interval analysis)");
    }
  }
}

}  // namespace flymon::verify::translate
