#include "verify/translate/translate.hpp"

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/bits.hpp"
#include "core/flymon_dataplane.hpp"
#include "exec/exec_plan.hpp"
#include "ir/ir.hpp"
#include "verify/analyzer.hpp"
#include "verify/translate/symbits.hpp"
#include "verify/verifier.hpp"

namespace flymon::verify::translate {
namespace {

using exec::CompiledCmu;
using exec::CompiledEntry;
using exec::CompiledParam;
using exec::EntryHot;
using exec::ExecPlan;
using exec::HashSlot;
using exec::kNoChain;

std::uint32_t prefix_mask(std::uint8_t len) noexcept {
  if (len == 0) return 0;
  if (len >= 32) return 0xFFFF'FFFFu;
  return ~((1u << (32 - len)) - 1u);
}

std::string group_site(unsigned g) { return "g" + std::to_string(g); }

std::string cmu_site(unsigned g, unsigned c) {
  return group_site(g) + "/c" + std::to_string(c);
}

/// Interns hash-lane identities into symbolic variable ids.  Two lanes get
/// the same id iff they compute the same function of the candidate key —
/// same physical unit (CRC polynomial/init) and same configured mask — so
/// a compiled slot snapshot and a live unit translate to equal SymWords
/// exactly when their configurations agree.
class LaneTable {
 public:
  SymWord word(const dataplane::HashUnit& u) {
    if (!u.configured()) return SymWord::constant(0);
    // Ids number lanes in first-seen order from 1 (id 0 is never used;
    // constants need no id).
    std::uint32_t id = 1;
    for (const Key& k : ids_) {
      if (k.unit_index == u.unit_index() && k.mask == u.mask()) break;
      ++id;
    }
    if (id > ids_.size()) ids_.push_back({u.unit_index(), u.mask()});
    return SymWord::lane(id);
  }

 private:
  struct Key {
    unsigned unit_index;
    CandidateKey mask;
  };
  std::vector<Key> ids_;  // a pipeline has a handful of lanes
};

/// Interpreted-side lane word: mirrors CompressionStage::compute (a cleared
/// unit contributes constant 0) and CompressionStage::select (negative or
/// out-of-range selector indices read 0).
SymWord live_word(LaneTable& lanes, const CompressionStage& comp,
                  std::int8_t unit) {
  if (unit < 0) return SymWord::constant(0);
  const auto u = static_cast<unsigned>(unit);
  if (u >= comp.num_units() || !comp.spec_of(u)) return SymWord::constant(0);
  return lanes.word(comp.unit(u));
}

/// Compiled-side lane word: slot 0 is the constant-zero lane.
SymWord slot_word(LaneTable& lanes, std::span<const HashSlot> slots,
                  std::uint16_t slot, bool& oob) {
  if (slot == 0) return SymWord::constant(0);
  if (slot >= slots.size()) {
    oob = true;
    return SymWord::constant(0);
  }
  return lanes.word(slots[slot].unit);
}

/// Accumulates (interpreted chain channel, compiled dense index) pairs
/// observed at parameter / gate / chain-out sites and checks the mapping is
/// a bijection with 0 <-> 0.  The compiler's dense remap is an allocation
/// detail; what translation requires is *consistency* — every use of one
/// channel must read/write the same dense cell, and no two channels may
/// share one.
class ChainMap {
 public:
  /// Empty string when consistent; a description of the violation otherwise.
  std::string note(std::uint32_t channel, std::uint32_t dense,
                   std::size_t chain_count) {
    using std::to_string;
    if ((channel == 0) != (dense == 0)) {
      return "channel " + to_string(channel) + " lowered to dense index " +
             to_string(dense) +
             " (0 must map to the never-written zero cell, and only 0 may)";
    }
    if (channel == 0) return {};
    if (dense >= chain_count) {
      return "dense chain index " + to_string(dense) + " out of range (plan has " +
             to_string(chain_count) + " channels)";
    }
    const auto f = fwd_.emplace(channel, dense);
    if (!f.second && f.first->second != dense) {
      return "channel " + to_string(channel) + " lowered to dense indices " +
             to_string(f.first->second) + " and " + to_string(dense);
    }
    const auto r = rev_.emplace(dense, channel);
    if (!r.second && r.first->second != channel) {
      return "dense chain index " + to_string(dense) + " serves channels " +
             to_string(r.first->second) + " and " + to_string(channel);
    }
    return {};
  }

 private:
  std::map<std::uint32_t, std::uint32_t> fwd_;
  std::map<std::uint32_t, std::uint32_t> rev_;
};

struct EntryChecker {
  VerifyReport& report;
  LaneTable& lanes;
  ChainMap& chains;
  const ExecPlan& plan;
  const CompressionStage& comp;
  unsigned group;
  unsigned cmu;
  std::uint32_t phys;
  bool diverged = false;

  void fail(const std::string& check, const std::string& message,
            std::string hint = {}) {
    diverged = true;
    report.add(Severity::kError, "translate." + check,
               cmu_site(group, cmu) + " phys " + std::to_string(phys), message,
               hint.empty()
                   ? "PlanCompiler lowering diverges from the interpreted "
                     "Cmu semantics for this entry"
                   : std::move(hint));
  }

  /// Slice of a word under the interpreted KeySlice semantics
  /// (shift-then-mask; width >= 32 keeps every shifted bit).
  static SymWord interp_slice(const SymWord& key, const KeySlice& slice) {
    const SymWord shifted = key >> slice.offset;
    return slice.width >= 32 ? shifted
                             : (shifted & ((1u << slice.width) - 1u));
  }

  void check_filter(const CmuTaskEntry& e, const CompiledEntry& ce) {
    const std::uint32_t src_mask = prefix_mask(e.filter.src_len);
    const std::uint32_t dst_mask = prefix_mask(e.filter.dst_len);
    const bool src_ok = ce.filter_src_mask == src_mask &&
                        ((ce.filter_src_ip ^ e.filter.src_ip) & src_mask) == 0;
    const bool dst_ok = ce.filter_dst_mask == dst_mask &&
                        ((ce.filter_dst_ip ^ e.filter.dst_ip) & dst_mask) == 0;
    if (!src_ok || !dst_ok) {
      std::ostringstream os;
      os << "compiled filter predicate differs from the installed prefix "
            "filter (src "
         << e.filter.src_ip << "/" << unsigned{e.filter.src_len} << " -> mask "
         << ce.filter_src_mask << ", dst " << e.filter.dst_ip << "/"
         << unsigned{e.filter.dst_len} << " -> mask " << ce.filter_dst_mask
         << ")";
      fail("filter", os.str());
    }
  }

  void check_sampling(const CmuTaskEntry& e, const CompiledEntry& ce) {
    const bool sampled = e.sample_probability < 1.0;
    if (ce.sampled != sampled ||
        (sampled && ce.sample_probability != e.sample_probability)) {
      fail("sample", "compiled sampling coin differs (probability "
                     "or sampled flag mismatch)");
      return;
    }
    if (sampled && ce.sample_seed != 0xC01Full + e.task_id) {
      fail("sample", "compiled sampling seed differs from the interpreted "
                     "per-task seed (0xC01F + phys id)");
    }
  }

  /// Both sides' sliced dynamic keys as symbolic words; returns whether
  /// they agree (address translation builds on each side's own slice).
  bool check_key(const CmuTaskEntry& e, const CompiledEntry& ce,
                 SymWord& interp_sliced, SymWord& compiled_sliced) {
    const SymWord interp_key = live_word(lanes, comp, e.key_sel.unit_a) ^
                               live_word(lanes, comp, e.key_sel.unit_b);
    interp_sliced = interp_slice(interp_key, e.key_slice);

    bool oob = false;
    const SymWord compiled_key =
        slot_word(lanes, plan.hash_slots(), ce.key_slot_a, oob) ^
        slot_word(lanes, plan.hash_slots(), ce.key_slot_b, oob);
    if (oob) {
      fail("key", "compiled key references a hash slot outside the plan");
      return false;
    }
    compiled_sliced = (compiled_key >> ce.key_shift) & ce.key_mask;
    const int bit = SymWord::first_divergent_bit(interp_sliced, compiled_sliced);
    if (bit >= 0) {
      std::ostringstream os;
      os << "sliced dynamic key diverges at bit " << bit << ": interpreted "
         << interp_sliced.to_string() << " vs compiled "
         << compiled_sliced.to_string();
      fail("key", os.str());
      return false;
    }
    return true;
  }

  void check_address(const CmuTaskEntry& e, const CompiledEntry& ce,
                     const SymWord& interp_sliced,
                     const SymWord& compiled_sliced, bool key_ok,
                     std::uint32_t register_size) {
    if (e.partition.size == 0) {
      fail("address", "installed entry has an empty partition (nothing to "
                      "translate addresses into)");
      return;
    }
    if (ce.addr_base != e.partition.base ||
        ce.addr_mask != e.partition.size - 1u) {
      std::ostringstream os;
      os << "compiled address window [base " << ce.addr_base << " mask "
         << ce.addr_mask << "] differs from the installed partition [base "
         << e.partition.base << " size " << e.partition.size << "]";
      fail("address", os.str());
    }
    if (std::uint64_t{ce.addr_base} + ce.addr_mask >= register_size) {
      std::ostringstream os;
      os << "compiled address window reaches cell "
         << (std::uint64_t{ce.addr_base} + ce.addr_mask)
         << " but the register has only " << register_size << " cells";
      fail("address.bounds", os.str(),
           "a plan with out-of-window addresses corrupts neighbouring "
           "partitions; do not publish it");
    }
    if (!key_ok) return;  // root cause already reported under translate.key
    // translate_address: offset = width >= size_log ? sliced >> (width -
    // size_log) : sliced, then base + (offset & (size - 1)).  The compiled
    // path pre-resolves the shift; compare the offset expressions.
    const unsigned size_log = log2_floor(e.partition.size);
    const unsigned interp_shift =
        e.key_slice.width >= size_log ? e.key_slice.width - size_log : 0u;
    const SymWord interp_off =
        (interp_sliced >> interp_shift) & (e.partition.size - 1u);
    const SymWord compiled_off = (compiled_sliced >> ce.addr_shift) & ce.addr_mask;
    const int bit = SymWord::first_divergent_bit(interp_off, compiled_off);
    if (bit >= 0) {
      std::ostringstream os;
      os << "register address offset diverges at bit " << bit
         << " (pre-resolved shift " << unsigned{ce.addr_shift}
         << " vs interpreted " << interp_shift << "): interpreted "
         << interp_off.to_string() << " vs compiled "
         << compiled_off.to_string();
      fail("address", os.str());
    }
  }

  void check_param(const char* which, const ParamSelect& sel,
                   const CompiledParam& p) {
    const auto mismatch = [&](const std::string& why) {
      fail("param", std::string(which) + ": " + why);
    };
    switch (sel.source) {
      case ParamSelect::Source::kConst:
        if (p.kind != CompiledParam::Kind::kConst || p.value != sel.const_value) {
          mismatch("constant parameter lowered to a different kind or value");
        }
        break;
      case ParamSelect::Source::kMeta:
        if (p.kind != CompiledParam::Kind::kMeta || p.meta != sel.meta) {
          mismatch("metadata parameter lowered to a different field");
        }
        break;
      case ParamSelect::Source::kCompressedKey: {
        if (p.kind != CompiledParam::Kind::kKey) {
          mismatch("compressed-key parameter lowered to a different kind");
          break;
        }
        const SymWord interp = interp_slice(
            live_word(lanes, comp, sel.key_sel.unit_a) ^
                live_word(lanes, comp, sel.key_sel.unit_b),
            sel.slice);
        bool oob = false;
        const SymWord compiled =
            ((slot_word(lanes, plan.hash_slots(), p.slot_a, oob) ^
              slot_word(lanes, plan.hash_slots(), p.slot_b, oob)) >>
             p.shift) &
            p.mask;
        if (oob) {
          mismatch("parameter references a hash slot outside the plan");
          break;
        }
        const int bit = SymWord::first_divergent_bit(interp, compiled);
        if (bit >= 0) {
          std::ostringstream os;
          os << "sliced key parameter diverges at bit " << bit
             << ": interpreted " << interp.to_string() << " vs compiled "
             << compiled.to_string();
          mismatch(os.str());
        }
        break;
      }
      case ParamSelect::Source::kChain: {
        if (p.kind != CompiledParam::Kind::kChain) {
          mismatch("chain parameter lowered to a different kind");
          break;
        }
        const std::string why =
            chains.note(sel.const_value, p.value, plan.num_chain_channels());
        if (!why.empty()) fail("chain", std::string(which) + ": " + why);
        break;
      }
    }
  }

  void check_prep(const CmuTaskEntry& e, const CompiledEntry& ce) {
    if (ce.prep != e.prep) {
      fail("prep", "compiled preparation function differs from the "
                   "installed one");
      return;
    }
    if (e.prep == PrepFn::kSubtractGated || e.prep == PrepFn::kKeepOnChainZero ||
        e.prep == PrepFn::kBitSelectOneHotGated) {
      const std::string why =
          chains.note(e.chain_gate, ce.gate_chain, plan.num_chain_channels());
      if (!why.empty()) fail("prep", "gate: " + why);
    }
    if (e.prep == PrepFn::kCouponOneHot &&
        (ce.coupon_count != e.coupon.num_coupons ||
         ce.coupon_probability != e.coupon.draw_probability ||
         ce.coupon_total !=
             e.coupon.draw_probability * e.coupon.num_coupons)) {
      fail("prep", "compiled coupon constants differ from the installed "
                   "coupon parameters");
    }
  }

  void check_op(const CmuTaskEntry& e, const CompiledEntry& ce,
                std::uint32_t register_value_mask) {
    if (ce.op != e.op) {
      std::ostringstream os;
      os << "compiled SALU op-code " << dataplane::to_string(ce.op)
         << " differs from the installed op " << dataplane::to_string(e.op);
      fail("op", os.str());
    }
    if (ce.value_mask != register_value_mask) {
      std::ostringstream os;
      os << "compiled value mask 0x" << std::hex << ce.value_mask
         << " differs from the register's mask 0x" << register_value_mask;
      fail("op", os.str());
    }
    if (ce.output_old_value != e.output_old_value) {
      fail("op", "compiled old-value export flag differs");
    }
    const bool one_hot = e.prep == PrepFn::kBitSelectOneHot ||
                         e.prep == PrepFn::kCouponOneHot;
    if (ce.one_hot_export != one_hot) {
      fail("op", "compiled one-hot export flag differs from the prep "
                 "function's export semantics");
    }
  }

  void check_chain_out(const CmuTaskEntry& e, const CompiledEntry& ce) {
    if (e.chain_out == 0) {
      if (ce.chain_out != kNoChain) {
        fail("chain", "compiled entry publishes on a chain channel the "
                      "installed entry never writes");
      }
    } else {
      if (ce.chain_out == kNoChain) {
        fail("chain", "compiled entry drops the installed entry's chain "
                      "output");
      } else {
        const std::string why =
            chains.note(e.chain_out, ce.chain_out, plan.num_chain_channels());
        if (!why.empty()) fail("chain", "chain_out: " + why);
      }
    }
    if (ce.chain_fallback != e.chain_fallback) {
      fail("chain", "compiled chain-fallback flag differs");
    }
  }
};

}  // namespace

void validate_translation(const FlyMonDataPlane& dp, const ExecPlan& plan,
                          VerifyReport& report) {
  if (plan.num_groups() != dp.num_groups()) {
    std::ostringstream os;
    os << "plan compiled for " << plan.num_groups()
       << " groups but the data plane has " << dp.num_groups();
    report.add(Severity::kError, "translate.entries", "pipeline", os.str(),
               "the plan was compiled against a different pipeline; "
               "recompile before publishing");
    return;
  }

  LaneTable lanes;
  ChainMap chains;
  const auto groups = plan.compiled_groups();
  const auto cmus = plan.compiled_cmus();
  const auto entries = plan.entries();

  // Hash-slot audit: every compiled lane snapshot must still agree with the
  // live unit it was copied from — a stale snapshot silently hashes with an
  // outdated mask (slot 0 is the constant-zero lane, nothing to audit).
  for (std::size_t s = 1; s < plan.hash_slots().size(); ++s) {
    const HashSlot& slot = plan.hash_slots()[s];
    const auto site = [&] {
      std::ostringstream os;
      os << "hash slot " << s << " (g" << slot.group << " unit "
         << slot.unit_index << ")";
      return os.str();
    };
    if (slot.group >= dp.num_groups() ||
        slot.unit_index >= dp.group(slot.group).compression().num_units()) {
      report.add(Severity::kError, "translate.lane", site(),
                 "slot references a hash unit outside the pipeline");
      continue;
    }
    const CompressionStage& comp = dp.group(slot.group).compression();
    const dataplane::HashUnit& live = comp.unit(slot.unit_index);
    if (!comp.spec_of(slot.unit_index) || !live.configured() ||
        live.unit_index() != slot.unit.unit_index() ||
        live.mask() != slot.unit.mask()) {
      report.add(Severity::kError, "translate.lane", site(),
                 "compiled lane snapshot diverges from the live hash unit "
                 "(mask or configuration changed since compile)",
                 "the plan is stale; recompile so compiled hashing matches "
                 "the interpreted compression stage");
    }
  }

  std::uint32_t flat_cmu = 0;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    const CmuGroup& grp = dp.group(g);
    const CompressionStage& comp = grp.compression();

    if (g >= groups.size() || groups[g].cmu_begin != flat_cmu ||
        groups[g].cmu_end - groups[g].cmu_begin != grp.num_cmus()) {
      report.add(Severity::kError, "translate.entries", group_site(g),
                 "compiled group does not cover the group's CMUs "
                 "contiguously");
      return;  // flat indices are unusable past this point
    }
    unsigned configured = 0;
    for (unsigned u = 0; u < comp.num_units(); ++u) {
      if (comp.spec_of(u)) ++configured;
    }
    if (groups[g].configured_units != configured) {
      report.add(Severity::kWarning, "translate.lane", group_site(g),
                 "compiled hash-invocation count differs from the live "
                 "configured-unit count (telemetry skew only)");
    }

    for (unsigned c = 0; c < grp.num_cmus(); ++c, ++flat_cmu) {
      const Cmu& cmu = grp.cmu(c);
      const CompiledCmu& cc = cmus[flat_cmu];

      if (cc.reg != &cmu.reg()) {
        report.add(Severity::kError, "translate.register", cmu_site(g, c),
                   "compiled CMU is bound to a different register than the "
                   "live CMU it was lowered from");
      }
      const auto& installed = cmu.entries();
      if (cc.entry_end < cc.entry_begin || cc.entry_end > entries.size() ||
          cc.entry_end - cc.entry_begin != installed.size()) {
        std::ostringstream os;
        os << "compiled entry count "
           << (cc.entry_end >= cc.entry_begin ? cc.entry_end - cc.entry_begin
                                              : 0)
           << " differs from the " << installed.size()
           << " installed entries";
        report.add(Severity::kError, "translate.entries", cmu_site(g, c), os.str(),
                   "an entry was dropped, duplicated or reordered during "
                   "compilation");
        continue;
      }
      // Counts agree and both sides enumerate in priority (installation)
      // order — ir::for_each_installed_entry is the shared walk — so the
      // pairing is index-aligned.
      for (std::size_t i = 0; i < installed.size(); ++i) {
        const CmuTaskEntry& e = installed[i];
        const CompiledEntry& ce = entries[cc.entry_begin + i];
        EntryChecker check{report, lanes, chains, plan, comp, g, c, e.task_id};
        check.check_filter(e, ce);
        check.check_sampling(e, ce);
        SymWord interp_sliced, compiled_sliced;
        const bool key_ok =
            check.check_key(e, ce, interp_sliced, compiled_sliced);
        check.check_address(e, ce, interp_sliced, compiled_sliced, key_ok,
                            cmu.reg().size());
        check.check_param("p1", e.p1, ce.p1);
        check.check_param("p2", e.p2, ce.p2);
        check.check_prep(e, ce);
        check.check_op(e, ce, cmu.reg().value_mask());
        check.check_chain_out(e, ce);
      }
    }
  }

  // SoA congruence: the batch filter/address passes execute from the
  // plan's hot parallel arrays, not the AoS entries the checks above
  // proved correct — so the two layouts must agree field for field, or
  // everything proven is about the wrong representation.
  const EntryHot& hot = plan.hot();
  if (hot.size() != entries.size()) {
    std::ostringstream os;
    os << "SoA hot arrays hold " << hot.size() << " entries but the AoS view "
       << entries.size();
    report.add(Severity::kError, "translate.soa", "plan", os.str(),
               "build_hot() was not re-run after the entry set changed");
    return;
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const CompiledEntry& ce = entries[i];
    const bool ok = hot.f_src_ip[i] == ce.filter_src_ip &&
                    hot.f_src_mask[i] == ce.filter_src_mask &&
                    hot.f_dst_ip[i] == ce.filter_dst_ip &&
                    hot.f_dst_mask[i] == ce.filter_dst_mask &&
                    hot.key_slot_a[i] == ce.key_slot_a &&
                    hot.key_slot_b[i] == ce.key_slot_b &&
                    hot.key_shift[i] == ce.key_shift &&
                    hot.key_mask[i] == ce.key_mask &&
                    hot.addr_shift[i] == ce.addr_shift &&
                    hot.addr_mask[i] == ce.addr_mask &&
                    hot.addr_base[i] == ce.addr_base;
    if (!ok) {
      std::ostringstream os;
      os << "entry " << i;
      report.add(Severity::kError, "translate.soa", os.str(),
                 "SoA hot arrays diverge from the AoS compiled entry",
                 "the vectorised batch passes would execute a different "
                 "filter/key/address than the entry the symbolic checks "
                 "proved; rebuild the hot arrays");
    }
  }
}

}  // namespace flymon::verify::translate

namespace flymon::verify {
namespace {

class TranslationAnalyzer final : public Analyzer {
 public:
  std::string_view name() const noexcept override { return "translate"; }
  std::string_view description() const noexcept override {
    return "symbolic equivalence of the compiled ExecPlan against the "
           "interpreted CMU semantics (requires an explicit plan: "
           "VerifyContext::exec_plan)";
  }
  void run(const VerifyContext& ctx, VerifyReport& report) const override {
    // Only validates an explicitly supplied plan: mid-reconfiguration the
    // published plan legally describes the previous deployment.
    if (ctx.exec_plan == nullptr || ctx.dataplane == nullptr) return;
    translate::validate_translation(*ctx.dataplane, *ctx.exec_plan, report);
  }
};

class MergeSoundnessAnalyzer final : public Analyzer {
 public:
  std::string_view name() const noexcept override { return "merge"; }
  std::string_view description() const noexcept override {
    return "merge-region monoid laws + independent merge-blocker "
           "re-derivation over the compiled plan (requires "
           "VerifyContext::exec_plan)";
  }
  void run(const VerifyContext& ctx, VerifyReport& report) const override {
    if (ctx.exec_plan == nullptr || ctx.dataplane == nullptr) return;
    translate::prove_merge_soundness(*ctx.dataplane, *ctx.exec_plan, report);
  }
};

}  // namespace

std::unique_ptr<Analyzer> make_translation_analyzer() {
  return std::make_unique<TranslationAnalyzer>();
}

std::unique_ptr<Analyzer> make_merge_soundness_analyzer() {
  return std::make_unique<MergeSoundnessAnalyzer>();
}

VerifyReport validate_plan(const FlyMonDataPlane& dp,
                           const exec::ExecPlan& plan) {
  VerifyReport report;
  translate::validate_translation(dp, plan, report);
  translate::prove_merge_soundness(dp, plan, report);
  report.analyzers_run = {"translate", "merge"};
  return report;
}

}  // namespace flymon::verify
