#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/bits.hpp"
#include "core/flymon_dataplane.hpp"
#include "exec/exec_plan.hpp"
#include "ir/ir.hpp"
#include "trace/span.hpp"

namespace flymon::exec {

namespace {

std::uint32_t prefix_mask(std::uint8_t len) noexcept {
  if (len == 0) return 0;
  if (len >= 32) return 0xFFFF'FFFFu;
  return ~((1u << (32 - len)) - 1u);
}

const char* prep_name(PrepFn f) noexcept {
  switch (f) {
    case PrepFn::kNone: return "none";
    case PrepFn::kCouponOneHot: return "coupon";
    case PrepFn::kBitSelectOneHot: return "onehot";
    case PrepFn::kSubtractGated: return "subgate";
    case PrepFn::kKeepOnChainZero: return "keep0";
    case PrepFn::kBitSelectOneHotGated: return "onehot-gated";
  }
  return "?";
}

void describe_param(std::ostringstream& os, const ParamSelect& sel) {
  switch (sel.source) {
    case ParamSelect::Source::kConst:
      os << "const:" << sel.const_value;
      break;
    case ParamSelect::Source::kMeta:
      os << "meta:" << static_cast<unsigned>(sel.meta);
      break;
    case ParamSelect::Source::kCompressedKey:
      os << "key:u" << int{sel.key_sel.unit_a} << "^u" << int{sel.key_sel.unit_b}
         << "[" << unsigned{sel.slice.offset} << "+" << unsigned{sel.slice.width}
         << "]";
      break;
    case ParamSelect::Source::kChain:
      os << "chain:" << sel.const_value;
      break;
  }
}

/// Pointer-free, deterministic description of one installed entry.  Two
/// compiles of behaviourally identical deployments produce identical lines;
/// the --plan-diff tooling compares them as sets.
std::string describe_entry(unsigned g, unsigned c, const CmuTaskEntry& e,
                           const EntryOwnership* owner) {
  std::ostringstream os;
  if (owner != nullptr) {
    os << "task " << owner->task_id << " \"" << owner->name << "\" row "
       << owner->row << " unit " << owner->unit;
  } else {
    os << "phys " << e.task_id;
  }
  os << " @g" << g << "/c" << c << ": filter=";
  if (e.filter.is_wildcard()) {
    os << "any";
  } else {
    os << e.filter.src_ip << "/" << unsigned{e.filter.src_len} << "->"
       << e.filter.dst_ip << "/" << unsigned{e.filter.dst_len};
  }
  os << " prio=" << e.priority;
  if (e.sample_probability < 1.0) {
    os << " sample=" << std::setprecision(17) << e.sample_probability;
  }
  os << " key=u" << int{e.key_sel.unit_a} << "^u" << int{e.key_sel.unit_b}
     << "[" << unsigned{e.key_slice.offset} << "+" << unsigned{e.key_slice.width}
     << "] mem[" << e.partition.base << "+" << e.partition.size << "]";
  os << " p1=";
  describe_param(os, e.p1);
  os << " p2=";
  describe_param(os, e.p2);
  os << " prep=" << prep_name(e.prep);
  if (e.prep == PrepFn::kCouponOneHot) {
    os << "(" << e.coupon.num_coupons << "," << std::setprecision(17)
       << e.coupon.draw_probability << ")";
  }
  if (e.chain_gate != 0) os << " gate=" << e.chain_gate;
  os << " op=" << dataplane::to_string(e.op);
  if (e.output_old_value) os << " old";
  if (e.chain_out != 0) os << " chain_out=" << e.chain_out;
  if (e.chain_fallback) os << " fallback";
  return os.str();
}

}  // namespace

std::shared_ptr<const ExecPlan> PlanCompiler::compile(
    FlyMonDataPlane& dp, std::span<const EntryOwnership> owners,
    std::uint64_t generation) {
  trace::Span span("exec.compile", generation);
  auto plan = std::make_shared<ExecPlan>();
  plan->generation_ = generation;
  plan->owners_.assign(owners.begin(), owners.end());
  plan->slots_.emplace_back();  // lane 0: constant zero

  // Dense chain-channel remap: channel 0 (the "unused" sentinel, never
  // written by the interpreted path) keeps dense index 0, which batch
  // scratch zero-fills and no compiled entry writes.
  std::map<std::uint32_t, std::uint16_t> chain_index;
  const auto chain_of = [&](std::uint32_t channel) -> std::uint16_t {
    if (channel == 0) return 0;
    const auto [it, fresh] = chain_index.emplace(
        channel, static_cast<std::uint16_t>(chain_index.size() + 1));
    (void)fresh;
    return it->second;
  };

  // Enumerate the deployment through the same walk the IR builder lowers
  // analyzer nodes from, so the compiled plan and the static analyses can
  // never disagree about the entry set or its evaluation order.
  struct RawEntry {
    unsigned group, cmu;
    const CmuTaskEntry* entry;
  };
  std::vector<RawEntry> raw;
  ir::for_each_installed_entry(
      dp, [&](unsigned g, unsigned c, Cmu&, const CmuTaskEntry& e) {
        raw.push_back({g, c, &e});
      });
  std::size_t ri = 0;

  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    CmuGroup& grp = dp.group(g);
    const CompressionStage& comp = grp.compression();

    CompiledGroup cg;
    cg.cmu_begin = static_cast<std::uint32_t>(plan->cmus_.size());
    cg.packets = grp.packets_counter();
    cg.hashes = grp.hash_counter();
    cg.num_units = comp.num_units();
    // Hash lanes: one slot per configured unit.  The controller clears
    // units no entry references before it compiles, so each lane feeds
    // some entry (and every traced record's unit keys).
    for (unsigned u = 0; u < comp.num_units(); ++u) {
      if (!comp.spec_of(u)) continue;
      ++cg.configured_units;
      cg.unit_slot[u] = static_cast<std::uint16_t>(plan->slots_.size());
      plan->slots_.push_back(HashSlot{comp.unit(u), g, u});
    }
    const auto slot_of = [&](std::int8_t unit) -> std::uint16_t {
      const auto u = static_cast<unsigned>(unit);
      return unit < 0 || u >= comp.num_units() ? 0 : cg.unit_slot[u];
    };

    for (unsigned c = 0; c < grp.num_cmus(); ++c) {
      Cmu& cmu = grp.cmu(c);
      CompiledCmu cc;
      cc.entry_begin = static_cast<std::uint32_t>(plan->entries_.size());
      cc.group = g;
      cc.index = c;
      cc.reg = &cmu.reg();
      cc.updates = cmu.updates_counter();
      cc.sampled_out = cmu.sampled_out_counter();
      cc.prep_aborts = cmu.prep_aborts_counter();

      while (ri < raw.size() && raw[ri].group == g && raw[ri].cmu == c) {
        const CmuTaskEntry& e = *raw[ri++].entry;
        CompiledEntry ce;
        ce.filter_src_ip = e.filter.src_ip;
        ce.filter_src_mask = prefix_mask(e.filter.src_len);
        ce.filter_dst_ip = e.filter.dst_ip;
        ce.filter_dst_mask = prefix_mask(e.filter.dst_len);
        ce.sampled = e.sample_probability < 1.0;
        ce.sample_probability = e.sample_probability;
        ce.sample_seed = 0xC01Full + e.task_id;
        ce.phys_id = e.task_id;

        ce.key_slot_a = slot_of(e.key_sel.unit_a);
        ce.key_slot_b = slot_of(e.key_sel.unit_b);
        ce.key_shift = e.key_slice.offset;
        ce.key_mask = e.key_slice.width >= 32
                          ? 0xFFFF'FFFFu
                          : ((1u << e.key_slice.width) - 1u);

        if (e.partition.size == 0 || e.partition.end() > cmu.reg().size()) {
          throw std::logic_error("PlanCompiler: entry partition outside register");
        }
        const unsigned size_log = log2_floor(e.partition.size);
        ce.addr_shift = e.key_slice.width >= size_log
                            ? static_cast<std::uint8_t>(e.key_slice.width - size_log)
                            : 0u;
        ce.addr_mask = e.partition.size - 1u;
        ce.addr_base = e.partition.base;

        const auto lower_param = [&](const ParamSelect& sel) {
          CompiledParam p;
          switch (sel.source) {
            case ParamSelect::Source::kConst:
              p.kind = CompiledParam::Kind::kConst;
              p.value = sel.const_value;
              break;
            case ParamSelect::Source::kMeta:
              p.kind = CompiledParam::Kind::kMeta;
              p.meta = sel.meta;
              break;
            case ParamSelect::Source::kCompressedKey:
              p.kind = CompiledParam::Kind::kKey;
              p.slot_a = slot_of(sel.key_sel.unit_a);
              p.slot_b = slot_of(sel.key_sel.unit_b);
              p.shift = sel.slice.offset;
              p.mask = sel.slice.width >= 32 ? 0xFFFF'FFFFu
                                             : ((1u << sel.slice.width) - 1u);
              break;
            case ParamSelect::Source::kChain:
              p.kind = CompiledParam::Kind::kChain;
              p.value = chain_of(sel.const_value);
              break;
          }
          return p;
        };
        ce.p1 = lower_param(e.p1);
        ce.p2 = lower_param(e.p2);

        ce.prep = e.prep;
        if (e.prep == PrepFn::kSubtractGated || e.prep == PrepFn::kKeepOnChainZero ||
            e.prep == PrepFn::kBitSelectOneHotGated) {
          ce.gate_chain = chain_of(e.chain_gate);
        }
        if (e.prep == PrepFn::kCouponOneHot) {
          ce.coupon_count = e.coupon.num_coupons;
          ce.coupon_probability = e.coupon.draw_probability;
          // Same operands, same expression as the interpreted path, so the
          // precomputed threshold is bit-identical.
          ce.coupon_total = e.coupon.draw_probability * e.coupon.num_coupons;
        }

        ce.op = e.op;
        ce.value_mask = cmu.reg().value_mask();
        ce.output_old_value = e.output_old_value;
        ce.one_hot_export = e.prep == PrepFn::kBitSelectOneHot ||
                            e.prep == PrepFn::kCouponOneHot;
        ce.chain_out = e.chain_out != 0 ? chain_of(e.chain_out) : kNoChain;
        ce.chain_fallback = e.chain_fallback;

        // Resolve counter series at publish time, never on the packet path.
        cc.op_counters[static_cast<std::size_t>(e.op)] = cmu.op_counter(e.op);

        // Shard-merge analysis: this entry's writes fold exactly across
        // per-worker register replicas only if its operation is a
        // commutative/associative reduction whose behaviour never depends
        // on the register's current value in a non-monoidal way
        // (DESIGN.md §11).  Any violation poisons the whole plan — the
        // worker pool then falls back to sequential execution.
        const auto blocker = [&](MergeBlockerKind kind, const char* why) {
          std::ostringstream os;
          os << "g" << g << "/c" << c << " phys " << e.task_id << ": " << why;
          plan->merge_blockers_.push_back(os.str());
          plan->merge_blocker_kinds_.push_back(kind);
        };
        if (ce.chain_out != kNoChain) {
          blocker(MergeBlockerKind::kChainOutput,
                  "publishes register-derived value on a chain channel");
        }
        MergeRegion region;
        region.cmu = static_cast<std::uint32_t>(plan->cmus_.size());
        region.base = ce.addr_base;
        region.size = ce.addr_mask + 1u;
        region.value_mask = ce.value_mask;
        bool writes_state = true;
        switch (e.op) {
          case dataplane::StatefulOp::kNop:
            writes_state = false;
            break;
          case dataplane::StatefulOp::kCondAdd: {
            region.kind = MergeKind::kSum;
            // Saturating sum is exact only when `cur < p2` can never gate
            // below saturation, i.e. the *effective* p2 (after prep
            // rewrites) is a constant >= the register's value mask.
            bool unconditional = false;
            switch (e.prep) {
              case PrepFn::kCouponOneHot:
              case PrepFn::kBitSelectOneHot:
                unconditional = 1u >= ce.value_mask;  // prep forces p2 = 1
                break;
              case PrepFn::kSubtractGated:
                unconditional = false;  // prep forces p2 = 0: register-gated
                break;
              default:
                unconditional = ce.p2.kind == CompiledParam::Kind::kConst &&
                                ce.p2.value >= ce.value_mask;
                break;
            }
            if (!unconditional) {
              blocker(MergeBlockerKind::kGatedCondAdd,
                      "Cond-ADD condition can gate on the register value");
            }
            break;
          }
          case dataplane::StatefulOp::kMax:
            region.kind = MergeKind::kMax;
            break;
          case dataplane::StatefulOp::kAndOr: {
            region.kind = MergeKind::kOr;
            // OR folds from the shard identity 0; AND would need an
            // all-ones identity, so the mode must be pinned to OR.
            bool or_pinned = false;
            switch (e.prep) {
              case PrepFn::kCouponOneHot:
              case PrepFn::kBitSelectOneHot:
                or_pinned = true;  // prep forces p2 = 1
                break;
              case PrepFn::kSubtractGated:
                or_pinned = false;  // prep forces p2 = 0 (AND mode)
                break;
              default:
                or_pinned = ce.p2.kind == CompiledParam::Kind::kConst &&
                            ce.p2.value != 0;
                break;
            }
            if (!or_pinned) {
              blocker(MergeBlockerKind::kAndMode,
                      "AND-OR not pinned to OR mode");
            }
            break;
          }
          case dataplane::StatefulOp::kXor:
            region.kind = MergeKind::kXor;
            break;
        }
        if (writes_state) plan->merge_regions_.push_back(region);

        const EntryOwnership* owner = nullptr;
        for (const EntryOwnership& o : plan->owners_) {
          if (o.group == g && o.cmu == c && o.phys_id == e.task_id) {
            owner = &o;
            break;
          }
        }
        plan->signature_.push_back(describe_entry(g, c, e, owner));
        plan->entries_.push_back(ce);
      }

      cc.entry_end = static_cast<std::uint32_t>(plan->entries_.size());
      plan->cmus_.push_back(cc);
    }

    cg.cmu_end = static_cast<std::uint32_t>(plan->cmus_.size());
    plan->groups_.push_back(cg);
  }

  plan->chain_count_ = chain_index.size() + 1;

  // Collapse duplicate merge windows (several filter entries of one task
  // share a partition) and reject overlapping windows that disagree on the
  // fold — mixed reductions over one cell are not a single monoid, so the
  // merge would not be exact.
  auto& regions = plan->merge_regions_;
  std::sort(regions.begin(), regions.end(),
            [](const MergeRegion& a, const MergeRegion& b) {
              if (a.cmu != b.cmu) return a.cmu < b.cmu;
              if (a.base != b.base) return a.base < b.base;
              if (a.size != b.size) return a.size < b.size;
              return a.kind < b.kind;
            });
  regions.erase(std::unique(regions.begin(), regions.end(),
                            [](const MergeRegion& a, const MergeRegion& b) {
                              return a.cmu == b.cmu && a.base == b.base &&
                                     a.size == b.size && a.kind == b.kind;
                            }),
                regions.end());
  for (std::size_t i = 0; i + 1 < regions.size(); ++i) {
    for (std::size_t j = i + 1; j < regions.size(); ++j) {
      const MergeRegion& a = regions[i];
      const MergeRegion& b = regions[j];
      if (a.cmu != b.cmu || a.base + a.size <= b.base) break;
      if (a.kind != b.kind) {
        std::ostringstream os;
        os << "cmu " << a.cmu << " [" << b.base
           << "]: overlapping merge windows disagree (" << to_string(a.kind)
           << " vs " << to_string(b.kind) << ")";
        plan->merge_blockers_.push_back(os.str());
        plan->merge_blocker_kinds_.push_back(MergeBlockerKind::kMixedWindow);
      }
    }
  }

  // Derive the SoA hot arrays the batch filter/address passes execute
  // from; the translation validator proves them congruent with the AoS
  // entries on every publish.
  plan->build_hot();

  return plan;
}

std::optional<std::vector<MergeRegion>> PlanCompiler::scoped_regions(
    const ExecPlan& from, const ExecPlan& to,
    std::span<const CellRange> zeroed) {
  enum class Place { kInside, kOutside, kStraddles };
  const auto place = [&](const MergeRegion& r) {
    Place p = Place::kOutside;
    for (const CellRange& z : zeroed) {
      if (z.cmu != r.cmu || r.base >= z.base + z.size ||
          z.base >= r.base + r.size) {
        continue;
      }
      if (r.base < z.base || r.base + r.size > z.base + z.size) {
        return Place::kStraddles;
      }
      p = Place::kInside;
    }
    return p;
  };
  // Both region lists are sorted and deduplicated the same way, so the
  // regions outside `zeroed` must pair off in order.
  const std::span<const MergeRegion> a = from.merge_regions();
  const std::span<const MergeRegion> b = to.merge_regions();
  std::vector<MergeRegion> dropped;
  std::size_t i = 0;
  std::size_t j = 0;
  for (;;) {
    while (i < a.size() && place(a[i]) == Place::kInside) dropped.push_back(a[i++]);
    while (j < b.size() && place(b[j]) == Place::kInside) ++j;
    if (i == a.size() || j == b.size()) break;
    const MergeRegion& x = a[i++];
    const MergeRegion& y = b[j++];
    if (place(x) == Place::kStraddles || place(y) == Place::kStraddles ||
        x.cmu != y.cmu || x.base != y.base || x.size != y.size ||
        x.kind != y.kind || x.value_mask != y.value_mask) {
      return std::nullopt;
    }
  }
  if (i != a.size() || j != b.size()) return std::nullopt;
  return dropped;
}

}  // namespace flymon::exec
