#include "core/cmu.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/hash.hpp"
#include "telemetry/trace_ring.hpp"

namespace flymon {

using dataplane::StatefulOp;

Cmu::Cmu(std::uint32_t register_buckets) : reg_(register_buckets), salu_(reg_) {
  // The reduced operation set (paper Fig 6 / Appendix A); the fourth SALU
  // action slot stays reserved for future attributes (paper §6).
  salu_.preload(StatefulOp::kCondAdd);
  salu_.preload(StatefulOp::kMax);
  salu_.preload(StatefulOp::kAndOr);
}

Cmu::Cmu(Cmu&& other) noexcept
    : reg_(std::move(other.reg_)),
      salu_(std::move(other.salu_)),
      entries_(std::move(other.entries_)),
      hull_begin_(other.hull_begin_),
      hull_end_(other.hull_end_),
      tel_(other.tel_) {
  salu_.rebind(reg_);
}

void Cmu::preload_op(StatefulOp op) { salu_.preload(op); }

void Cmu::bind_telemetry(telemetry::Registry& registry, unsigned group,
                         unsigned index) {
  tel_ = Telemetry{};
  tel_.registry = &registry;
  tel_.group = group;
  tel_.index = index;
  const telemetry::Labels labels = {{"group", std::to_string(group)},
                                    {"cmu", std::to_string(index)}};
  tel_.updates = &registry.counter("flymon_cmu_updates_total", labels);
  tel_.sampled_out = &registry.counter("flymon_cmu_sampled_out_total", labels);
  tel_.prep_aborts = &registry.counter("flymon_cmu_prep_aborts_total", labels);
}

telemetry::Counter* Cmu::op_counter(StatefulOp op) {
  const auto idx = static_cast<std::size_t>(op);
  telemetry::Counter* c = tel_.ops[idx];
  if (c == nullptr && tel_.registry != nullptr) {
    c = tel_.ops[idx] = &tel_.registry->counter(
        "flymon_salu_op_total", {{"group", std::to_string(tel_.group)},
                                 {"cmu", std::to_string(tel_.index)},
                                 {"op", dataplane::to_string(op)}});
  }
  return c;
}

double Cmu::register_occupancy() const noexcept {
  std::uint32_t nonzero = 0;
  for (std::uint32_t i = 0; i < reg_.size(); ++i) {
    if (reg_.read(i) != 0) ++nonzero;
  }
  return static_cast<double>(nonzero) / static_cast<double>(reg_.size());
}

bool Cmu::admits(const TaskFilter& filter, double sample_probability) const noexcept {
  if (sample_probability < 1.0) return true;
  return std::none_of(entries_.begin(), entries_.end(), [&](const CmuTaskEntry& e) {
    return e.sample_probability >= 1.0 && e.filter.intersects(filter);
  });
}

void Cmu::install(const CmuTaskEntry& entry) {
  if (!entry.key_sel.valid()) throw std::invalid_argument("Cmu::install: no key selected");
  if (entry.partition.size == 0 || entry.partition.end() > reg_.size())
    throw std::invalid_argument("Cmu::install: partition outside register");
  if (find(entry.task_id) != nullptr)
    throw std::invalid_argument("Cmu::install: duplicate task id");
  if (!admits(entry.filter, entry.sample_probability)) {
    throw std::invalid_argument(
        "Cmu::install: task filters intersect on one CMU (use sampling)");
  }
  entries_.push_back(entry);
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const CmuTaskEntry& a, const CmuTaskEntry& b) {
                     return a.priority < b.priority;
                   });
  extend_hull(entry.partition);
}

void Cmu::extend_hull(const MemoryPartition& p) noexcept {
  if (hull_begin_ == hull_end_) {
    hull_begin_ = p.base;
    hull_end_ = p.end();
    return;
  }
  hull_begin_ = std::min(hull_begin_, p.base);
  hull_end_ = std::max(hull_end_, p.end());
}

void Cmu::clear_register() {
  reg_.clear_range(hull_begin_, hull_end_);
  hull_begin_ = hull_end_ = 0;
  for (const CmuTaskEntry& e : entries_) extend_hull(e.partition);
}

void Cmu::restore(Staging s) {
  entries_ = std::move(s.entries);
  hull_begin_ = s.hull_begin;
  hull_end_ = s.hull_end;
  salu_ = std::move(s.salu);
}

void Cmu::clear_partition(const MemoryPartition& p, const Staging& before) {
  const std::uint32_t begin = std::max(p.base, before.hull_begin);
  const std::uint32_t end = std::min(p.end(), before.hull_end);
  if (begin < end) reg_.clear_range(begin, end);
}

bool Cmu::remove(std::uint32_t task_id) {
  const auto it = std::find_if(entries_.begin(), entries_.end(),
                               [&](const CmuTaskEntry& e) { return e.task_id == task_id; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

const CmuTaskEntry* Cmu::find(std::uint32_t task_id) const noexcept {
  for (const CmuTaskEntry& e : entries_) {
    if (e.task_id == task_id) return &e;
  }
  return nullptr;
}

std::uint32_t Cmu::resolve_param(const ParamSelect& sel, const Packet& pkt,
                                 std::span<const std::uint32_t> unit_keys,
                                 const PhvContext& ctx) const noexcept {
  switch (sel.source) {
    case ParamSelect::Source::kConst:
      return sel.const_value;
    case ParamSelect::Source::kMeta:
      return static_cast<std::uint32_t>(read_meta(pkt, sel.meta));
    case ParamSelect::Source::kCompressedKey:
      return sel.slice.apply(CompressionStage::select(unit_keys, sel.key_sel));
    case ParamSelect::Source::kChain:
      return ctx.get(sel.const_value);
  }
  return 0;
}

std::uint32_t Cmu::probe_address(const CmuTaskEntry& entry,
                                 std::span<const std::uint32_t> unit_keys) const noexcept {
  const std::uint32_t key = CompressionStage::select(unit_keys, entry.key_sel);
  return translate_address(entry.key_slice.apply(key), entry.key_slice.width,
                           entry.partition);
}

std::optional<std::uint32_t> Cmu::process(const Packet& pkt,
                                          std::span<const std::uint32_t> unit_keys,
                                          PhvContext& ctx) {
  const bool tel = telemetry::enabled() && tel_.updates != nullptr;
  for (const CmuTaskEntry& e : entries_) {
    if (!e.filter.matches(pkt.ft)) continue;
    if (e.sample_probability < 1.0) {
      // Deterministic per-packet coin (hash of headers + timestamp + task).
      const CandidateKey ck = serialize_candidate_key(pkt);
      const std::uint64_t h =
          hash64(std::span<const std::uint8_t>(ck.data(), ck.size()),
                 0xC01Full + e.task_id);
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      if (u >= e.sample_probability) {
        if (tel) tel_.sampled_out->inc();
        continue;  // next matching task may run
      }
    }

    const std::uint32_t addr = probe_address(e, unit_keys);
    std::uint32_t p1 = resolve_param(e.p1, pkt, unit_keys, ctx);
    std::uint32_t p2 = resolve_param(e.p2, pkt, unit_keys, ctx);
    const std::uint32_t p2_raw = p2;

    switch (e.prep) {
      case PrepFn::kNone:
        break;
      case PrepFn::kCouponOneHot: {
        // CRC hashes are linear over GF(2), so low-entropy attribute values
        // (sequential IPs, timestamps) can leave the high bits on a small
        // affine subspace and starve coupon indices.  A single VLIW
        // half-word fold before the TCAM window match raises the rank of
        // the projection at zero hardware cost.
        p1 ^= (p1 >> 16) | (p1 << 16);
        const double u = static_cast<double>(p1) * 0x1.0p-32;
        const double total = e.coupon.draw_probability * e.coupon.num_coupons;
        if (u >= total) {  // no coupon drawn: no update
          if (tel) tel_.prep_aborts->inc();
          if (ctx.trace != nullptr) {
            telemetry::CmuTraceStep step;
            step.group = tel_.group;
            step.cmu = tel_.index;
            step.task_id = e.task_id;
            step.selected_key = CompressionStage::select(unit_keys, e.key_sel);
            step.op = dataplane::to_string(e.op);
            step.aborted = true;
            ctx.trace->steps.push_back(step);
          }
          return std::nullopt;
        }
        const auto idx = std::min<unsigned>(
            static_cast<unsigned>(u / e.coupon.draw_probability),
            e.coupon.num_coupons - 1);
        p1 = 1u << idx;
        p2 = 1;  // select the OR half of AND-OR
        break;
      }
      case PrepFn::kBitSelectOneHot:
        p1 = 1u << (p1 & 31u);
        p2 = 1;
        break;
      case PrepFn::kSubtractGated: {
        const std::uint32_t gate = ctx.get(e.chain_gate);
        p1 = gate != 0 ? (p1 > p2 ? p1 - p2 : 0u) : 0u;
        p2 = 0;
        break;
      }
      case PrepFn::kKeepOnChainZero:
        if (ctx.get(e.chain_gate) != 0) p1 = 0;
        break;
      case PrepFn::kBitSelectOneHotGated:
        p1 = ctx.get(e.chain_gate) == 0 ? (1u << (p1 & 31u)) : 0u;
        break;
    }

    const std::uint32_t old = reg_.read(addr);
    const std::uint32_t result = salu_.execute(e.op, addr, p1, p2);
    std::uint32_t out = result;
    if (e.output_old_value) {
      // SALUs can export the pre-update value; for one-hot updates we export
      // the single probed bit (0/1).
      out = (e.prep == PrepFn::kBitSelectOneHot || e.prep == PrepFn::kCouponOneHot)
                ? ((old & p1) != 0 ? 1u : 0u)
                : old;
    }
    if (e.chain_out != 0) {
      ctx.chain[e.chain_out] = (e.chain_fallback && result == 0) ? p2_raw : out;
    }
    if (tel) {
      tel_.updates->inc();
      if (telemetry::Counter* c = op_counter(e.op)) c->inc();
    }
    if (ctx.trace != nullptr) {
      telemetry::CmuTraceStep step;
      step.group = tel_.group;
      step.cmu = tel_.index;
      step.task_id = e.task_id;
      step.selected_key = CompressionStage::select(unit_keys, e.key_sel);
      step.sliced_key = e.key_slice.apply(step.selected_key);
      step.address = addr;
      step.op = dataplane::to_string(e.op);
      step.p1 = p1;
      step.p2 = p2;
      step.result = out;
      ctx.trace->steps.push_back(step);
    }
    return out;
  }
  return std::nullopt;
}

}  // namespace flymon
