#include "control/controller.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/bits.hpp"
#include "exec/exec_plan.hpp"
#include "sketch/beaucoup.hpp"
#include "trace/span.hpp"
#include "trace/stage_profiler.hpp"
#include "sketch/hyperloglog.hpp"
#include "sketch/mrac.hpp"
#include "sketch/odd_sketch.hpp"

namespace flymon::control {
namespace {

using dataplane::StatefulOp;

/// Key-slice offsets used by the rows of one group (paper §3.2: e.g. bits
/// 0-15 / 8-23 / 16-31 of the 32-bit compressed key).
constexpr std::uint8_t kRowSliceOffset[3] = {0, 8, 16};
constexpr std::uint8_t kKeySliceWidth = 16;

/// TowerSketch row counter widths (left-aligned in the 32-bit bucket).
constexpr unsigned kTowerWidths[3] = {32, 16, 8};

/// Counter Braids layer-1 saturation value.
constexpr std::uint32_t kBraidsLayer1Cap = 1024;

Algorithm resolve_algorithm(const TaskSpec& spec) {
  if (spec.algorithm != Algorithm::kAuto) return spec.algorithm;
  switch (spec.attribute) {
    case AttributeKind::kFrequency: return Algorithm::kCms;
    case AttributeKind::kDistinct:
      return spec.key.empty() ? Algorithm::kHyperLogLog : Algorithm::kBeauCoup;
    case AttributeKind::kExistence: return Algorithm::kBloomFilter;
    case AttributeKind::kMax: return Algorithm::kSuMaxMax;
    case AttributeKind::kSimilarity: return Algorithm::kOddSketch;
  }
  return Algorithm::kCms;
}

/// The flow-key spec actually hashed for addressing: single-key tasks
/// (cardinality: key = N/A) locate buckets by the parameter's key.
FlowKeySpec effective_key(const TaskSpec& spec) {
  if (!spec.key.empty()) return spec.key;
  return spec.param.key_spec;
}

/// `part` = `whole` minus some fields?  Returns the complement when `part`
/// covers a strict, field-aligned subset of `whole`.
std::optional<FlowKeySpec> spec_complement(const FlowKeySpec& whole,
                                           const FlowKeySpec& part) {
  auto field_ok = [](std::uint8_t w, std::uint8_t p) { return p == 0 || p == w; };
  if (!field_ok(whole.src_ip_bits, part.src_ip_bits) ||
      !field_ok(whole.dst_ip_bits, part.dst_ip_bits) ||
      !field_ok(whole.src_port_bits, part.src_port_bits) ||
      !field_ok(whole.dst_port_bits, part.dst_port_bits) ||
      !field_ok(whole.proto_bits, part.proto_bits) ||
      !field_ok(whole.ts_bits, part.ts_bits)) {
    return std::nullopt;
  }
  FlowKeySpec c;
  c.src_ip_bits = part.src_ip_bits ? 0 : whole.src_ip_bits;
  c.dst_ip_bits = part.dst_ip_bits ? 0 : whole.dst_ip_bits;
  c.src_port_bits = part.src_port_bits ? 0 : whole.src_port_bits;
  c.dst_port_bits = part.dst_port_bits ? 0 : whole.dst_port_bits;
  c.proto_bits = part.proto_bits ? 0 : whole.proto_bits;
  c.ts_bits = part.ts_bits ? 0 : whole.ts_bits;
  if (c.empty() || c == whole) return std::nullopt;
  return c;
}

ParamSelect lower_param(const ParamSpec& p, const CompressedKeySelector& param_sel) {
  switch (p.source) {
    case ParamSource::kConst: return ParamSelect::constant(p.const_value);
    case ParamSource::kMeta: return ParamSelect::metadata(p.meta);
    case ParamSource::kCompressedKey:
      return ParamSelect::compressed(param_sel, KeySlice{0, 32});
  }
  return ParamSelect::constant(1);
}

/// Largest power-of-two probability <= p (so each coupon window expands to
/// exactly one ternary entry).
double quantize_probability_pow2(double p) {
  if (p >= 1.0) return 1.0;
  double q = 1.0;
  while (q > p) q /= 2;
  return q;
}

/// Chained algorithms spread each row over CMUs of strictly later groups.
bool is_chained(Algorithm a) {
  return a == Algorithm::kSuMaxSum || a == Algorithm::kMaxInterarrival ||
         a == Algorithm::kCounterBraids || a == Algorithm::kOddSketch;
}

/// Algorithms whose estimate reads one register array (one row).
bool single_array(Algorithm a) {
  return a == Algorithm::kMrac || a == Algorithm::kHyperLogLog ||
         a == Algorithm::kLinearCounting;
}

/// Whether lower_entry reads the parameter selector.  Tower and unpacked
/// Bloom/LinearCounting add constants; Odd Sketch and MaxInterarrival read
/// only the key.
bool reads_param(Algorithm a, const TaskSpec& spec) {
  switch (a) {
    case Algorithm::kTowerSketch:
    case Algorithm::kOddSketch:
    case Algorithm::kMaxInterarrival:
      return false;
    case Algorithm::kBloomFilter:
    case Algorithm::kLinearCounting:
      return spec.bloom_bit_packed;
    default:
      return true;
  }
}

std::uint8_t rho_of_slice(std::uint32_t v, unsigned width) {
  if (v == 0) return 0;
  const std::uint32_t aligned = v << (32 - width);
  return static_cast<std::uint8_t>(std::countl_one(aligned) + 1);
}

}  // namespace

Controller::Controller(FlyMonDataPlane& dp, TranslationStrategy strategy, AllocMode mode)
    : dp_(&dp), strategy_(strategy), mode_(mode) {
  bind_telemetry(telemetry::Registry::global());
}

void Controller::bind_telemetry(telemetry::Registry& registry) {
  registry_ = &registry;
  deploys_counter_ = &registry.counter("flymon_task_deploys_total");
  deploy_failures_counter_ = &registry.counter("flymon_task_deploy_failures_total");
  removals_counter_ = &registry.counter("flymon_task_removals_total");
  resizes_counter_ = &registry.counter("flymon_task_resizes_total");
  // 0.25us .. ~4s, the spacing of the pool's fence/merge histograms.
  const auto bounds = telemetry::Histogram::exponential_bounds(0.25, 4.0, 17);
  constexpr std::array<const char*, kPhases> kNames = {"checkpoint", "compile",
                                                       "validate", "zero", "publish"};
  for (unsigned p = 0; p < kPhases; ++p) {
    phase_us_[p] =
        &registry.histogram("flymon_reconfig_phase_us", {{"phase", kNames[p]}}, bounds);
  }
}

BuddyAllocator& Controller::allocator(unsigned group, unsigned cmu) {
  const auto key = std::make_pair(group, cmu);
  auto it = allocators_.find(key);
  if (it == allocators_.end()) {
    const std::uint32_t total = dp_->group(group).config().register_buckets;
    it = allocators_.emplace(key, BuddyAllocator(total, std::max(1u, total / 32))).first;
  }
  return it->second;
}

const BuddyAllocator* Controller::find_allocator(unsigned group,
                                                 unsigned cmu) const noexcept {
  const auto it = allocators_.find(std::make_pair(group, cmu));
  return it == allocators_.end() ? nullptr : &it->second;
}

std::optional<CompressedKeySelector> Controller::ensure_selector(
    unsigned group, const FlowKeySpec& spec, unsigned& mask_rules) {
  if (spec.empty()) return std::nullopt;
  auto& comp = dp_->group(group).compression();
  if (auto sel = comp.find_selector(spec)) return sel;
  // Greedy reuse (paper §3.4): build on a unit that already covers part of
  // the key, configuring one free unit with the complement and XOR-ing.
  for (unsigned u = 0; u < comp.num_units(); ++u) {
    if (!comp.spec_of(u)) continue;
    if (auto complement = spec_complement(spec, *comp.spec_of(u))) {
      if (auto free_u = comp.free_unit()) {
        comp.configure(*free_u, *complement);
        ++mask_rules;
        return CompressedKeySelector{static_cast<std::int8_t>(u),
                                     static_cast<std::int8_t>(*free_u)};
      }
    }
  }
  if (auto free_u = comp.free_unit()) {
    comp.configure(*free_u, spec);
    ++mask_rules;
    return CompressedKeySelector{static_cast<std::int8_t>(*free_u), -1};
  }
  return std::nullopt;
}

void Controller::ref_units(unsigned group, const CmuTaskEntry& e, bool add) {
  // A unit whose count drops to zero stays configured until
  // gc_unreferenced_units().
  const bool param = e.p1.source == ParamSelect::Source::kCompressedKey;
  for (const std::int8_t unit : {e.key_sel.unit_a, e.key_sel.unit_b,
                                 param ? e.p1.key_sel.unit_a : std::int8_t{-1},
                                 param ? e.p1.key_sel.unit_b : std::int8_t{-1}}) {
    if (unit < 0) continue;
    const auto key = std::make_pair(group, static_cast<unsigned>(unit));
    if (add) {
      ++unit_refs_[key];
    } else if (const auto it = unit_refs_.find(key);
               it != unit_refs_.end() && --it->second == 0) {
      unit_refs_.erase(it);
    }
  }
}

std::vector<exec::EntryOwnership> Controller::entry_ownership() const {
  std::vector<exec::EntryOwnership> owners;
  for (const auto& [id, t] : tasks_) {
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
      const RowPlacement& row = t.rows[r];
      for (std::size_t u = 0; u < row.units.size(); ++u) {
        const UnitPlacement& up = row.units[u];
        exec::EntryOwnership o;
        o.group = up.group;
        o.cmu = up.cmu;
        o.phys_id = up.phys_id;
        o.task_id = id;
        o.row = r;
        o.unit = u;
        o.name = t.spec.name;
        owners.push_back(std::move(o));
      }
    }
  }
  return owners;
}

DeployResult Controller::add_task(const TaskSpec& spec) {
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.add_task", reconfig.tag());
  return reconfigure({spec}, 0).front();
}

bool Controller::remove_task(std::uint32_t id) {
  if (tasks_.find(id) == tasks_.end()) return false;
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.remove_task", id);
  return reconfigure({}, id).empty();  // a rejection returns one failed result
}

DeployResult Controller::resize_task(std::uint32_t id, std::uint32_t new_buckets) {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) return {false, "unknown task", 0, {}};
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.resize_task", id);
  TaskSpec spec = it->second.spec;
  spec.memory_buckets = new_buckets;
  return reconfigure({spec}, id).front();
}

std::pair<DeployResult, DeployResult> Controller::split_task(std::uint32_t id) {
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) return {{false, "unknown task", 0, {}}, {}};
  trace::ReconfigScope reconfig;
  trace::Span span("ctl.split_task", id);
  const TaskSpec& spec = it->second.spec;
  const TaskFilter& f = spec.filter;

  TaskSpec a = spec, b = spec;
  if (f.src_len < 32) {
    a.filter.src_len = static_cast<std::uint8_t>(f.src_len + 1);
    b.filter.src_len = a.filter.src_len;
    b.filter.src_ip = f.src_ip | (1u << (31 - f.src_len));
    a.name += "/lo";
    b.name += "/hi";
  } else if (f.dst_len < 32) {
    a.filter.dst_len = static_cast<std::uint8_t>(f.dst_len + 1);
    b.filter.dst_len = a.filter.dst_len;
    b.filter.dst_ip = f.dst_ip | (1u << (31 - f.dst_len));
    a.name += "/lo";
    b.name += "/hi";
  } else {
    return {{false, "filter is a host route; nothing to split", 0, {}}, {}};
  }

  const std::vector<DeployResult> r = reconfigure({a, b}, id);
  if (!r.front().ok) return {r.front(), {}};
  return {r[0], r[1]};
}

ApplyResult Controller::apply(const PlanOp& op) {
  DeployResult r;
  switch (op.kind) {
    case PlanOp::Kind::kAdd:
      r = add_task(op.spec);
      return {r.ok, r.ok ? "deployed as task " + std::to_string(r.task_id) : r.error};
    case PlanOp::Kind::kRemove:
      if (tasks_.count(op.task_id) == 0) {
        return {false, "unknown task " + std::to_string(op.task_id)};
      }
      if (remove_task(op.task_id)) return {true, "removed"};
      return {false, "paranoid verify rejected removal:\n" + last_verify_errors_};
    case PlanOp::Kind::kResize:
      r = resize_task(op.task_id, op.new_buckets);
      return {r.ok, r.ok ? "resized to " + std::to_string(op.new_buckets) + " buckets"
                         : r.error};
    case PlanOp::Kind::kSplit: {
      const auto [lo, hi] = split_task(op.task_id);
      return {lo.ok, lo.ok ? "split into tasks " + std::to_string(lo.task_id) + " + " +
                                 std::to_string(hi.task_id)
                           : lo.error};
    }
  }
  return {false, "unknown op"};
}

Controller::Checkpoint Controller::checkpoint() const {
  Checkpoint cp{tasks_, allocators_, unit_refs_, next_id_, next_phys_, next_chain_,
                last_verify_errors_, {}, {}};
  for (unsigned g = 0; g < dp_->num_groups(); ++g) {
    const CmuGroup& grp = dp_->group(g);
    auto& units = cp.units.emplace_back();
    for (unsigned u = 0; u < grp.compression().num_units(); ++u) {
      units.push_back(grp.compression().spec_of(u));
    }
    auto& cmus = cp.cmus.emplace_back();
    for (unsigned c = 0; c < grp.num_cmus(); ++c) cmus.push_back(grp.cmu(c).staging());
  }
  return cp;
}

void Controller::restore(Checkpoint cp) {
  tasks_ = std::move(cp.tasks);
  allocators_ = std::move(cp.allocators);
  unit_refs_ = std::move(cp.unit_refs);
  next_id_ = cp.next_id;
  next_phys_ = cp.next_phys;
  next_chain_ = cp.next_chain;
  last_verify_errors_ = std::move(cp.last_verify_errors);
  for (unsigned g = 0; g < dp_->num_groups(); ++g) {
    CmuGroup& grp = dp_->group(g);
    CompressionStage& comp = grp.compression();
    for (unsigned u = 0; u < comp.num_units(); ++u) {
      const std::optional<FlowKeySpec>& spec = cp.units[g][u];
      if (spec == comp.spec_of(u)) continue;
      if (spec) {
        comp.configure(u, *spec);
      } else {
        comp.clear_unit(u);
      }
    }
    for (unsigned c = 0; c < grp.num_cmus(); ++c) grp.cmu(c).restore(std::move(cp.cmus[g][c]));
  }
}

std::vector<DeployResult> Controller::reconfigure(const std::vector<TaskSpec>& stage,
                                                  std::uint32_t retire) {
  const std::uint32_t first_id = next_id_;
  // Each phase a commit reaches is one flymon_reconfig_phase_us sample,
  // timed on the span clock; a dry run records none.
  const auto observe = [&](Phase p, std::uint64_t since) {
    if (!dry_run_) phase_us_[p]->observe(static_cast<double>(trace::now_ns() - since) / 1e3);
  };
  std::uint64_t since = trace::now_ns();
  trace::Span saving("ctl.checkpoint");
  Checkpoint cp = checkpoint();
  saving.close();
  observe(kCheckpoint, since);
  // Every exit that does not publish restores the checkpoint: the data
  // plane ends byte-identical and the published plan keeps serving.
  const auto reject = [&](std::string error) {
    restore(std::move(cp));
    if (!dry_run_) deploy_failures_counter_->inc();
    DeployResult r;
    r.error = std::move(error);
    return std::vector<DeployResult>{r};
  };

  std::vector<DeployResult> results;
  for (const TaskSpec& spec : stage) {
    DeployResult r;
    try {
      r = deploy(spec, next_id_);
    } catch (const std::exception& ex) {
      // No task-mutation path may leak an exception mid-operation.
      return reject(std::string("deployment aborted: ") + ex.what());
    }
    if (!r.ok) return reject(std::move(r.error));
    ++next_id_;
    results.push_back(std::move(r));
  }
  decltype(tasks_)::node_type retired;
  if (retire != 0) {
    retired = tasks_.extract(retire);
    detach(retired.mapped());
  }
  // The candidate plan is the final deployment, exactly as it will be
  // published: no unreferenced hash unit, and a one-for-one replacement
  // (resize) already owned by the retired public id.
  gc_unreferenced_units();
  const bool rekey = retired && stage.size() == 1;
  std::vector<exec::EntryOwnership> owners = entry_ownership();
  for (exec::EntryOwnership& o : owners) {
    if (rekey && o.task_id == first_id) o.task_id = retire;
  }
  // A dry run compiles outside the generation sequence.
  since = trace::now_ns();
  std::shared_ptr<const exec::ExecPlan> candidate =
      dry_run_ ? exec::PlanCompiler::compile(*dp_, owners, 0) : dp_->compile_plan(owners);
  observe(kCompile, since);
  if (paranoid_) {
    // One gate on the final state and its plan covers the whole
    // reconfiguration.  A pure removal stages nothing to undo, so its
    // deployment findings only report; a wrong plan is never published.
    since = trace::now_ns();
    trace::Span gate("ctl.verify_gate");
    const GateResult verdict = run_verify_gate(*candidate);
    gate.close();
    observe(kValidate, since);
    last_verify_errors_ = verdict.errors;
    if (!verdict.errors.empty() && (!stage.empty() || verdict.plan_errors)) {
      cp.last_verify_errors = verdict.errors;  // the verdict outlives the rollback
      return reject("paranoid verify rejected deployment:\n" + verdict.errors);
    }
  }

  // The retired and staged partitions, zeroed under the publish fence
  // (past every exit that does not publish), collected before a resize
  // renames its staged task.
  std::vector<UnitPlacement> zeroed;
  if (!dry_run_) {
    const auto collect = [&](const DeployedTask& t) {
      for (const RowPlacement& row : t.rows) {
        zeroed.insert(zeroed.end(), row.units.begin(), row.units.end());
      }
    };
    if (retired) collect(retired.mapped());
    for (std::uint32_t id = first_id; id < next_id_; ++id) collect(tasks_.at(id));
  }
  // The commit's bookkeeping, which a dry run shares so that later ops of
  // its batch see the same memory and ids.
  if (retired) {
    trace::Span reclaim("ctl.reclaim", retire);
    release(retired.mapped());
    reclaim.close();
    if (rekey) {
      auto node = tasks_.extract(first_id);
      node.key() = retire;
      node.mapped().id = retire;
      node.mapped().cumulative_delay_ms += retired.mapped().cumulative_delay_ms;
      tasks_.insert(std::move(node));
      results.front().task_id = retire;
    }
  }
  if (dry_run_) return results;
  if (retired) removals_counter_->inc();
  if (rekey) resizes_counter_->inc();
  deploys_counter_->inc(stage.size());
  std::vector<exec::CellRange> cells;
  cells.reserve(zeroed.size());
  for (const UnitPlacement& up : zeroed) {
    std::uint32_t flat = up.cmu;
    for (unsigned g = 0; g < up.group; ++g) flat += dp_->group(g).num_cmus();
    cells.push_back({flat, up.partition.base, up.partition.size});
  }
  std::uint64_t zero_ns = 0;
  since = trace::now_ns();
  dp_->publish_plan(std::move(candidate), cells, [&] {
    const std::uint64_t t0 = trace::now_ns();
    trace::Span zeroing("ctl.zero");
    for (const UnitPlacement& up : zeroed) {
      dp_->group(up.group).cmu(up.cmu).clear_partition(up.partition,
                                                       cp.cmus[up.group][up.cmu]);
    }
    zeroing.close();
    observe(kZero, t0);
    zero_ns = trace::now_ns() - t0;
  });
  observe(kPublish, since + zero_ns);  // the fence and the store
  return results;
}

void Controller::detach(const DeployedTask& t) {
  for (const RowPlacement& row : t.rows) {
    for (const UnitPlacement& up : row.units) {
      Cmu& cmu = dp_->group(up.group).cmu(up.cmu);
      const CmuTaskEntry* e = cmu.find(up.phys_id);
      if (e == nullptr) continue;
      ref_units(up.group, *e, false);
      cmu.remove(up.phys_id);
    }
  }
}

void Controller::release(DeployedTask& t) {
  for (const RowPlacement& row : t.rows) {
    for (const UnitPlacement& up : row.units) {
      if (up.partition.size != 0) allocator(up.group, up.cmu).release(up.partition);
    }
  }
  t.rows.clear();
  gc_unreferenced_units();
}

void Controller::gc_unreferenced_units() {
  // Clear hash units no entry references: leftovers of placement probes
  // (e.g. a group that offered a selector but had no free CMU) and units
  // whose last reader was detached or released.
  for (unsigned g = 0; g < dp_->num_groups(); ++g) {
    auto& comp = dp_->group(g).compression();
    for (unsigned u = 0; u < comp.num_units(); ++u) {
      if (comp.spec_of(u) && unit_refs_.find({g, u}) == unit_refs_.end()) {
        comp.clear_unit(u);
      }
    }
  }
}

bool Controller::lower_entry(const DeployedTask& t, unsigned idx, const Selectors& sel,
                             ChainIds ch, Cmu& cmu, CmuTaskEntry& e) {
  switch (t.algorithm) {
    case Algorithm::kCms:
    case Algorithm::kMrac:
      e.op = StatefulOp::kCondAdd;
      e.p1 = lower_param(t.spec.param, sel.param);
      e.p2 = ParamSelect::constant(0xFFFF'FFFFu);
      return true;
    case Algorithm::kSuMaxSum:  // conservative update along the chain
      e.op = StatefulOp::kCondAdd;
      e.p1 = lower_param(t.spec.param, sel.param);
      e.p2 = idx == 0 ? ParamSelect::constant(0xFFFF'FFFFu) : ParamSelect::chain(ch.a);
      e.chain_out = ch.a;
      e.chain_fallback = idx != 0;  // keep running min on no-update
      return true;
    case Algorithm::kCounterBraids:
      e.op = StatefulOp::kCondAdd;
      e.p1 = lower_param(t.spec.param, sel.param);
      if (idx == 0) {
        e.p2 = ParamSelect::constant(kBraidsLayer1Cap);
        e.chain_out = ch.a;
      } else {
        e.p2 = ParamSelect::constant(0xFFFF'FFFFu);
        e.prep = PrepFn::kKeepOnChainZero;
        e.chain_gate = ch.a;
      }
      return true;
    case Algorithm::kSuMaxMax:
      e.op = StatefulOp::kMax;
      e.p1 = lower_param(t.spec.param, sel.param);
      return true;
    case Algorithm::kTowerSketch:
      e.op = StatefulOp::kCondAdd;
      e.p1 = ParamSelect::constant(1u << (32 - kTowerWidths[idx]));
      e.p2 = ParamSelect::constant(low_mask32(kTowerWidths[idx]) << (32 - kTowerWidths[idx]));
      return true;
    case Algorithm::kBloomFilter:
    case Algorithm::kLinearCounting:
      e.op = StatefulOp::kAndOr;
      if (t.spec.bloom_bit_packed) {
        e.prep = PrepFn::kBitSelectOneHot;
        e.p1 = ParamSelect::compressed(
            sel.param, KeySlice{static_cast<std::uint8_t>(16 + 5 * (idx % 3)), 5});
      } else {
        e.p1 = ParamSelect::constant(1);
        e.p2 = ParamSelect::constant(1);
      }
      return true;
    case Algorithm::kHyperLogLog:
      e.op = StatefulOp::kMax;
      e.p1 = ParamSelect::compressed(sel.param, KeySlice{16, 16});
      return true;
    case Algorithm::kBeauCoup:
      e.op = StatefulOp::kAndOr;
      e.prep = PrepFn::kCouponOneHot;
      e.coupon = CouponPrep{t.coupon_count, t.coupon_probability};
      e.p1 = ParamSelect::compressed(sel.param, KeySlice{0, 32});
      return true;
    case Algorithm::kOddSketch:
      if (idx == 0) {  // dedup gate: has this flow toggled already?
        e.op = StatefulOp::kAndOr;
        e.prep = PrepFn::kBitSelectOneHot;
        e.p1 = ParamSelect::compressed(sel.key, KeySlice{17, 5});
        e.output_old_value = true;
        e.chain_out = ch.a;
        return true;
      }
      // The parity toggle needs the SALU's fourth action slot for XOR.
      if (!cmu.salu().has_op(StatefulOp::kXor) &&
          cmu.salu().loaded_ops() >= dataplane::TofinoModel::kMaxRegisterActions) {
        return false;
      }
      cmu.preload_op(StatefulOp::kXor);
      e.op = StatefulOp::kXor;
      e.prep = PrepFn::kBitSelectOneHotGated;
      e.chain_gate = ch.a;
      e.p1 = ParamSelect::compressed(sel.key, KeySlice{22, 5});
      return true;
    case Algorithm::kMaxInterarrival:
      if (idx == 0) {  // Bloom filter: have we seen this flow?
        e.op = StatefulOp::kAndOr;
        e.prep = PrepFn::kBitSelectOneHot;
        e.p1 = ParamSelect::compressed(sel.key, KeySlice{17, 5});
        e.output_old_value = true;
        e.chain_out = ch.a;  // gate: 1 = seen before
      } else if (idx == 1) {  // last-arrival timestamp
        e.op = StatefulOp::kMax;
        e.p1 = ParamSelect::metadata(MetaField::kTimestamp);
        e.output_old_value = true;
        e.chain_out = ch.b;  // previous timestamp
      } else {  // max inter-arrival
        e.op = StatefulOp::kMax;
        e.prep = PrepFn::kSubtractGated;
        e.chain_gate = ch.a;
        e.p1 = ParamSelect::metadata(MetaField::kTimestamp);
        e.p2 = ParamSelect::chain(ch.b);
      }
      return true;
    case Algorithm::kAuto:  // resolved before placement
      break;
  }
  return false;
}

std::optional<Controller::Selectors> Controller::selectors(unsigned g,
                                                          const DeployedTask& t,
                                                          unsigned& mask_rules) {
  const TaskSpec& spec = t.spec;
  const FlowKeySpec key_spec = effective_key(spec);
  const auto key = ensure_selector(g, key_spec, mask_rules);
  if (!key) return std::nullopt;
  if (spec.param.source != ParamSource::kCompressedKey || spec.param.key_spec == key_spec ||
      !reads_param(t.algorithm, spec)) {
    return Selectors{*key, *key};  // the parameter, if read, is the key itself
  }
  const auto param = ensure_selector(g, spec.param.key_spec, mask_rules);
  if (!param) return std::nullopt;
  return Selectors{*key, *param};
}

std::optional<UnitPlacement> Controller::place_unit(const DeployedTask& t, unsigned g,
                                                    unsigned c, unsigned idx,
                                                    const Selectors& sel, ChainIds ch) {
  Cmu& cmu = dp_->group(g).cmu(c);
  if (!cmu.admits(t.spec.filter, t.spec.sample_probability)) return std::nullopt;
  const auto part = allocator(g, c).allocate(t.buckets);
  if (!part) return std::nullopt;
  CmuTaskEntry e;
  e.task_id = next_phys_;
  e.filter = t.spec.filter;
  e.priority = t.id;
  e.sample_probability = t.spec.sample_probability;
  e.key_sel = sel.key;
  // Rows slice different sub-parts of the 32-bit compressed key; widen
  // the slice when the partition needs more than 16 address bits.
  const std::uint8_t offset = kRowSliceOffset[idx % 3];
  const unsigned size_log = part->size > 1 ? log2_floor(part->size) : 1;
  e.key_slice = KeySlice{offset, static_cast<std::uint8_t>(std::min<unsigned>(
                                     32u - offset, std::max<unsigned>(kKeySliceWidth, size_log)))};
  e.partition = *part;
  if (!lower_entry(t, idx, sel, ch, cmu, e)) {
    allocator(g, c).release(*part);
    return std::nullopt;
  }
  cmu.install(e);
  ref_units(g, e, true);
  return UnitPlacement{g, c, next_phys_++, *part};
}

DeployResult Controller::deploy(const TaskSpec& spec, std::uint32_t public_id) {
  trace::Span span("ctl.deploy", public_id);
  DeployResult result;
  if (effective_key(spec).empty()) {
    result.error = "task has neither a key nor a key-valued parameter";
    return result;
  }
  const Algorithm algo = resolve_algorithm(spec);
  const unsigned rows = std::min(std::max(1u, spec.rows), 3u);
  DeployedTask t;
  t.id = public_id;
  t.spec = spec;
  t.algorithm = algo;
  t.buckets = quantize_buckets(spec.memory_buckets, mode_);

  // BeauCoup coupon configuration from the report threshold.
  if (algo == Algorithm::kBeauCoup) {
    const double threshold = spec.report_threshold > 0
                                 ? static_cast<double>(spec.report_threshold)
                                 : 512.0;
    auto cfg = sketch::CouponConfig::for_threshold(threshold, 32, 32);
    t.coupon_count = cfg.num_coupons;
    t.coupon_probability = quantize_probability_pow2(cfg.draw_probability);
    // Re-derive the collection threshold under the quantized probability.
    sketch::CouponConfig q = cfg;
    q.draw_probability = t.coupon_probability;
    unsigned best_ct = 1;
    double best_err = std::numeric_limits<double>::max();
    for (unsigned ct = 1; ct <= q.num_coupons; ++ct) {
      const double err = std::abs(q.expected_items_to_collect(ct) - threshold);
      if (err < best_err) {
        best_err = err;
        best_ct = ct;
      }
    }
    t.coupon_threshold = best_ct;
  }

  const unsigned groups = dp_->num_groups();
  unsigned masks = 0;
  bool placed = false;
  if (!is_chained(algo)) {
    // All rows in the first group that has a CMU for each, one per row.
    const unsigned want = single_array(algo) ? 1 : rows;
    for (unsigned g = 0; g < groups && !placed; ++g) {
      const std::uint32_t phys = next_phys_;
      unsigned mask_rules = 0;
      if (const auto sel = selectors(g, t, mask_rules)) {
        for (unsigned c = 0; c < dp_->group(g).num_cmus() && t.rows.size() < want; ++c) {
          const auto up = place_unit(t, g, c, static_cast<unsigned>(t.rows.size()), *sel, {});
          if (up) t.rows.push_back(RowPlacement{{*up}});
        }
      }
      placed = t.rows.size() == want;
      if (placed) {
        masks = mask_rules;
      } else {
        undo_deployment(t);  // this group's rows and hash units
        next_phys_ = phys;
      }
    }
  } else {
    // Chained algorithms: each row is one chain whose units sit in strictly
    // later groups, in pipeline order.  SuMaxSum: `rows` units in one
    // chain.  CounterBraids, OddSketch: 2 units.  MaxInterarrival: `rows`
    // chains of 3 units.
    const unsigned units = algo == Algorithm::kSuMaxSum ? rows
                           : algo == Algorithm::kMaxInterarrival ? 3
                                                                 : 2;
    const unsigned chains = algo == Algorithm::kMaxInterarrival ? rows : 1;
    unsigned next_group = 0;
    placed = true;
    for (unsigned chain = 0; chain < chains && placed; ++chain) {
      const ChainIds ch{next_chain_++, next_chain_++};
      t.rows.emplace_back();
      for (unsigned u = 0; u < units && placed; ++u) {
        std::optional<UnitPlacement> up;
        for (unsigned g = next_group; g < groups && !up; ++g) {
          unsigned mask_rules = 0;
          const auto sel = selectors(g, t, mask_rules);
          for (unsigned c = 0; sel && c < dp_->group(g).num_cmus() && !up; ++c) {
            up = place_unit(t, g, c, u, *sel, ch);
          }
          if (up) masks += mask_rules;
        }
        placed = up.has_value();
        if (placed) {
          t.rows.back().units.push_back(*up);
          next_group = up->group + 1;
        }
      }
    }
    if (!placed) undo_deployment(t);
  }

  gc_unreferenced_units();
  if (!placed) {
    result.error = "insufficient resources (keys / CMUs / memory)";
    return result;
  }
  // Per-unit rules: init (key+param select) + param preparation + operation
  // select + address translation (one TCAM entry per partition-sized
  // window under kTcam).
  for (const RowPlacement& row : t.rows) {
    for (const UnitPlacement& up : row.units) {
      const std::uint32_t total = dp_->group(up.group).config().register_buckets;
      const bool tcam = strategy_ == TranslationStrategy::kTcam && up.partition.size != 0;
      t.report.table_rules += 3u + (tcam ? total / up.partition.size : 1u);
      ++t.report.cmus_used;
    }
  }
  if (algo == Algorithm::kBeauCoup) {
    t.report.table_rules += t.coupon_count + 1;  // one-hot window entries
  }
  t.report.hash_mask_rules = masks;
  t.report.groups_used = is_chained(algo) ? t.report.cmus_used : 1;  // one per chained unit
  t.cumulative_delay_ms = t.report.delay_ms();
  result.ok = true;
  result.task_id = public_id;
  result.report = t.report;
  tasks_[public_id] = std::move(t);
  return result;
}

const DeployedTask* Controller::task(std::uint32_t id) const noexcept {
  const auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

std::vector<std::uint32_t> Controller::task_ids() const {
  std::vector<std::uint32_t> out;
  out.reserve(tasks_.size());
  for (const auto& [id, t] : tasks_) out.push_back(id);
  return out;
}

std::uint32_t Controller::free_buckets(unsigned group, unsigned cmu) const {
  const auto it = allocators_.find({group, cmu});
  return it == allocators_.end() ? dp_->group(group).config().register_buckets
                                 : it->second.free_buckets();
}

// ---------- readout ----------

const DeployedTask& Controller::require(std::uint32_t id) const {
  // Every by-id access can precede a register readout: fold outstanding
  // shard deltas first so queries always see exactly what a sequential
  // run would have produced.  One acquire load when no pool is
  // enabled or no batch has run since the last fold: no lock.
  dp_->merge_shards();
  const auto it = tasks_.find(id);
  if (it == tasks_.end()) throw std::out_of_range("Controller: unknown task id");
  return it->second;
}

namespace {

struct ProbeView {
  const Cmu* cmu;
  const CmuTaskEntry* entry;
  unsigned group;
  std::uint32_t addr;
  std::uint32_t value;
};

/// Reads the cells one probe packet maps to.  A hash lane is computed the
/// first time a read of its group selects it, into a fixed-size buffer per
/// group (the rows of a task share them, also a chained task whose rows
/// alternate groups), so a query allocates nothing and hashes each lane it
/// reads once.
class Prober {
 public:
  Prober(const FlyMonDataPlane& dp, const Packet& probe)
      : dp_(dp), probe_(probe), key_(serialize_candidate_key(probe)) {}

  ProbeView unit(const UnitPlacement& up) {
    const Cmu& cmu = dp_.group(up.group).cmu(up.cmu);
    const CmuTaskEntry* e = cmu.find(up.phys_id);
    if (e == nullptr) throw std::logic_error("Controller: entry vanished");
    const std::uint32_t addr = cmu.probe_address(*e, lanes(up.group, e->key_sel));
    return ProbeView{&cmu, e, up.group, addr, cmu.reg().read(addr)};
  }

  std::uint32_t value(const UnitPlacement& up) { return unit(up).value; }

  /// The probe's value of `v`'s entry parameter `sel`.
  std::uint32_t param(const ProbeView& v, const ParamSelect& sel) {
    PhvContext ctx;
    return v.cmu->resolve_param(sel, probe_, lanes(v.group, sel.key_sel), ctx);
  }

 private:
  /// The unit keys of group `g`, with the lanes `sel` reads computed.
  std::span<const std::uint32_t> lanes(unsigned g, const CompressedKeySelector& sel) {
    const unsigned slot = g % kCachedGroups;
    GroupLanes& c = groups_[slot];
    if ((live_slots_ >> slot & 1u) == 0 || c.group != g) {
      live_slots_ |= 1u << slot;
      c.group = g;
      c.computed = 0;
    }
    const CompressionStage& comp = dp_.group(g).compression();
    for (const std::int8_t u : {sel.unit_a, sel.unit_b}) {
      if (u < 0 || (c.computed >> u & 1u) != 0) continue;
      const auto i = static_cast<unsigned>(u);
      c.keys[i] = comp.spec_of(i) ? comp.unit(i).compute(key_) : 0;
      c.computed |= 1u << i;
    }
    return c.keys;
  }

  /// The lanes of one group computed so far; only the lanes in `computed`
  /// hold keys.
  struct GroupLanes {
    unsigned group;
    unsigned computed;  ///< lanes of `group` in keys
    CompressionStage::UnitKeys keys;
  };
  /// Group g caches in slot g % kCachedGroups: one slot per group of any
  /// pipeline (a group sits in one of TofinoModel::kNumStages MAU stages).
  /// Slots are left unset until first used (live_slots_), because a query
  /// touches one to three of them and zeroing all of them would cost more
  /// than the lanes it saves on an epoch readout.
  static constexpr unsigned kCachedGroups = 16;
  static_assert(kCachedGroups >= dataplane::TofinoModel::kNumStages);

  const FlyMonDataPlane& dp_;
  const Packet& probe_;
  CandidateKey key_;
  std::uint32_t live_slots_ = 0;  ///< slots of groups_ that hold a group
  std::array<GroupLanes, kCachedGroups> groups_;
};

std::uint64_t read_row_value(Algorithm algo, const RowPlacement& row,
                             Prober& cells) {
  switch (algo) {
    case Algorithm::kCounterBraids: {
      // Layer-1 value saturates at the cap; layer-2 absorbs the rest.
      std::uint64_t total = 0;
      for (const UnitPlacement& up : row.units) total += cells.value(up);
      return total;
    }
    case Algorithm::kSuMaxSum: {
      std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
      for (const UnitPlacement& up : row.units) {
        best = std::min<std::uint64_t>(best, cells.value(up));
      }
      return best;
    }
    default:
      return cells.value(row.units.at(0));
  }
}

}  // namespace

std::uint64_t Controller::query_value(std::uint32_t id, const Packet& probe) const {
  const DeployedTask& t = require(id);
  Prober cells(*dp_, probe);
  if (t.algorithm == Algorithm::kTowerSketch) {
    std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_saturated = 0;
    bool found = false;
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
      const unsigned width = kTowerWidths[r % 3];
      const std::uint32_t raw = cells.value(t.rows[r].units.at(0));
      const std::uint32_t v = raw >> (32 - width);
      if (v == low_mask32(width)) {
        max_saturated = std::max<std::uint64_t>(max_saturated, v);
      } else {
        best = std::min<std::uint64_t>(best, v);
        found = true;
      }
    }
    return found ? best : max_saturated;
  }
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (const RowPlacement& row : t.rows) {
    best = std::min(best, read_row_value(t.algorithm, row, cells));
  }
  return best;
}

bool Controller::query_existence(std::uint32_t id, const Packet& probe) const {
  const DeployedTask& t = require(id);
  Prober cells(*dp_, probe);
  for (const RowPlacement& row : t.rows) {
    const ProbeView v = cells.unit(row.units.at(0));
    if (t.spec.bloom_bit_packed) {
      const std::uint32_t bit = 1u << (cells.param(v, v.entry->p1) & 31u);
      if ((v.value & bit) == 0) return false;
    } else if (v.value == 0) {
      return false;
    }
  }
  return true;
}

std::uint64_t Controller::query_max_interarrival_ns(std::uint32_t id,
                                                    const Packet& probe) const {
  const DeployedTask& t = require(id);
  Prober cells(*dp_, probe);
  std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
  for (const RowPlacement& row : t.rows) {
    const ProbeView v = cells.unit(row.units.back());
    best = std::min<std::uint64_t>(best, v.value);
  }
  return best << kTsShift;
}

bool Controller::distinct_over_threshold(std::uint32_t id, const Packet& probe) const {
  const DeployedTask& t = require(id);
  Prober cells(*dp_, probe);
  for (const RowPlacement& row : t.rows) {
    const ProbeView v = cells.unit(row.units.at(0));
    const unsigned coupons = static_cast<unsigned>(
        std::popcount(v.value & low_mask32(t.coupon_count)));
    if (coupons < t.coupon_threshold) return false;
  }
  return true;
}

double Controller::estimate_distinct(std::uint32_t id, const Packet& probe) const {
  const DeployedTask& t = require(id);
  Prober cells(*dp_, probe);
  sketch::CouponConfig cfg;
  cfg.num_coupons = t.coupon_count;
  cfg.draw_probability = t.coupon_probability;
  cfg.collect_threshold = t.coupon_threshold;
  double best = std::numeric_limits<double>::max();
  for (const RowPlacement& row : t.rows) {
    const ProbeView v = cells.unit(row.units.at(0));
    const unsigned coupons = static_cast<unsigned>(
        std::popcount(v.value & low_mask32(t.coupon_count)));
    best = std::min(best, cfg.expected_items_to_collect(coupons));
  }
  return best;
}

double Controller::estimate_cardinality(std::uint32_t id) const {
  const DeployedTask& t = require(id);
  const UnitPlacement& up = t.rows.at(0).units.at(0);
  const auto& reg = dp_->group(up.group).cmu(up.cmu).reg();
  if (t.algorithm == Algorithm::kLinearCounting) {
    const std::uint64_t total_bits = std::uint64_t{up.partition.size} * 32;
    std::uint64_t set = 0;
    for (std::uint32_t i = up.partition.base; i < up.partition.end(); ++i) {
      set += static_cast<std::uint64_t>(std::popcount(reg.read(i)));
    }
    const std::uint64_t zeros = total_bits - set;
    if (zeros == 0) return static_cast<double>(total_bits);
    return -static_cast<double>(total_bits) *
           std::log(static_cast<double>(zeros) / static_cast<double>(total_bits));
  }
  // HyperLogLog: registers hold max hash slices; rho = leading ones + 1.
  const unsigned b = log2_floor(up.partition.size);
  sketch::HyperLogLog hll(std::max(2u, b));
  for (std::uint32_t i = 0; i < (1u << std::max(2u, b)); ++i) {
    const std::uint32_t v =
        i < up.partition.size ? reg.read(up.partition.base + i) : 0;
    hll.load_register(i, rho_of_slice(v, 16));
  }
  return hll.estimate();
}

double Controller::estimate_entropy(std::uint32_t id) const {
  return sketch::Mrac::entropy_of_distribution(estimate_size_distribution(id));
}

std::map<std::uint32_t, double> Controller::estimate_size_distribution(
    std::uint32_t id) const {
  const DeployedTask& t = require(id);
  const UnitPlacement& up = t.rows.at(0).units.at(0);
  const auto& reg = dp_->group(up.group).cmu(up.cmu).reg();
  sketch::Mrac mrac(up.partition.size);
  for (std::uint32_t i = 0; i < up.partition.size; ++i) {
    mrac.load_counter(i, reg.read(up.partition.base + i));
  }
  return mrac.estimate_size_distribution();
}

namespace {

/// Load the XOR unit's register partition into an OddSketch (one parity bit
/// per register bit).
sketch::OddSketch load_odd_sketch(const FlyMonDataPlane& dp, const DeployedTask& t) {
  if (t.algorithm != Algorithm::kOddSketch)
    throw std::invalid_argument("Controller: task is not an OddSketch task");
  const UnitPlacement& up = t.rows.at(0).units.back();
  const auto& reg = dp.group(up.group).cmu(up.cmu).reg();
  sketch::OddSketch os(std::uint64_t{up.partition.size} * 32);
  for (std::uint32_t i = 0; i < up.partition.size; ++i) {
    const std::uint32_t v = reg.read(up.partition.base + i);
    for (unsigned b = 0; b < 32; ++b) {
      os.load_parity(std::uint64_t{i} * 32 + b, (v >> b) & 1u);
    }
  }
  return os;
}

/// Two similarity tasks are comparable only when their XOR units share the
/// exact data-plane hash path (same group/CMU, same slices) and geometry.
void require_comparable(const FlyMonDataPlane& dp, const DeployedTask& a,
                        const DeployedTask& b) {
  const UnitPlacement& ua = a.rows.at(0).units.back();
  const UnitPlacement& ub = b.rows.at(0).units.back();
  const CmuTaskEntry* ea = dp.group(ua.group).cmu(ua.cmu).find(ua.phys_id);
  const CmuTaskEntry* eb = dp.group(ub.group).cmu(ub.cmu).find(ub.phys_id);
  if (ea == nullptr || eb == nullptr) throw std::logic_error("entry vanished");
  if (ua.group != ub.group || ua.cmu != ub.cmu ||
      !(ea->key_slice == eb->key_slice) || !(ea->p1.slice == eb->p1.slice) ||
      ua.partition.size != ub.partition.size) {
    throw std::invalid_argument(
        "Controller: similarity tasks have incompatible placements");
  }
}

}  // namespace

double Controller::estimate_set_size(std::uint32_t id) const {
  return load_odd_sketch(*dp_, require(id)).estimate_size();
}

double Controller::estimate_symmetric_difference(std::uint32_t a, std::uint32_t b) const {
  const DeployedTask& ta = require(a);
  const DeployedTask& tb = require(b);
  require_comparable(*dp_, ta, tb);
  return load_odd_sketch(*dp_, ta).estimate_symmetric_difference(load_odd_sketch(*dp_, tb));
}

double Controller::estimate_jaccard(std::uint32_t a, std::uint32_t b) const {
  const DeployedTask& ta = require(a);
  const DeployedTask& tb = require(b);
  require_comparable(*dp_, ta, tb);
  return load_odd_sketch(*dp_, ta).estimate_jaccard(load_odd_sketch(*dp_, tb));
}

// ---------- observability ----------

TaskHealth Controller::task_health(std::uint32_t id) const {
  const DeployedTask& t = require(id);
  TaskHealth h;
  h.task_id = t.id;
  h.name = t.spec.name;
  h.algorithm = t.algorithm;
  h.buckets = t.buckets;
  h.rows = static_cast<unsigned>(t.rows.size());
  h.cmus_used = t.report.cmus_used;
  h.table_rules = t.report.table_rules;
  h.hash_mask_rules = t.report.hash_mask_rules;
  h.cumulative_delay_ms = t.cumulative_delay_ms;
  for (const RowPlacement& row : t.rows) {
    std::uint64_t nonzero = 0;
    std::uint64_t cells = 0;
    for (const UnitPlacement& up : row.units) {
      const auto& reg = dp_->group(up.group).cmu(up.cmu).reg();
      for (std::uint32_t i = up.partition.base; i < up.partition.end(); ++i) {
        if (reg.read(i) != 0) ++nonzero;
      }
      cells += up.partition.size;
    }
    const double sat =
        cells == 0 ? 0.0 : static_cast<double>(nonzero) / static_cast<double>(cells);
    h.row_saturation.push_back(sat);
    h.max_saturation = std::max(h.max_saturation, sat);
  }
  return h;
}

std::vector<TaskHealth> Controller::health() const {
  std::vector<TaskHealth> out;
  out.reserve(tasks_.size());
  for (const auto& [id, t] : tasks_) out.push_back(task_health(id));
  return out;
}

void Controller::collect_telemetry() const {
  collect_dataplane_telemetry(*dp_, *registry_);
  // Surface tracing/profiling data through the same exporters: span
  // durations recorded since the last collection plus the per-stage
  // cycle breakdown.
  trace::SpanCollector::global().flush_to_registry(*registry_);
  trace::StageProfiler::global().flush_to_registry(*registry_);
  registry_->gauge("flymon_tasks_active").set(static_cast<double>(tasks_.size()));
  for (const TaskHealth& h : health()) {
    const std::string id = std::to_string(h.task_id);
    registry_->gauge("flymon_task_buckets", {{"task", id}}).set(h.buckets);
    registry_->gauge("flymon_task_rules",
                     {{"task", id}})
        .set(static_cast<double>(h.table_rules + h.hash_mask_rules));
    registry_->gauge("flymon_task_deploy_delay_ms_total", {{"task", id}})
        .set(h.cumulative_delay_ms);
    registry_->gauge("flymon_task_max_saturation", {{"task", id}})
        .set(h.max_saturation);
    for (std::size_t r = 0; r < h.row_saturation.size(); ++r) {
      registry_->gauge("flymon_task_row_saturation",
                       {{"task", id}, {"row", std::to_string(r)}})
          .set(h.row_saturation[r]);
    }
  }
}

std::vector<FlowKeyValue> Controller::detect_over_threshold(
    std::uint32_t id, const std::vector<FlowKeyValue>& candidates,
    std::uint64_t threshold) const {
  const DeployedTask& t = require(id);
  std::vector<FlowKeyValue> out;
  for (const FlowKeyValue& k : candidates) {
    const Packet probe = packet_from_candidate_key(k.bytes);
    const bool hit = t.algorithm == Algorithm::kBeauCoup
                         ? distinct_over_threshold(id, probe)
                         : query_value(id, probe) >= threshold;
    if (hit) out.push_back(k);
  }
  return out;
}

}  // namespace flymon::control
