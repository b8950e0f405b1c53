#include "verify/mutations.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "exec/exec_plan.hpp"
#include "telemetry/export.hpp"
#include "verify/translate/translate.hpp"
#include "verify/verifier.hpp"

namespace flymon::verify {
namespace {

using control::Controller;
using control::DeployedTask;
using control::UnitPlacement;
using dataplane::StatefulOp;

/// First placed unit of the first deployed task.
const UnitPlacement& first_placement(const Controller& ctl) {
  for (const std::uint32_t id : ctl.task_ids()) {
    const DeployedTask* t = ctl.task(id);
    if (t != nullptr && !t->rows.empty() && !t->rows[0].units.empty()) {
      return t->rows[0].units[0];
    }
  }
  throw std::logic_error("mutation harness: no deployed placement");
}

const CmuTaskEntry& placed_entry(const MutableWorld& w, const UnitPlacement& up) {
  const CmuTaskEntry* e = w.dp.group(up.group).cmu(up.cmu).find(up.phys_id);
  if (e == nullptr) throw std::logic_error("mutation harness: entry missing");
  return *e;
}

/// A raw entry installed behind the controller's back, reusing the placed
/// entry's compressed key.  Sampled (< 1.0) so Cmu::install accepts it next
/// to the deployment's full-rate filters.
CmuTaskEntry raw_entry(const CmuTaskEntry& like, std::uint32_t task_id,
                       TaskFilter filter, MemoryPartition part,
                       std::uint32_t priority = 500) {
  CmuTaskEntry e;
  e.task_id = task_id;
  e.filter = filter;
  e.priority = priority;
  e.sample_probability = 0.5;
  e.key_sel = like.key_sel;
  e.key_slice = like.key_slice;
  e.partition = part;
  e.op = StatefulOp::kCondAdd;
  return e;
}

/// Configure one compression unit on an otherwise untouched group and hand
/// back a selector for it (for mutations that build entries from scratch).
CompressedKeySelector configure_unit(MutableWorld& w, unsigned group,
                                     const FlowKeySpec& spec) {
  auto& comp = w.dp.group(group).compression();
  const auto u = comp.free_unit();
  if (!u) throw std::logic_error("mutation harness: no free hash unit");
  comp.configure(*u, spec);
  return CompressedKeySelector{static_cast<std::int8_t>(*u), -1};
}

}  // namespace

std::vector<Mutation> mutation_catalogue() {
  std::vector<Mutation> cat;

  cat.push_back({"overlapping-partition", "memory.overlap",
                 "raw entry whose partition collides with a deployed task's block",
                 [](MutableWorld& w) {
                   const auto& up = first_placement(w.ctl);
                   const auto& e = placed_entry(w, up);
                   w.dp.group(up.group).cmu(up.cmu).install(raw_entry(
                       e, 9001, TaskFilter::src(0xAC10'0000u, 12), e.partition));
                 }});

  cat.push_back({"non-pow2-partition", "memory.pow2",
                 "entry with a 24-bucket partition (not a power of two)",
                 [](MutableWorld& w) {
                   const auto& up = first_placement(w.ctl);
                   const auto& e = placed_entry(w, up);
                   const std::uint32_t total =
                       w.dp.group(up.group).cmu(up.cmu).reg().size();
                   w.dp.group(up.group).cmu(up.cmu).install(
                       raw_entry(e, 9002, TaskFilter::src(0xC0A8'0000u, 16),
                                 MemoryPartition{total - 32, 24}));
                 }});

  cat.push_back({"misaligned-partition", "memory.align",
                 "1024-bucket partition whose base is not size-aligned",
                 [](MutableWorld& w) {
                   const auto& up = first_placement(w.ctl);
                   const auto& e = placed_entry(w, up);
                   const std::uint32_t total =
                       w.dp.group(up.group).cmu(up.cmu).reg().size();
                   w.dp.group(up.group).cmu(up.cmu).install(
                       raw_entry(e, 9003, TaskFilter::src(0xC0A8'0000u, 16),
                                 MemoryPartition{total / 2 + 512, 1024}));
                 }});

  cat.push_back({"orphaned-placement", "task.placement",
                 "table entry removed behind the controller's back",
                 [](MutableWorld& w) {
                   const auto& up = first_placement(w.ctl);
                   w.dp.group(up.group).cmu(up.cmu).remove(up.phys_id);
                 }});

  cat.push_back({"shadowed-entry", "tcam.shadow",
                 "sampled entry installed under a covering full-rate wildcard",
                 [](MutableWorld& w) {
                   const auto& up = first_placement(w.ctl);
                   const auto& e = placed_entry(w, up);
                   w.dp.group(up.group).cmu(up.cmu).install(
                       raw_entry(e, 9005, TaskFilter::src(0x0A00'0000u, 8),
                                 MemoryPartition{32768, 1024}, 500));
                 }});

  cat.push_back({"conflicting-priority", "tcam.conflict",
                 "overlapping same-priority entries with divergent actions",
                 [](MutableWorld& w) {
                   const unsigned g = w.dp.num_groups() - 1;
                   const auto sel =
                       configure_unit(w, g, FlowKeySpec::src_ip());
                   Cmu& cmu = w.dp.group(g).cmu(2);
                   CmuTaskEntry a;
                   a.task_id = 9006;
                   a.filter = TaskFilter::src(0x0A00'0000u, 8);
                   a.priority = 100;
                   a.sample_probability = 0.5;
                   a.key_sel = sel;
                   a.partition = {0, 1024};
                   a.op = StatefulOp::kCondAdd;
                   CmuTaskEntry b = a;
                   b.task_id = 9007;
                   b.filter = TaskFilter::src(0x0A01'0000u, 16);
                   b.partition = {1024, 1024};
                   b.op = StatefulOp::kMax;
                   cmu.install(a);
                   cmu.install(b);
                 }});

  cat.push_back({"unloaded-operation", "task.op",
                 "entry selecting XOR on a SALU that never pre-loaded it",
                 [](MutableWorld& w) {
                   const unsigned g = w.dp.num_groups() - 1;
                   const auto sel =
                       configure_unit(w, g, FlowKeySpec::dst_ip());
                   Cmu& cmu = w.dp.group(g).cmu(1);
                   CmuTaskEntry e;
                   e.task_id = 9008;
                   e.filter = TaskFilter::src(0x0A00'0000u, 8);
                   e.sample_probability = 0.5;
                   e.key_sel = sel;
                   e.partition = {0, 1024};
                   e.op = StatefulOp::kXor;
                   cmu.install(e);
                 }});

  cat.push_back({"cleared-selector", "task.selector",
                 "hash unit cleared while a deployed entry still reads it",
                 [](MutableWorld& w) {
                   const auto& up = first_placement(w.ctl);
                   const auto& e = placed_entry(w, up);
                   w.dp.group(up.group).compression().clear_unit(
                       static_cast<unsigned>(e.key_sel.unit_a));
                 }});

  cat.push_back({"aliased-hash-specs", "task.alias",
                 "two hash units of one group configured with the same key spec",
                 [](MutableWorld& w) {
                   const unsigned g = w.dp.num_groups() - 1;
                   configure_unit(w, g, FlowKeySpec::five_tuple());
                   configure_unit(w, g, FlowKeySpec::five_tuple());
                 }});

  cat.push_back({"plan-stage-collision", "resources.stage",
                 "two groups cross-stacked onto the same start stage",
                 [](MutableWorld& w) {
                   if (w.plan.start_stage.size() < 2) {
                     throw std::logic_error("mutation harness: plan too small");
                   }
                   w.plan.start_stage[1] = w.plan.start_stage[0];
                 }});

  // ---- semantic-dataflow mutations (src/verify/dataflow_*.cpp) ----

  cat.push_back({"dataflow-zeroed-hash-mask", "dataflow.key.entropy",
                 "hash unit configured with an all-zero mask (constant key)",
                 [](MutableWorld& w) {
                   configure_unit(w, w.dp.num_groups() - 1, FlowKeySpec{});
                 }});

  cat.push_back({"dataflow-self-cancelling-key", "dataflow.key.cancel",
                 "entry XORing a compressed key with itself (constant-0 key)",
                 [](MutableWorld& w) {
                   const unsigned g = w.dp.num_groups() - 1;
                   const auto sel =
                       configure_unit(w, g, FlowKeySpec::src_ip());
                   CmuTaskEntry e;
                   e.task_id = 9011;
                   e.filter = TaskFilter::src(0x0A00'0000u, 8);
                   e.sample_probability = 0.5;
                   e.key_sel = {sel.unit_a, sel.unit_a};  // XOR with itself
                   e.partition = {0, 1024};
                   e.op = StatefulOp::kCondAdd;
                   w.dp.group(g).cmu(2).install(e);
                 }});

  cat.push_back({"dataflow-undersized-partition", "dataflow.accuracy.epsilon",
                 "CMS task whose 64 buckets/row cannot reach epsilon=1e-6",
                 [](MutableWorld& w) {
                   TaskSpec tiny;
                   tiny.name = "tiny-hh";
                   tiny.filter = TaskFilter::src(0xAC10'0000u, 12);
                   tiny.key = FlowKeySpec::src_ip();
                   tiny.attribute = AttributeKind::kFrequency;
                   tiny.algorithm = Algorithm::kCms;
                   tiny.memory_buckets = 64;
                   tiny.target_epsilon = 1e-6;
                   const auto r = w.ctl.add_task(tiny);
                   if (!r.ok) {
                     throw std::logic_error(
                         "mutation harness: tiny CMS deploy failed: " + r.error);
                   }
                 }});

  cat.push_back({"dataflow-overflow-preload", "dataflow.range.overflow",
                 "Cond-ADD whose 2^30 increment can exceed the value mask",
                 [](MutableWorld& w) {
                   const auto& up = first_placement(w.ctl);
                   const auto& e = placed_entry(w, up);
                   CmuTaskEntry bad =
                       raw_entry(e, 9014, TaskFilter::src(0xC0A8'0000u, 16),
                                 MemoryPartition{32768, 1024});
                   bad.p1 = ParamSelect::constant(0x4000'0000u);
                   w.dp.group(up.group).cmu(up.cmu).install(bad);
                 }});

  cat.push_back({"dataflow-aliased-task-rows", "dataflow.key.alias",
                 "two rows of one task rewritten onto the same key slice",
                 [](MutableWorld& w) {
                   for (const std::uint32_t id : w.ctl.task_ids()) {
                     const DeployedTask* t = w.ctl.task(id);
                     if (t == nullptr || t->rows.size() < 2) continue;
                     const auto& u0 = t->rows[0].units[0];
                     const auto& u1 = t->rows[1].units[0];
                     if (u0.group != u1.group) continue;
                     const CmuTaskEntry& e0 = placed_entry(w, u0);
                     CmuTaskEntry moved = placed_entry(w, u1);
                     w.dp.group(u1.group).cmu(u1.cmu).remove(u1.phys_id);
                     moved.key_slice = e0.key_slice;  // collapse onto row 0
                     w.dp.group(u1.group).cmu(u1.cmu).install(moved);
                     return;
                   }
                   throw std::logic_error(
                       "mutation harness: no same-group multi-row task");
                 }});

  return cat;
}

namespace {

/// First compiled entry satisfying `pred`; throws when the base scenario
/// lacks one (harness bug, not a detection failure).
template <typename Pred>
exec::CompiledEntry& find_entry(exec::ExecPlan& plan, Pred pred,
                                const char* what) {
  for (exec::CompiledEntry& e : exec::PlanMutator::entries(plan)) {
    if (pred(e)) return e;
  }
  throw std::logic_error(std::string("plan mutation harness: no entry ") +
                         what);
}

}  // namespace

std::vector<PlanMutation> plan_mutation_catalogue() {
  std::vector<PlanMutation> cat;

  cat.push_back(
      {"miscompile-wrong-preshift", "translate.address",
       "address pre-shift off by one: every packet lands in the wrong bucket",
       [](exec::ExecPlan& plan) {
         exec::CompiledEntry& e = find_entry(
             plan,
             [](const exec::CompiledEntry& ce) {
               return (ce.key_slot_a != 0 || ce.key_slot_b != 0) &&
                      ce.addr_mask != 0;
             },
             "with a hashed multi-bucket partition");
         e.addr_shift += 1;
       }});

  cat.push_back(
      {"miscompile-dropped-filter", "translate.filter",
       "filter prefix term dropped: the entry matches traffic it must not",
       [](exec::ExecPlan& plan) {
         exec::CompiledEntry& e = find_entry(
             plan,
             [](const exec::CompiledEntry& ce) {
               return ce.filter_src_mask != 0 || ce.filter_dst_mask != 0;
             },
             "with a non-wildcard filter");
         e.filter_src_mask = 0;
         e.filter_dst_mask = 0;
       }});

  cat.push_back(
      {"miscompile-swapped-opcode", "translate.op",
       "Cond-ADD lowered to MAX: counts silently become maxima",
       [](exec::ExecPlan& plan) {
         exec::CompiledEntry& e = find_entry(
             plan,
             [](const exec::CompiledEntry& ce) {
               return ce.op == StatefulOp::kCondAdd;
             },
             "with a Cond-ADD op");
         e.op = StatefulOp::kMax;
       }});

  cat.push_back(
      {"miscompile-cleared-blockers", "translate.merge.unsound",
       "merge blockers wiped: a register-gated plan claims to shard-merge "
       "exactly",
       [](exec::ExecPlan& plan) {
         if (plan.merge_blockers().empty()) {
           throw std::logic_error(
               "plan mutation harness: base scenario has no merge blockers");
         }
         exec::PlanMutator::merge_blockers(plan).clear();
         exec::PlanMutator::merge_blocker_kinds(plan).clear();
       }});

  cat.push_back(
      {"miscompile-merge-identity", "translate.merge.law",
       "merge region saturation mask narrowed: the fold loses its identity "
       "over the register domain",
       [](exec::ExecPlan& plan) {
         for (exec::MergeRegion& r : exec::PlanMutator::merge_regions(plan)) {
           // Only kSum / kXor folds consult the mask; narrow one of those.
           if (r.kind == exec::MergeKind::kSum ||
               r.kind == exec::MergeKind::kXor) {
             r.value_mask >>= 16;
             return;
           }
         }
         throw std::logic_error(
             "plan mutation harness: no mask-sensitive merge region");
       }});

  cat.push_back(
      {"miscompile-stale-lane", "translate.lane",
       "hash-lane snapshot cleared: compiled hashing diverges from the live "
       "compression stage",
       [](exec::ExecPlan& plan) {
         auto& slots = exec::PlanMutator::hash_slots(plan);
         if (slots.size() < 2) {
           throw std::logic_error(
               "plan mutation harness: no configured hash slot");
         }
         slots[1].unit.clear_mask();
       }});

  cat.push_back(
      {"miscompile-bogus-chain", "translate.chain",
       "entry rewired to publish on a chain channel the deployment never "
       "writes",
       [](exec::ExecPlan& plan) {
         exec::CompiledEntry& e = find_entry(
             plan,
             [](const exec::CompiledEntry& ce) {
               return ce.chain_out == exec::kNoChain;
             },
             "without a chain output");
         e.chain_out = 7;
       }});

  return cat;
}

namespace {

/// Deploy the mixed Table-1 scenario every mutation corrupts: a wildcard
/// heavy-hitter CMS, a filtered Bloom filter, and a chained Odd Sketch
/// (which also exercises the reserved XOR slot and chain channels).
void deploy_base_scenario(Controller& ctl) {
  TaskSpec cms;
  cms.name = "hh";
  cms.key = FlowKeySpec::src_ip();
  cms.attribute = AttributeKind::kFrequency;
  cms.algorithm = Algorithm::kCms;
  cms.memory_buckets = 4096;

  TaskSpec bloom;
  bloom.name = "blacklist";
  bloom.filter = TaskFilter::src(0x0A00'0000u, 8);
  bloom.key = FlowKeySpec::ip_pair();
  bloom.attribute = AttributeKind::kExistence;
  bloom.algorithm = Algorithm::kBloomFilter;
  bloom.memory_buckets = 16384;

  TaskSpec odd;
  odd.name = "similarity";
  odd.filter = TaskFilter::dst(0xC0A8'0000u, 16);
  odd.key = FlowKeySpec::src_ip();
  odd.attribute = AttributeKind::kSimilarity;
  odd.algorithm = Algorithm::kOddSketch;
  odd.memory_buckets = 8192;

  for (const TaskSpec& spec : {cms, bloom, odd}) {
    const auto r = ctl.add_task(spec);
    if (!r.ok) {
      throw std::logic_error("mutation harness: base deploy failed: " + r.error);
    }
  }
}

}  // namespace

bool SelfTestResult::passed() const noexcept {
  return baseline_clean &&
         std::all_of(cases.begin(), cases.end(),
                     [](const SelfTestCase& c) { return c.detected; });
}

namespace {

/// Corrupt a fresh base world with `m` and verify it.
VerifyReport verify_mutated_world(const Mutation& m) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  deploy_base_scenario(ctl);
  auto plan = control::cross_stack(dataplane::TofinoModel::kNumStages,
                                   dp.group(0).config());
  MutableWorld world{dp, ctl, plan};
  m.apply(world);
  return verify_deployment(ctl, &plan);
}

/// Corrupt a fresh base world's PUBLISHED plan with `m` and run the
/// translation validator over it.  The const_cast is confined to the
/// self-test: nothing processes packets against the plan while it mutates.
VerifyReport verify_mutated_plan(const PlanMutation& m) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  deploy_base_scenario(ctl);  // every add_task republishes the plan
  const auto plan =
      std::const_pointer_cast<exec::ExecPlan>(dp.current_plan());
  m.apply(*plan);
  // Re-sync the SoA hot arrays so the miscompile lands in the layout the
  // batch path executes — the validator must catch it there too, not only
  // in the diagnostic AoS view.
  exec::PlanMutator::rebuild_hot(*plan);
  return validate_plan(dp, *plan);
}

}  // namespace

SelfTestResult run_mutation_self_test(std::string_view name_prefix) {
  SelfTestResult result;
  {
    FlyMonDataPlane dp(9);
    Controller ctl(dp);
    deploy_base_scenario(ctl);
    auto plan = control::cross_stack(dataplane::TofinoModel::kNumStages,
                                     dp.group(0).config());
    VerifyReport report = verify_deployment(ctl, &plan);
    // The published compiled plan must also translate clean — the plan
    // mutations below only prove detection if the unmutated plan doesn't
    // already diagnose.
    report.merge(validate_plan(dp, *dp.current_plan()));
    result.baseline_clean = report.empty();
    result.baseline_diagnostics = report.format();
  }

  const auto matches = [&](const std::string& name) {
    return name_prefix.empty() ||
           std::string_view(name).substr(0, name_prefix.size()) == name_prefix;
  };
  for (const Mutation& m : mutation_catalogue()) {
    if (!matches(m.name)) continue;
    const VerifyReport report = verify_mutated_world(m);
    SelfTestCase c;
    c.mutation = m.name;
    c.expected_check = m.expected_check;
    c.detected = report.has_check(m.expected_check);
    c.diagnostics = report.format();
    result.cases.push_back(std::move(c));
  }
  for (const PlanMutation& m : plan_mutation_catalogue()) {
    if (!matches(m.name)) continue;
    const VerifyReport report = verify_mutated_plan(m);
    SelfTestCase c;
    c.mutation = m.name;
    c.expected_check = m.expected_check;
    c.detected = report.has_check(m.expected_check);
    c.diagnostics = report.format();
    result.cases.push_back(std::move(c));
  }
  return result;
}

std::optional<VerifyReport> run_single_mutation(std::string_view name) {
  for (const Mutation& m : mutation_catalogue()) {
    if (m.name == name) return verify_mutated_world(m);
  }
  for (const PlanMutation& m : plan_mutation_catalogue()) {
    if (m.name == name) return verify_mutated_plan(m);
  }
  return std::nullopt;
}

std::string format(const SelfTestResult& result) {
  std::ostringstream out;
  out << "baseline: " << (result.baseline_clean ? "clean" : "NOT CLEAN") << '\n';
  if (!result.baseline_clean) out << result.baseline_diagnostics;
  for (const SelfTestCase& c : result.cases) {
    out << (c.detected ? "caught " : "MISSED ") << c.mutation << " (expected "
        << c.expected_check << ")\n";
    if (!c.detected) out << c.diagnostics;
  }
  return out.str();
}

std::string to_json(const SelfTestResult& result) {
  std::ostringstream out;
  out << "{\"baseline_clean\":" << (result.baseline_clean ? "true" : "false")
      << ",\"passed\":" << (result.passed() ? "true" : "false")
      << ",\"cases\":[";
  bool first = true;
  for (const SelfTestCase& c : result.cases) {
    if (!first) out << ',';
    first = false;
    out << "{\"mutation\":\"" << telemetry::json_escape(c.mutation)
        << "\",\"expected_check\":\"" << telemetry::json_escape(c.expected_check)
        << "\",\"detected\":" << (c.detected ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace flymon::verify
