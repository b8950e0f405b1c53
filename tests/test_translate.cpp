// Translation validation for compiled ExecPlans (src/verify/translate):
// symbolic bit-vector domain, lockstep entry checks, merge-soundness
// prover, the seeded-miscompile self-test, and the paranoid gate's check of
// the candidate plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <random>
#include <set>
#include <vector>

#include "control/controller.hpp"
#include "core/flymon_dataplane.hpp"
#include "exec/exec_plan.hpp"
#include "verify/mutations.hpp"
#include "verify/translate/symbits.hpp"
#include "verify/translate/translate.hpp"
#include "verify/verifier.hpp"

namespace flymon {
namespace {

using verify::translate::SymWord;

// ---- symbolic GF(2) words ----

TEST(SymBits, XorOfALaneWithItselfCancelsToZero) {
  const SymWord a = SymWord::lane(1);
  EXPECT_EQ(a ^ a, SymWord::constant(0));
  EXPECT_EQ(SymWord::first_divergent_bit(a ^ a, SymWord::constant(0)), -1);
}

TEST(SymBits, ConstantsFollowConcreteArithmetic) {
  EXPECT_EQ(SymWord::constant(0xF0u) ^ SymWord::constant(0x0Fu),
            SymWord::constant(0xFFu));
  EXPECT_EQ(SymWord::constant(0xFF00u) >> 8, SymWord::constant(0xFFu));
  EXPECT_EQ(SymWord::constant(0xABCDu) & 0xFF00u, SymWord::constant(0xAB00u));
  EXPECT_EQ(SymWord::first_divergent_bit(SymWord::constant(0),
                                         SymWord::constant(8)),
            3);
}

TEST(SymBits, ShiftAndMaskMoveSymbolicBits) {
  const SymWord w = SymWord::lane(2);
  const SymWord s = (w >> 4) & 0xFFu;
  // Bit 0 of the slice is lane bit 4; bits >= 8 are masked to constant 0.
  EXPECT_EQ(s.bit(0).vars, std::vector<std::uint32_t>{2u * 32u + 4u});
  EXPECT_TRUE(s.bit(8).vars.empty());
  // Shifting by the full word width yields constant zero.
  EXPECT_EQ(w >> 32, SymWord::constant(0));
}

// A random expression over lanes 1..kLanes, built symbolically and as a
// concrete function of the lane values at the same time.
constexpr unsigned kLanes = 6;
using LaneValues = std::array<std::uint32_t, kLanes + 1>;

struct Expr {
  SymWord sym;
  std::function<std::uint32_t(const LaneValues&)> eval;
};

Expr operator^(const Expr& a, const Expr& b) {
  return {a.sym ^ b.sym, [a, b](const LaneValues& v) { return a.eval(v) ^ b.eval(v); }};
}
Expr operator&(const Expr& a, std::uint32_t m) {
  return {a.sym & m, [a, m](const LaneValues& v) { return a.eval(v) & m; }};
}
Expr operator>>(const Expr& a, unsigned n) {
  return {a.sym >> n,
          [a, n](const LaneValues& v) { return n >= 32 ? 0u : a.eval(v) >> n; }};
}

Expr random_expr(std::mt19937& rng, unsigned depth) {
  const unsigned pick = depth == 0 ? rng() % 2 : rng() % 6;
  switch (pick) {
    case 0: {
      const std::uint32_t id = 1 + rng() % kLanes;
      return {SymWord::lane(id), [id](const LaneValues& v) { return v[id]; }};
    }
    case 1: {
      const std::uint32_t c = rng();
      return {SymWord::constant(c), [c](const LaneValues&) { return c; }};
    }
    case 2:
      return random_expr(rng, depth - 1) & static_cast<std::uint32_t>(rng());
    case 3:
      return random_expr(rng, depth - 1) >> (rng() % 36);
    default:  // XOR is the common case, so words span several lanes
      return random_expr(rng, depth - 1) ^ random_expr(rng, depth - 1);
  }
}

/// Evaluate a SymWord at concrete lane values through its bit view.
std::uint32_t evaluate(const SymWord& w, const LaneValues& lanes) {
  std::uint32_t out = 0;
  for (unsigned i = 0; i < 32; ++i) {
    const auto b = w.bit(i);
    bool v = b.constant;
    for (const std::uint32_t var : b.vars) v ^= ((lanes[var / 32] >> (var % 32)) & 1u) != 0;
    if (v) out |= 1u << i;
  }
  return out;
}

TEST(SymBits, RandomExpressionsAgreeWithConcreteEvaluation) {
  std::mt19937 rng(20221);
  std::vector<LaneValues> points(64);
  for (LaneValues& p : points) {
    for (std::uint32_t& v : p) v = rng();
  }
  unsigned spilled = 0, equal_pairs = 0, unequal_pairs = 0;
  for (unsigned trial = 0; trial < 300; ++trial) {
    const Expr a = random_expr(rng, 5);
    const Expr r = random_expr(rng, 4);
    const unsigned n = rng() % 33;
    const std::uint32_t m = rng();
    // Half the pairs are rewrites that must compare equal; the rest pair
    // unrelated expressions.
    Expr x = a, y;
    switch (trial % 6) {
      case 0: y = (a ^ r) ^ r; break;
      case 1: y = (a & m) ^ (a & ~m); break;
      case 2:
        x = a >> n;
        y = ((a ^ r) >> n) ^ (r >> n);
        break;
      default: y = random_expr(rng, 5); break;
    }
    if (trial % 6 < 3) EXPECT_EQ(x.sym, y.sym) << "trial " << trial;

    std::set<std::uint32_t> lanes;
    for (unsigned i = 0; i < 32; ++i) {
      for (const std::uint32_t var : (a ^ r).sym.bit(i).vars) lanes.insert(var / 32);
    }
    if (lanes.size() >= 3) ++spilled;

    std::uint32_t diff_any = 0;
    for (const LaneValues& p : points) {
      ASSERT_EQ(evaluate(x.sym, p), x.eval(p)) << "trial " << trial;
      ASSERT_EQ(evaluate(y.sym, p), y.eval(p)) << "trial " << trial;
      diff_any |= x.eval(p) ^ y.eval(p);
    }
    const int bit = SymWord::first_divergent_bit(x.sym, y.sym);
    if (x.sym == y.sym) {
      ++equal_pairs;
      EXPECT_EQ(bit, -1);
      EXPECT_EQ(diff_any, 0u) << "trial " << trial;
    } else {
      ++unequal_pairs;
      ASSERT_GE(bit, 0);
      // Below the divergent bit the words agree everywhere; at it they
      // differ on some point (a non-zero affine form is 1 on half of all
      // inputs, so 64 random points miss it with probability 2^-64).
      EXPECT_EQ(diff_any & ((1u << bit) - 1u), 0u) << "trial " << trial;
      EXPECT_NE((diff_any >> bit) & 1u, 0u) << "trial " << trial;
    }
  }
  EXPECT_GT(spilled, 50u);
  EXPECT_GT(equal_pairs, 100u);
  EXPECT_GT(unequal_pairs, 100u);
}

// ---- world helpers ----

control::DeployResult add_cms(control::Controller& ctl, const std::string& name,
                              TaskFilter filter = TaskFilter::any()) {
  TaskSpec s;
  s.name = name;
  s.filter = filter;
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.algorithm = Algorithm::kCms;
  s.memory_buckets = 4096;
  return ctl.add_task(s);
}

std::shared_ptr<exec::ExecPlan> mutable_plan(FlyMonDataPlane& dp) {
  // Test-only: nothing processes packets while the plan mutates.
  auto plan = std::const_pointer_cast<exec::ExecPlan>(dp.current_plan());
  EXPECT_NE(plan, nullptr);
  return plan;
}

// ---- clean plans translate clean ----

TEST(Translate, DeployedPlanValidatesClean) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(add_cms(ctl, "hh").ok);
  const auto plan = dp.current_plan();
  ASSERT_NE(plan, nullptr);
  const auto report = verify::validate_plan(dp, *plan);
  EXPECT_TRUE(report.empty()) << report.format();
  EXPECT_EQ(report.analyzers_run,
            (std::vector<std::string>{"translate", "merge"}));
}

// ---- seeded miscompiles must all be caught ----

TEST(Translate, SelfTestCatchesEverySeededMiscompile) {
  const auto result = verify::run_mutation_self_test("miscompile-");
  EXPECT_TRUE(result.baseline_clean) << result.baseline_diagnostics;
  EXPECT_EQ(result.cases.size(), 7u);
  for (const auto& c : result.cases) {
    EXPECT_TRUE(c.detected) << c.mutation << " expected " << c.expected_check
                            << "\n" << c.diagnostics;
  }
  EXPECT_TRUE(result.passed());
}

TEST(Translate, WrongPreShiftDivergesSymbolically) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(add_cms(ctl, "hh").ok);
  const auto plan = mutable_plan(dp);
  bool mutated = false;
  for (exec::CompiledEntry& e : exec::PlanMutator::entries(*plan)) {
    if ((e.key_slot_a != 0 || e.key_slot_b != 0) && e.addr_mask != 0) {
      e.addr_shift += 1;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const auto report = verify::validate_plan(dp, *plan);
  EXPECT_TRUE(report.has_check("translate.address")) << report.format();
  EXPECT_TRUE(report.has_errors());
}

TEST(Translate, StaleLaneSnapshotFlaggedAfterLiveReconfiguration) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(add_cms(ctl, "hh").ok);
  const auto plan = dp.current_plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_GE(plan->hash_slots().size(), 2u);
  // Reconfigure the live unit the plan snapshotted WITHOUT republishing:
  // the plan is now stale and must say so.
  const auto slot = plan->hash_slots()[1];
  auto& comp = dp.group(slot.group).compression();
  comp.clear_unit(slot.unit_index);
  comp.configure(slot.unit_index, FlowKeySpec::dst_ip());
  const auto report = verify::validate_plan(dp, *plan);
  EXPECT_TRUE(report.has_check("translate.lane")) << report.format();
}

// ---- merge prover ----

TEST(MergeProver, NarrowedRegionMaskViolatesIdentityLaw) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(add_cms(ctl, "hh").ok);
  const auto plan = mutable_plan(dp);
  bool mutated = false;
  for (exec::MergeRegion& r : exec::PlanMutator::merge_regions(*plan)) {
    if (r.kind == exec::MergeKind::kSum || r.kind == exec::MergeKind::kXor) {
      r.value_mask >>= 16;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const auto report = verify::validate_plan(dp, *plan);
  EXPECT_TRUE(report.has_check("translate.merge.law")) << report.format();
  EXPECT_TRUE(report.has_check("translate.merge.mask")) << report.format();
}

TEST(MergeProver, ClearedBlockersAreUnsoundInOneDirectionOnly) {
  // The full base scenario (chained Odd Sketch) is exercised by the
  // self-test; here prove the asymmetry on a small world: a chain-writing
  // entry whose blocker the "compiler" forgot.
  const auto report = verify::run_single_mutation("miscompile-cleared-blockers");
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->has_check("translate.merge.unsound")) << report->format();
  EXPECT_FALSE(report->has_check("translate.merge.spurious"));
}

TEST(MergeProver, IntervalDerivationProvesCompilerConservatism) {
  // AND-OR whose p2 is MetaField::kOne: the compiler's const-only rule
  // records an AND-mode blocker, but the interval analysis proves p2 == 1
  // always — OR-pinned.  The cross-check must warn (spurious), not error.
  FlyMonDataPlane dp(2);
  auto& comp = dp.group(0).compression();
  const auto u = comp.free_unit();
  ASSERT_TRUE(u.has_value());
  comp.configure(*u, FlowKeySpec::src_ip());
  CmuTaskEntry e;
  e.task_id = 77;
  e.key_sel = {static_cast<std::int8_t>(*u), -1};
  e.partition = {0, 256};
  e.p1 = ParamSelect::constant(0xFFu);
  e.p2 = ParamSelect::metadata(MetaField::kOne);
  e.op = dataplane::StatefulOp::kAndOr;
  dp.group(0).cmu(0).install(e);
  ASSERT_GT(dp.publish_plan(dp.compile_plan({})), 0u);
  const auto plan = dp.current_plan();
  ASSERT_NE(plan, nullptr);
  ASSERT_FALSE(plan->shard_mergeable());  // compiler is conservative
  const auto report = verify::validate_plan(dp, *plan);
  EXPECT_FALSE(report.has_errors()) << report.format();
  EXPECT_TRUE(report.has_check("translate.merge.spurious")) << report.format();
}

// ---- analyzer registry gating ----

TEST(TranslateAnalyzer, SilentWithoutExplicitPlanLoudWithIt) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(add_cms(ctl, "hh").ok);
  const auto plan = mutable_plan(dp);
  // Corrupt the plan so the analyzer WOULD diagnose if it looked.
  auto& entries = exec::PlanMutator::entries(*plan);
  ASSERT_FALSE(entries.empty());
  entries[0].op = dataplane::StatefulOp::kNop;

  const verify::Verifier v;
  verify::VerifyContext ctx;
  ctx.controller = &ctl;
  ctx.dataplane = &dp;
  // Without exec_plan the analyzers must not compare against the (possibly
  // stale) published plan — deploy-time gates run before recompilation.
  EXPECT_TRUE(v.run_one("translate", ctx).empty());
  EXPECT_TRUE(v.run_one("merge", ctx).empty());
  ctx.exec_plan = plan.get();
  EXPECT_TRUE(v.run_one("translate", ctx).has_errors());
}

// ---- the paranoid gate checks the candidate plan ----

/// The gate's rule for a batch that stages nothing: reject it only when
/// some error is the candidate plan's own (translate.*).
bool has_plan_errors(const verify::VerifyReport& report) {
  return std::any_of(report.diagnostics().begin(), report.diagnostics().end(),
                     [](const verify::Diagnostic& d) {
                       return d.severity == verify::Severity::kError &&
                              d.check.starts_with("translate.");
                     });
}

TEST(PublishGate, ParanoidModeInstallsTranslationValidator) {
  // Paranoid mode's one gate runs the translation validator on the
  // candidate plan before the fence, and the plan it passed is the one
  // published.
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  ASSERT_TRUE(add_cms(ctl, "hh").ok);
  const auto published = dp.current_plan();
  ASSERT_NE(published, nullptr);
  EXPECT_TRUE(ctl.last_verify_errors().empty()) << ctl.last_verify_errors();
  const auto verdict = verify::verify_deployment(ctl, nullptr, published.get());
  EXPECT_FALSE(verdict.has_errors()) << verdict.format();
  EXPECT_FALSE(has_plan_errors(verdict));
  // With paranoid mode off nothing is gated; publishes still succeed.
  ctl.set_paranoid(false);
  ASSERT_TRUE(add_cms(ctl, "hh2", TaskFilter::src(0x0A00'0000u, 8)).ok);
  EXPECT_EQ(dp.plan_generation(), published->generation() + 1);
}

TEST(PublishGate, GateReportsTranslateErrorsOfTheCandidatePlan) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(add_cms(ctl, "hh").ok);
  const auto catalogue = verify::plan_mutation_catalogue();
  for (const char* name :
       {"miscompile-wrong-preshift", "miscompile-swapped-opcode"}) {
    const auto m = std::find_if(catalogue.begin(), catalogue.end(),
                                [&](const auto& c) { return c.name == name; });
    ASSERT_NE(m, catalogue.end()) << name;
    // A candidate nothing runs yet: the gate's plan before the fence.
    const auto candidate =
        std::const_pointer_cast<exec::ExecPlan>(dp.compile_plan({}));
    EXPECT_FALSE(verify::verify_deployment(ctl, nullptr, candidate.get()).has_errors())
        << name;
    m->apply(*candidate);
    exec::PlanMutator::rebuild_hot(*candidate);
    const auto verdict = verify::verify_deployment(ctl, nullptr, candidate.get());
    EXPECT_TRUE(has_plan_errors(verdict)) << name;
    const std::string errors = verdict.format(verify::Severity::kError);
    EXPECT_NE(errors.find(m->expected_check), std::string::npos)
        << name << ": " << errors;
  }
}

}  // namespace
}  // namespace flymon
