// Translation validation for compiled ExecPlans (src/verify/translate):
// symbolic bit-vector domain, lockstep entry checks, merge-soundness
// prover, the seeded-miscompile self-test, and the paranoid publish gate.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "control/controller.hpp"
#include "core/flymon_dataplane.hpp"
#include "exec/exec_plan.hpp"
#include "exec/worker_pool.hpp"
#include "packet/trace_gen.hpp"
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
  EXPECT_TRUE(s.bit(8).is_constant());
  // Shifting by the full word width yields constant zero.
  EXPECT_EQ(w >> 32, SymWord::constant(0));
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
  ASSERT_GE(plan->num_hash_slots(), 2u);
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
  ASSERT_GT(dp.republish_plan(), 0u);
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

// ---- publish-time gate ----

TEST(PublishGate, VetoDropsPlanAndSurfacesDiagnostics) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  dp.set_plan_validator([](const FlyMonDataPlane&, const exec::ExecPlan&) {
    return std::string("synthetic veto");
  });
  const auto r = add_cms(ctl, "hh");
  EXPECT_TRUE(r.ok);  // the deployment stands — a miscompile is not its fault
  // ...but nothing was published: interpreted execution serves traffic.
  EXPECT_EQ(dp.plan_generation(), 0u);
  EXPECT_EQ(dp.current_plan(), nullptr);
  EXPECT_EQ(dp.last_publish_veto(), "synthetic veto");
  EXPECT_EQ(ctl.last_verify_errors(), "synthetic veto");
  // Clearing the validator lets the next publish through.
  dp.set_plan_validator({});
  EXPECT_GT(dp.republish_plan(), 0u);
  EXPECT_NE(dp.current_plan(), nullptr);
  EXPECT_TRUE(dp.last_publish_veto().empty());
}

// The veto path interacts with the worker-pool fence: a vetoed republish
// must fold outstanding parallel shard deltas under the plan they were
// produced under before that plan goes away, so interpreted-path readouts
// after the veto see every packet.
TEST(PublishGate, VetoWithParallelPoolFoldsOutstandingDeltasFirst) {
  FlyMonDataPlane dp_seq(9), dp_par(9);
  control::Controller ctl_seq(dp_seq), ctl_par(dp_par);
  const auto rs = add_cms(ctl_seq, "hh");
  const auto rp = add_cms(ctl_par, "hh");
  ASSERT_TRUE(rs.ok && rp.ok);
  dp_par.enable_parallel(2);

  TraceConfig tcfg;
  tcfg.num_flows = 64;
  tcfg.num_packets = 4096;
  tcfg.seed = 11;
  const std::vector<Packet> trace = TraceGenerator::generate(tcfg);
  dp_seq.process_batch(trace);
  dp_par.process_batch(trace);
  // dp_par's shards are dirty: nothing has merged them yet.

  dp_par.set_plan_validator([](const FlyMonDataPlane&, const exec::ExecPlan&) {
    return std::string("synthetic veto");
  });
  EXPECT_EQ(dp_par.republish_plan(), 0u);
  EXPECT_EQ(dp_par.current_plan(), nullptr);
  EXPECT_EQ(dp_par.last_publish_veto(), "synthetic veto");
  EXPECT_GE(dp_par.parallel_stats().merges, 1u);  // the fence folded them

  // Readouts on the interpreted path agree with the sequential world
  // exactly — the deltas survived the vetoed publish.
  for (std::size_t i = 0; i < trace.size(); i += 257) {
    EXPECT_EQ(ctl_seq.query_value(rs.task_id, trace[i]),
              ctl_par.query_value(rp.task_id, trace[i]));
  }

  dp_par.set_plan_validator({});
  EXPECT_GT(dp_par.republish_plan(), 0u);
  EXPECT_TRUE(dp_par.last_publish_veto().empty());
}

TEST(PublishGate, ParanoidModeInstallsTranslationValidator) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  // A correct compile passes the real translation validator and publishes.
  ASSERT_TRUE(add_cms(ctl, "hh").ok);
  EXPECT_GT(dp.plan_generation(), 0u);
  EXPECT_TRUE(dp.last_publish_veto().empty());
  EXPECT_TRUE(ctl.last_verify_errors().empty());
  // Toggling paranoid off clears the gate; publishes still succeed.
  ctl.set_paranoid(false);
  ASSERT_TRUE(add_cms(ctl, "hh2", TaskFilter::src(0x0A00'0000u, 8)).ok);
  EXPECT_GT(dp.plan_generation(), 1u);
}

}  // namespace
}  // namespace flymon
