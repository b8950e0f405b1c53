// Tests for the compiled ExecPlan hot path:
//   - golden equivalence: the interpreted per-packet path, the compiled
//     per-packet path and the compiled batched path must leave byte-identical
//     register state and identical telemetry counts for the same trace;
//   - compiled tracing: traced packets run the compiled (and sharded) path
//     and record the same PHV transformations as the interpreted referee;
//   - plan generations across controller reconfiguration;
//   - RCU snapshot swap under a concurrent reconfiguration thread (the
//     interesting assertions fire under TSan: no data race, no torn plan).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "exec/exec_plan.hpp"
#include "exec/worker_pool.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_ring.hpp"
#include "verify/planner.hpp"
#include "verify/translate/translate.hpp"

namespace flymon {
namespace {

/// Flip the global telemetry switch for one test, restoring on exit.
struct EnabledGuard {
  explicit EnabledGuard(bool on) : prev_(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~EnabledGuard() { telemetry::set_enabled(prev_); }
  bool prev_;
};

/// A pipeline + controller bound to a private registry, so counter
/// comparisons between worlds are not polluted by other tests.
struct World {
  telemetry::Registry registry;
  FlyMonDataPlane dp{9};
  control::Controller ctl{dp};

  World() {
    dp.bind_telemetry(registry);
    ctl.bind_telemetry(registry);
  }
};

/// Recompile the deployment with the published plan's ownership labels
/// and publish it; returns its generation.
std::uint64_t republish(FlyMonDataPlane& dp) {
  return dp.publish_plan(dp.compile_plan(dp.current_plan()->ownership()));
}

std::vector<Packet> make_trace(std::size_t flows, std::size_t pkts,
                               std::uint64_t seed = 7) {
  TraceConfig cfg;
  cfg.num_flows = flows;
  cfg.num_packets = pkts;
  cfg.zipf_alpha = 1.05;
  cfg.seed = seed;
  return TraceGenerator::generate(cfg);
}

/// The golden mix: every stateful op, both gated preparations, composite
/// chains, a sampled task and a filtered task.  Deployed in the same order
/// everywhere so public task ids (and thus sampling seeds) line up.
void deploy_mix(control::Controller& ctl) {
  {
    TaskSpec s;
    s.name = "cms";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 8192;
    s.rows = 3;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "cms: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "bloom";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kExistence;
    s.memory_buckets = 8192;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "bloom: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "beaucoup";
    s.key = FlowKeySpec::dst_ip();
    s.attribute = AttributeKind::kDistinct;
    s.param = ParamSpec::compressed(FlowKeySpec::src_ip());
    s.algorithm = Algorithm::kBeauCoup;
    s.report_threshold = 100;
    s.memory_buckets = 8192;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "beaucoup: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "maxq";
    s.key = FlowKeySpec::ip_pair();
    s.attribute = AttributeKind::kMax;
    s.param = ParamSpec::metadata(MetaField::kQueueLen);
    s.memory_buckets = 4096;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "maxq: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "maxgap";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kMax;
    s.algorithm = Algorithm::kMaxInterarrival;
    s.memory_buckets = 16384;
    s.rows = 1;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "maxgap: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "braids";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.algorithm = Algorithm::kCounterBraids;
    s.memory_buckets = 8192;
    s.rows = 1;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "braids: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "sampled";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 4096;
    s.rows = 1;
    s.sample_probability = 0.5;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "sampled: " << r.error;
  }
  {
    TaskSpec s;
    s.name = "filtered";
    s.filter = TaskFilter::src(0x0A000000, 8);
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 4096;
    s.rows = 1;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << "filtered: " << r.error;
  }
}

void deploy_cms(control::Controller& ctl, const char* name = "cms") {
  TaskSpec s;
  s.name = name;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
}

void expect_identical_registers(const FlyMonDataPlane& a,
                                const FlyMonDataPlane& b, const char* what) {
  ASSERT_EQ(a.num_groups(), b.num_groups());
  for (unsigned g = 0; g < a.num_groups(); ++g) {
    ASSERT_EQ(a.group(g).num_cmus(), b.group(g).num_cmus());
    for (unsigned c = 0; c < a.group(g).num_cmus(); ++c) {
      const auto& ra = a.group(g).cmu(c).reg();
      const auto& rb = b.group(g).cmu(c).reg();
      ASSERT_EQ(ra.size(), rb.size());
      EXPECT_EQ(ra.read_range(0, ra.size()), rb.read_range(0, rb.size()))
          << what << ": registers differ at group " << g << " cmu " << c;
    }
  }
}

/// Compare every hot-path counter series by direct registry lookup (lookups
/// auto-register a zero-valued series, so eager registration on the
/// compiled path vs lazy on the interpreted path cannot skew the result).
void expect_identical_counters(World& a, World& b, const char* what) {
  const auto eq = [&](const std::string& name,
                      const telemetry::Labels& labels) {
    EXPECT_EQ(a.registry.counter(name, labels).value(),
              b.registry.counter(name, labels).value())
        << what << ": counter " << name << " differs";
  };
  eq("flymon_packets_total", {});
  for (unsigned g = 0; g < a.dp.num_groups(); ++g) {
    const telemetry::Labels gl = {{"group", std::to_string(g)}};
    eq("flymon_group_packets_total", gl);
    eq("flymon_hash_invocations_total", gl);
    for (unsigned c = 0; c < a.dp.group(g).num_cmus(); ++c) {
      const telemetry::Labels cl = {{"group", std::to_string(g)},
                                    {"cmu", std::to_string(c)}};
      eq("flymon_cmu_updates_total", cl);
      eq("flymon_cmu_sampled_out_total", cl);
      eq("flymon_cmu_prep_aborts_total", cl);
      for (const dataplane::StatefulOp op :
           {dataplane::StatefulOp::kNop, dataplane::StatefulOp::kCondAdd,
            dataplane::StatefulOp::kMax, dataplane::StatefulOp::kAndOr,
            dataplane::StatefulOp::kXor}) {
        eq("flymon_salu_op_total",
           {{"group", std::to_string(g)},
            {"cmu", std::to_string(c)},
            {"op", dataplane::to_string(op)}});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden equivalence: interpreted vs compiled vs compiled-batched.
// ---------------------------------------------------------------------------

TEST(ExecGolden, CompiledAndBatchedMatchInterpretedByteForByte) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(2000, 40'000);

  World wi, wc, wb;
  ASSERT_NO_FATAL_FAILURE(deploy_mix(wi.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_mix(wc.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_mix(wb.ctl));

  // World A: the interpreted referee, per packet.
  for (const Packet& p : trace) wi.dp.interpret_batch({&p, 1});

  // World B: compiled path, one packet at a time.
  ASSERT_GT(wc.dp.plan_generation(), 0u);
  for (const Packet& p : trace) wc.dp.process(p);

  // World C: compiled path, whole trace as one batch.
  const std::uint64_t gen = wb.dp.process_batch(trace);
  EXPECT_GT(gen, 0u);
  EXPECT_EQ(gen, wb.dp.plan_generation());

  EXPECT_EQ(wi.dp.packets_processed(), trace.size());
  EXPECT_EQ(wc.dp.packets_processed(), trace.size());
  EXPECT_EQ(wb.dp.packets_processed(), trace.size());

  expect_identical_registers(wi.dp, wc.dp, "interpreted vs compiled");
  expect_identical_registers(wi.dp, wb.dp, "interpreted vs batched");
  expect_identical_counters(wi, wc, "interpreted vs compiled");
  expect_identical_counters(wi, wb, "interpreted vs batched");
}

// ---------------------------------------------------------------------------
// Compiled tracing: traced packets run the same plan on the same path as
// untraced ones, and every path's trace records are byte-equal to the
// interpreted referee's.
// ---------------------------------------------------------------------------

void deploy_chains(control::Controller& ctl) {
  TaskSpec sumax;
  sumax.name = "sumax";
  sumax.key = FlowKeySpec::five_tuple();
  sumax.attribute = AttributeKind::kFrequency;
  sumax.algorithm = Algorithm::kSuMaxSum;
  sumax.memory_buckets = 4096;
  sumax.rows = 3;
  const auto a = ctl.add_task(sumax);
  ASSERT_TRUE(a.ok) << "sumax: " << a.error;
  TaskSpec gap;
  gap.name = "maxgap";
  gap.key = FlowKeySpec::five_tuple();
  gap.attribute = AttributeKind::kMax;
  gap.algorithm = Algorithm::kMaxInterarrival;
  gap.memory_buckets = 8192;
  gap.rows = 1;
  const auto b = ctl.add_task(gap);
  ASSERT_TRUE(b.ok) << "maxgap: " << b.error;
}

void deploy_coupons(control::Controller& ctl) {
  TaskSpec s;
  s.name = "beaucoup";
  s.key = FlowKeySpec::dst_ip();
  s.attribute = AttributeKind::kDistinct;
  s.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  s.algorithm = Algorithm::kBeauCoup;
  s.report_threshold = 1000;  // coupon draw total < 1: most packets abort
  s.memory_buckets = 8192;
  s.rows = 2;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << "beaucoup: " << r.error;
}

void deploy_sampled(control::Controller& ctl) {
  TaskSpec s;
  s.name = "sampled";
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  s.rows = 2;
  s.sample_probability = 0.5;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << "sampled: " << r.error;
}

/// A CMS plus a configured hash unit no entry references: the plan hashes
/// it for traced packets only, so their records still list its key.
void deploy_unreferenced_unit(control::Controller& ctl) {
  ASSERT_NO_FATAL_FAILURE(deploy_cms(ctl));
  CompressionStage& comp = ctl.dataplane().group(0).compression();
  const auto spare = comp.free_unit();
  ASSERT_TRUE(spare.has_value());
  comp.configure(*spare, FlowKeySpec::dst_ip());
  ASSERT_GT(republish(ctl.dataplane()), 0u);
}

void expect_identical_records(const std::vector<telemetry::TraceRecord>& ra,
                              const std::vector<telemetry::TraceRecord>& rb,
                              const char* what) {
  ASSERT_EQ(ra.size(), rb.size()) << what;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << what << ": record " << i);
    EXPECT_EQ(ra[i].seq, rb[i].seq);
    EXPECT_EQ(ra[i].ts_ns, rb[i].ts_ns);
    EXPECT_TRUE(ra[i].ft == rb[i].ft);
    ASSERT_EQ(ra[i].keys.size(), rb[i].keys.size());
    for (std::size_t g = 0; g < ra[i].keys.size(); ++g) {
      EXPECT_EQ(ra[i].keys[g].group, rb[i].keys[g].group);
      EXPECT_EQ(ra[i].keys[g].unit_keys, rb[i].keys[g].unit_keys);
    }
    ASSERT_EQ(ra[i].steps.size(), rb[i].steps.size());
    for (std::size_t j = 0; j < ra[i].steps.size(); ++j) {
      const auto& sa = ra[i].steps[j];
      const auto& sb = rb[i].steps[j];
      EXPECT_EQ(sa.group, sb.group);
      EXPECT_EQ(sa.cmu, sb.cmu);
      EXPECT_EQ(sa.task_id, sb.task_id);
      EXPECT_EQ(sa.selected_key, sb.selected_key);
      EXPECT_EQ(sa.sliced_key, sb.sliced_key);
      EXPECT_EQ(sa.address, sb.address);
      EXPECT_STREQ(sa.op, sb.op);
      EXPECT_EQ(sa.p1, sb.p1);
      EXPECT_EQ(sa.p2, sb.p2);
      EXPECT_EQ(sa.result, sb.result);
      EXPECT_EQ(sa.aborted, sb.aborted);
    }
  }
}

TEST(ExecTracer, RecordsMatchInterpretedRefereeOnEveryPath) {
  EnabledGuard on(true);
  struct Case {
    const char* name;
    void (*deploy)(control::Controller&);
    bool mergeable;
  };
  const Case cases[] = {
      {"chains", deploy_chains, false},
      {"coupons", deploy_coupons, true},
      {"sampled", deploy_sampled, true},
      {"unreferenced-unit", deploy_unreferenced_unit, true},
  };
  const std::vector<Packet> trace = make_trace(200, 3000, 3);
  constexpr std::uint64_t kEvery = 5;

  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.name);
    // The interpreted referee, one packet at a time.  The translation
    // validator (lane audit included) must accept the world's plan.
    World wi;
    ASSERT_NO_FATAL_FAILURE(tc.deploy(wi.ctl));
    const auto plan = wi.dp.current_plan();
    ASSERT_NE(plan, nullptr);
    verify::VerifyReport report;
    verify::translate::validate_translation(wi.dp, *plan, report);
    EXPECT_FALSE(report.has_errors()) << report.format();
    EXPECT_FALSE(report.has_check("translate.lane")) << report.format();
    telemetry::PacketTracer ti(1024, kEvery);
    for (const Packet& p : trace) wi.dp.interpret_batch({&p, 1}, &ti);
    const auto referee = ti.records();
    ASSERT_EQ(referee.size(), (trace.size() + kEvery - 1) / kEvery);

    // Each case exercises what it is in the table for.
    const std::string name = tc.name;
    if (name == "coupons") {
      bool saw_abort = false;
      for (const auto& rec : referee) {
        for (const auto& step : rec.steps) saw_abort |= step.aborted;
      }
      EXPECT_TRUE(saw_abort);
    }
    if (name == "unreferenced-unit") {
      const auto& keys = referee.front().keys.front().unit_keys;
      EXPECT_GE(std::count_if(keys.begin(), keys.end(),
                              [](std::uint32_t k) { return k != 0; }),
                2);
    }

    const auto check = [&](const char* what, auto run) {
      World w;
      ASSERT_NO_FATAL_FAILURE(tc.deploy(w.ctl));
      ASSERT_NE(w.dp.current_plan(), nullptr);
      ASSERT_EQ(w.dp.current_plan()->shard_mergeable(), tc.mergeable);
      telemetry::PacketTracer tracer(1024, kEvery);
      w.dp.set_tracer(&tracer);
      run(w);
      w.dp.merge_shards();
      EXPECT_EQ(tracer.packets_seen(), trace.size()) << what;
      expect_identical_records(referee, tracer.records(), what);
      expect_identical_registers(wi.dp, w.dp, what);
    };
    check("compiled per-packet", [&](World& w) {
      for (const Packet& p : trace) ASSERT_GT(w.dp.process_batch({&p, 1}), 0u);
    });
    check("batched", [&](World& w) {
      ASSERT_GT(w.dp.process_batch(trace), 0u);
    });
    if (!tc.mergeable) continue;
    for (const unsigned workers : {2u, 4u}) {
      const std::string what = "sharded@" + std::to_string(workers);
      check(what.c_str(), [&](World& w) {
        w.dp.enable_parallel(workers);
        ASSERT_GT(w.dp.process_batch(trace), 0u);
        EXPECT_EQ(w.dp.parallel_stats().parallel_batches, 1u);
      });
    }
  }
}

// ---------------------------------------------------------------------------
// Plan lifecycle: an empty generation-0 plan serves from construction, and
// generations advance with every reconfiguration.
// ---------------------------------------------------------------------------

TEST(ExecPlanApi, GenerationAdvancesAcrossReconfiguration) {
  World w;
  EXPECT_EQ(w.dp.plan_generation(), 0u);
  ASSERT_NE(w.dp.current_plan(), nullptr);
  EXPECT_EQ(w.dp.current_plan()->generation(), 0u);
  EXPECT_EQ(w.dp.current_plan()->num_entries(), 0u);

  ASSERT_NO_FATAL_FAILURE(deploy_cms(w.ctl, "first"));
  const std::uint64_t g1 = w.dp.plan_generation();
  ASSERT_GT(g1, 0u);

  const std::shared_ptr<const exec::ExecPlan> plan = w.dp.current_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->generation(), g1);
  EXPECT_GT(plan->num_entries(), 0u);
  ASSERT_FALSE(plan->ownership().empty());
  bool named = false;
  for (const std::string& line : plan->signature()) {
    if (line.find("\"first\"") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << "signature lines carry the owning task name";

  TaskSpec s;
  s.name = "second";
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 2048;
  s.rows = 1;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const std::uint64_t g2 = w.dp.plan_generation();
  EXPECT_GT(g2, g1);

  const auto rr = w.ctl.resize_task(r.task_id, 4096);
  ASSERT_TRUE(rr.ok) << rr.error;
  const std::uint64_t g3 = w.dp.plan_generation();
  EXPECT_GT(g3, g2);

  ASSERT_TRUE(w.ctl.remove_task(rr.task_id));
  const std::uint64_t g4 = w.dp.plan_generation();
  EXPECT_GT(g4, g3);

  // The old snapshot is immutable: its generation is untouched by later
  // publishes, readers holding it keep a consistent view.
  EXPECT_EQ(plan->generation(), g1);

  // The referee runs beside the plan without touching it.
  const std::vector<Packet> trace = make_trace(10, 32, 5);
  w.dp.interpret_batch(trace);
  EXPECT_EQ(w.dp.plan_generation(), g4);
  EXPECT_EQ(w.dp.packets_processed(), trace.size());

  EXPECT_GT(republish(w.dp), g4);
}

TEST(ExecPlanApi, ProcessBatchMatchesPerPacketProcessing) {
  World w;
  ASSERT_NO_FATAL_FAILURE(deploy_cms(w.ctl));
  const std::vector<Packet> trace = make_trace(100, 1000, 11);
  // process_batch returns the generation the whole trace executed under.
  EXPECT_EQ(w.dp.process_batch(trace), w.dp.plan_generation());
  EXPECT_GT(w.dp.plan_generation(), 0u);
  EXPECT_EQ(w.dp.packets_processed(), trace.size());
  // Batched and per-packet runs agree (same world, doubled state).
  World w2;
  ASSERT_NO_FATAL_FAILURE(deploy_cms(w2.ctl));
  for (const Packet& p : trace) w2.dp.process(p);
  EXPECT_EQ(w2.dp.packets_processed(), trace.size());
  expect_identical_registers(w.dp, w2.dp, "process_batch vs per-packet");
}

// ---------------------------------------------------------------------------
// RCU snapshot swap: a processing thread hammers process_batch while the
// controller thread reconfigures.  Under TSan this is the no-data-race /
// no-torn-read regression test; everywhere it checks generations observed
// by the packet path are monotone (read-read coherence on the plan cell).
// ---------------------------------------------------------------------------

TEST(ExecRcu, PlanSwapUnderConcurrentReconfigIsRaceFree) {
  World w;
  ASSERT_NO_FATAL_FAILURE(deploy_cms(w.ctl, "base"));
  const std::vector<Packet> trace = make_trace(256, 2048, 9);

  std::atomic<bool> stop{false};
  std::uint64_t last_gen = 0;
  std::uint64_t batches = 0;
  bool monotone = true;
  std::thread proc([&] {
    while (true) {
      const std::uint64_t gen = w.dp.process_batch(trace);
      if (gen == 0 || gen < last_gen) {
        monotone = false;
        break;
      }
      last_gen = gen;
      ++batches;
      if (stop.load(std::memory_order_acquire) && batches >= 8) break;
    }
  });

  constexpr int kChurn = 25;
  for (int i = 0; i < kChurn; ++i) {
    TaskSpec s;
    s.name = "churn";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 2048;
    s.rows = 1;
    const auto r = w.ctl.add_task(s);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(w.ctl.remove_task(r.task_id));
  }
  stop.store(true, std::memory_order_release);
  proc.join();

  EXPECT_TRUE(monotone) << "packet path observed a zero or decreasing "
                           "plan generation";
  EXPECT_GE(batches, 8u);
  // Deploy + kChurn * (add publish + remove publish) at minimum.
  EXPECT_GE(w.dp.plan_generation(), 1u + 2u * kChurn);
  EXPECT_EQ(w.dp.packets_processed(), batches * trace.size());
}

// The first tasks land while traffic runs on an unpooled data plane.  The
// packet thread only ever runs published plans, so it never reads the Cmu
// entries and hash masks the controller stages (ThreadSanitizer checks
// this).  Batches that start after the adds return match the referee.
TEST(ExecRcu, FirstTasksAddedUnderTrafficAreRaceFree) {
  World w, ref;
  const std::vector<Packet> trace = make_trace(256, 2048, 21);
  constexpr int kAfter = 4;

  std::atomic<bool> running{false}, added{false};
  std::thread proc([&] {
    for (int after = 0; after < kAfter;) {
      if (added.load(std::memory_order_acquire)) {
        // Every batch from here on runs under the final plan.
        if (after == 0) w.dp.clear_registers();
        ++after;
      }
      w.dp.process_batch(trace);
      running.store(true, std::memory_order_release);
    }
  });
  while (!running.load(std::memory_order_acquire)) std::this_thread::yield();
  EXPECT_NO_FATAL_FAILURE(deploy_mix(w.ctl));
  added.store(true, std::memory_order_release);
  proc.join();

  ASSERT_NO_FATAL_FAILURE(deploy_mix(ref.ctl));
  for (int i = 0; i < kAfter; ++i) ref.dp.interpret_batch(trace);
  expect_identical_registers(ref.dp, w.dp, "batches after the first adds");
}

// Dry runs while a pool runs traffic: plan() stages, compiles and gates on
// the live controller but never publishes, writes a cell or merges a
// shard, so executors only ever see the published plan (ThreadSanitizer
// checks this) and the registers end exactly as a referee's that ran the
// same batches without any dry run.
TEST(ExecRcu, DryRunPlansUnderPooledTrafficAreRaceFree) {
  World w, ref;
  ASSERT_NO_FATAL_FAILURE(deploy_mix(w.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_mix(ref.ctl));
  w.dp.enable_parallel(2);
  w.ctl.set_paranoid(true);
  const std::vector<Packet> trace = make_trace(256, 2048, 23);
  const std::uint64_t gen = w.dp.plan_generation();
  const std::uint32_t victim = w.ctl.task_ids().front();
  TaskSpec replacement = w.ctl.task(victim)->spec;
  replacement.name = "replacement";
  constexpr int kBatches = 6;

  std::atomic<bool> running{false}, done{false};
  std::thread proc([&] {
    for (int i = 0; i < kBatches; ++i) {
      w.dp.process_batch(trace);
      running.store(true, std::memory_order_release);
    }
    done.store(true, std::memory_order_release);
  });
  while (!running.load(std::memory_order_acquire)) std::this_thread::yield();
  int plans = 0;
  do {
    const auto res = w.ctl.plan({control::PlanOp::remove(victim),
                                 control::PlanOp::add(replacement)});
    EXPECT_TRUE(res.ok) << res.format();
    ++plans;
  } while (!done.load(std::memory_order_acquire));
  proc.join();

  EXPECT_GE(plans, 1);
  EXPECT_EQ(w.dp.plan_generation(), gen);
  w.dp.merge_shards();
  for (int i = 0; i < kBatches; ++i) ref.dp.interpret_batch(trace);
  expect_identical_registers(ref.dp, w.dp, "batches under dry runs");
}

// ---------------------------------------------------------------------------
// Concurrent publishers: compile_plan + publish_plan from several threads
// must keep the published generation monotone (publish_mu_ numbers the
// compiles; PlanCell::store_if_newer drops a plan published after a newer
// one) and land on exactly initial + publishers * publishes.
// ---------------------------------------------------------------------------

TEST(ExecRcu, ConcurrentPublishersKeepGenerationsMonotone) {
  World w;
  ASSERT_NO_FATAL_FAILURE(deploy_cms(w.ctl, "base"));
  const std::uint64_t start = w.dp.plan_generation();
  ASSERT_GT(start, 0u);

  constexpr unsigned kPublishers = 4;
  constexpr unsigned kPublishes = 50;
  std::atomic<bool> stop{false};
  std::atomic<bool> monotone{true};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const std::uint64_t gen = w.dp.plan_generation();
      if (gen < last) {
        monotone.store(false, std::memory_order_relaxed);
        break;
      }
      last = gen;
    }
  });
  std::vector<std::thread> publishers;
  for (unsigned t = 0; t < kPublishers; ++t) {
    publishers.emplace_back([&] {
      for (unsigned i = 0; i < kPublishes; ++i) republish(w.dp);
    });
  }
  for (std::thread& t : publishers) t.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_TRUE(monotone.load()) << "a reader observed a decreasing generation";
  EXPECT_EQ(w.dp.plan_generation(), start + kPublishers * kPublishes);
}

// ---------------------------------------------------------------------------
// Dry-run plan diff: a staged batch reports exactly which compiled entries
// it would add/remove, without touching the live pipeline.
// ---------------------------------------------------------------------------

TEST(ExecPlanDiff, StagedBatchReportsCompiledEntryChanges) {
  World w;
  ASSERT_NO_FATAL_FAILURE(deploy_cms(w.ctl, "keep"));
  TaskSpec s;
  s.name = "drop";
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 2048;
  s.rows = 2;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const std::uint64_t live_gen = w.dp.plan_generation();

  const auto res = w.ctl.plan({control::PlanOp::remove(r.task_id)});
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.compiled_before.size(), w.dp.current_plan()->num_entries());
  EXPECT_LT(res.compiled_after.size(), res.compiled_before.size());

  const std::string diff =
      verify::format_plan_diff(res.compiled_before, res.compiled_after);
  EXPECT_NE(diff.find("\"drop\""), std::string::npos) << diff;
  EXPECT_EQ(diff.find("+ "), std::string::npos) << "removal adds nothing";

  // Dry run: the live plan was not republished.
  EXPECT_EQ(w.dp.plan_generation(), live_gen);

  // An empty batch diffs to no changes.
  const auto noop = w.ctl.plan({});
  ASSERT_TRUE(noop.ok) << noop.error;
  const std::string nodiff =
      verify::format_plan_diff(noop.compiled_before, noop.compiled_after);
  EXPECT_NE(nodiff.find("no compiled-entry changes"), std::string::npos)
      << nodiff;
}

}  // namespace
}  // namespace flymon
