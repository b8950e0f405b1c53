// Tests for the multi-core sharded execution engine:
//   - golden equivalence: a 4-worker parallel run over a mergeable mix must
//     leave byte-identical registers, identical telemetry counts and
//     identical query results vs the sequential compiled path;
//   - dispatch: process_batch on a pooled data plane shards mergeable
//     plans; plans with register-derived chain outputs or capped Cond-ADDs
//     are flagged and run sequentially, as does a batch with no plan
//     (still exact, recorded in the stats);
//   - merge-on-demand: controller readouts and telemetry collection fold
//     outstanding shard deltas without an explicit merge call;
//   - epoch integration: EpochRunner sees post-merge registers at readout;
//   - tracing: an attached tracer keeps batches parallel, and toggling it
//     while a drain runs is race-free (TSan);
//   - a reconfiguration the paranoid gate rejects leaves the pool running
//     on the old plan;
//   - reconfigure-while-processing churn (publish fencing vs in-flight
//     batches and drains: TSan for races, a sequential referee for lost
//     updates);
//   - scoped publishes: a trafficked resize and split keep the replicas'
//     other deltas exactly, and lock-free queries on another thread see
//     every batch that happens before them.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "control/controller.hpp"
#include "control/crossstack.hpp"
#include "control/epoch.hpp"
#include "dataplane/tofino_model.hpp"
#include "exec/exec_plan.hpp"
#include "exec/worker_pool.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_ring.hpp"
#include "verify/mutations.hpp"
#include "verify/planner.hpp"

namespace flymon {
namespace {

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

std::vector<Packet> make_trace(std::size_t flows, std::size_t pkts,
                               std::uint64_t seed = 7) {
  TraceConfig cfg;
  cfg.num_flows = flows;
  cfg.num_packets = pkts;
  cfg.zipf_alpha = 1.05;
  cfg.seed = seed;
  return TraceGenerator::generate(cfg);
}

struct MixIds {
  std::uint32_t cms = 0;
  std::uint32_t bloom = 0;
  std::uint32_t beaucoup = 0;
  std::uint32_t maxq = 0;
};

/// The mergeable mix: every exact-merge op kind (Cond-ADD sum via CMS, OR
/// via Bloom and BeauCoup coupons, MAX via queue depth), plus a sampled and
/// a filtered task.  Deliberately no chained/composite algorithms — those
/// are the fallback test's job.
MixIds deploy_mergeable_mix(control::Controller& ctl) {
  MixIds ids;
  {
    TaskSpec s;
    s.name = "cms";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 8192;
    s.rows = 3;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "cms: " << r.error;
    ids.cms = r.task_id;
  }
  {
    TaskSpec s;
    s.name = "bloom";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kExistence;
    s.memory_buckets = 8192;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "bloom: " << r.error;
    ids.bloom = r.task_id;
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
    EXPECT_TRUE(r.ok) << "beaucoup: " << r.error;
    ids.beaucoup = r.task_id;
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
    EXPECT_TRUE(r.ok) << "maxq: " << r.error;
    ids.maxq = r.task_id;
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
    EXPECT_TRUE(r.ok) << "sampled: " << r.error;
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
    EXPECT_TRUE(r.ok) << "filtered: " << r.error;
  }
  return ids;
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

::testing::AssertionResult all_banks_zero(const FlyMonDataPlane& dp) {
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      const auto& reg = dp.group(g).cmu(c).reg();
      const std::vector<std::uint32_t> cells = reg.read_range(0, reg.size());
      for (std::uint32_t i = 0; i < cells.size(); ++i) {
        if (cells[i] != 0) {
          return ::testing::AssertionFailure()
                 << "group " << g << " cmu " << c << " cell " << i << " holds "
                 << cells[i];
        }
      }
    }
  }
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Golden equivalence: 4 workers vs the sequential compiled path.
// ---------------------------------------------------------------------------

TEST(ShardedGolden, FourWorkersMatchSequentialByteForByte) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(2000, 40'000);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);

  ASSERT_NE(ws.dp.current_plan(), nullptr);
  ASSERT_TRUE(ws.dp.current_plan()->shard_mergeable())
      << "mergeable mix unexpectedly blocked: "
      << ws.dp.current_plan()->merge_blockers().front();
  ASSERT_FALSE(ws.dp.current_plan()->merge_regions().empty());

  const std::uint64_t seq_gen = ws.dp.process_batch(trace);
  EXPECT_GT(seq_gen, 0u);

  wp.dp.enable_parallel(4);
  EXPECT_EQ(wp.dp.parallel_workers(), 4u);
  const std::uint64_t par_gen = wp.dp.process_batch(trace);
  EXPECT_EQ(par_gen, wp.dp.plan_generation());
  wp.dp.merge_shards();

  const exec::ParallelStats stats = wp.dp.parallel_stats();
  EXPECT_EQ(stats.parallel_batches, 1u);
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_GE(stats.chunks, trace.size() / exec::kBatchChunk);
  EXPECT_GE(stats.merges, 1u);

  EXPECT_EQ(ws.dp.packets_processed(), trace.size());
  EXPECT_EQ(wp.dp.packets_processed(), trace.size());
  expect_identical_registers(ws.dp, wp.dp, "sequential vs 4-worker");
  expect_identical_counters(ws, wp, "sequential vs 4-worker");

  // Query results are identical too (registers are, so this is a sanity
  // check that the readout paths behave with a pool attached).
  for (std::size_t i = 0; i < trace.size(); i += 977) {
    const Packet& probe = trace[i];
    EXPECT_EQ(ws.ctl.query_value(seq_ids.cms, probe),
              wp.ctl.query_value(par_ids.cms, probe));
    EXPECT_EQ(ws.ctl.query_existence(seq_ids.bloom, probe),
              wp.ctl.query_existence(par_ids.bloom, probe));
    EXPECT_EQ(ws.ctl.query_value(seq_ids.maxq, probe),
              wp.ctl.query_value(par_ids.maxq, probe));
    EXPECT_DOUBLE_EQ(ws.ctl.estimate_distinct(seq_ids.beaucoup, probe),
                     wp.ctl.estimate_distinct(par_ids.beaucoup, probe));
  }

  // Repeated merges are idempotent: no shard is dirty, registers hold.
  wp.dp.merge_shards();
  expect_identical_registers(ws.dp, wp.dp, "merge idempotence");
}

// The same equivalence across several batches with reconfiguration fences
// in between (resize republishes the plan; the fence merges first).
TEST(ShardedGolden, EquivalenceSurvivesReconfigurationFences) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(500, 12'000, 21);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(3);

  const auto third = trace.size() / 3;
  ws.dp.process_batch(std::span<const Packet>(trace).subspan(0, third));
  wp.dp.process_batch(std::span<const Packet>(trace).subspan(0, third));

  // Fence mid-stream: both worlds resize the same task identically.
  ASSERT_TRUE(ws.ctl.resize_task(seq_ids.maxq, 8192).ok);
  ASSERT_TRUE(wp.ctl.resize_task(par_ids.maxq, 8192).ok);

  ws.dp.process_batch(std::span<const Packet>(trace).subspan(third));
  wp.dp.process_batch(std::span<const Packet>(trace).subspan(third));
  wp.dp.merge_shards();

  expect_identical_registers(ws.dp, wp.dp, "across reconfiguration fence");
}

// A paranoid reconfiguration the gate rejects publishes nothing: the old
// plan keeps serving on the pool.  The corruption (an entry removed behind
// the controller's back) hits both worlds' live deployment but not the
// plans they already published, so both keep counting identically.
TEST(ShardedReject, RejectedResizeKeepsThePoolOnTheOldPlan) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(400, 10'000, 33);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(3);
  const auto half = trace.size() / 2;
  ws.dp.process_batch(std::span<const Packet>(trace).subspan(0, half));
  wp.dp.process_batch(std::span<const Packet>(trace).subspan(0, half));
  // wp's shards now hold unmerged deltas produced under the current plan.

  const auto catalogue = verify::mutation_catalogue();
  const auto orphan =
      std::find_if(catalogue.begin(), catalogue.end(),
                   [](const auto& m) { return m.name == "orphaned-placement"; });
  ASSERT_NE(orphan, catalogue.end());
  for (World* w : {&ws, &wp}) {
    auto xplan = control::cross_stack(dataplane::TofinoModel::kNumStages,
                                      w->dp.group(0).config());
    verify::MutableWorld world{w->dp, w->ctl, xplan};
    orphan->apply(world);
    w->ctl.set_paranoid(true);
  }

  const auto published = wp.dp.current_plan();
  const exec::ParallelStats before = wp.dp.parallel_stats();
  EXPECT_FALSE(ws.ctl.resize_task(seq_ids.maxq, 8192).ok);
  EXPECT_FALSE(wp.ctl.resize_task(par_ids.maxq, 8192).ok);
  EXPECT_NE(wp.ctl.last_verify_errors().find("task.placement"),
            std::string::npos)
      << wp.ctl.last_verify_errors();
  EXPECT_EQ(wp.dp.current_plan(), published);

  wp.dp.process_batch(std::span<const Packet>(trace).subspan(half));
  ws.dp.process_batch(std::span<const Packet>(trace).subspan(half));
  const exec::ParallelStats after = wp.dp.parallel_stats();
  EXPECT_EQ(after.parallel_batches, before.parallel_batches + 1);
  EXPECT_EQ(after.fallback_batches, 0u);
  wp.dp.merge_shards();
  EXPECT_EQ(wp.dp.packets_processed(), trace.size());
  expect_identical_registers(ws.dp, wp.dp, "old plan serves after rejection");
}

// ---------------------------------------------------------------------------
// Mergeability analysis + sequential fallback.
// ---------------------------------------------------------------------------

TEST(ShardedFallback, ChainedPlansAreFlaggedAndFallBackSequentially) {
  EnabledGuard on(false);
  World ws, wp;
  const auto deploy_chained = [](control::Controller& ctl) {
    TaskSpec s;
    s.name = "maxgap";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kMax;
    s.algorithm = Algorithm::kMaxInterarrival;
    s.memory_buckets = 16384;
    s.rows = 1;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << r.error;
  };
  ASSERT_NO_FATAL_FAILURE(deploy_chained(ws.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_chained(wp.ctl));

  const auto plan = wp.dp.current_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_FALSE(plan->shard_mergeable());
  ASSERT_FALSE(plan->merge_blockers().empty());
  EXPECT_NE(plan->merge_blockers().front().find("chain"), std::string::npos)
      << plan->merge_blockers().front();

  const std::vector<Packet> trace = make_trace(200, 5000, 13);
  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(4);
  wp.dp.process_batch(trace);
  wp.dp.merge_shards();

  const exec::ParallelStats stats = wp.dp.parallel_stats();
  EXPECT_EQ(stats.parallel_batches, 0u);
  EXPECT_EQ(stats.fallback_batches, 1u);
  expect_identical_registers(ws.dp, wp.dp, "unmergeable fallback");
}

// process_batch is the one entry point: on a pooled data plane the plan it
// loads picks sharded or sequential execution, and the pool counts which.
TEST(ShardedFallback, ProcessBatchOnAPoolDispatchesByPlan) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(300, 6000, 43);

  World ws, wp;
  deploy_mergeable_mix(ws.ctl);
  deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(4);

  // Mergeable plan: the batch runs on the replicas, so the live registers
  // stay untouched until the merge.
  ws.dp.process_batch(trace);
  EXPECT_EQ(wp.dp.process_batch(trace), wp.dp.plan_generation());
  const exec::ParallelStats stats = wp.dp.parallel_stats();
  EXPECT_EQ(stats.parallel_batches, 1u);
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_TRUE(all_banks_zero(wp.dp)) << "a sharded batch wrote live cells";
  wp.dp.merge_shards();
  expect_identical_registers(ws.dp, wp.dp, "sharded dispatch");
  EXPECT_EQ(wp.dp.packets_processed(), trace.size());
}

// A plan with no entries, such as the one a data plane is built with,
// writes no register: on a pool its batches run inline, as no job and no
// fallback, and still count every packet.
TEST(ShardedFallback, EmptyPlanRunsInlineOnAPool) {
  EnabledGuard on(true);
  World w;
  w.dp.enable_parallel(4);
  const std::vector<Packet> trace = make_trace(100, 3000, 47);
  EXPECT_EQ(w.dp.process_batch(trace), 0u);
  const exec::ParallelStats stats = w.dp.parallel_stats();
  EXPECT_EQ(stats.parallel_batches, 0u);
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_EQ(w.dp.packets_processed(), trace.size());
  EXPECT_EQ(w.registry.counter("flymon_group_packets_total", {{"group", "0"}})
                .value(),
            trace.size());
}

TEST(ShardedTracer, TracerAttachedStaysParallel) {
  EnabledGuard on(true);
  World ws, wp;
  deploy_mergeable_mix(ws.ctl);
  deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(2);

  telemetry::PacketTracer tracer(256, 16);
  wp.dp.set_tracer(&tracer);
  const std::vector<Packet> trace = make_trace(50, 2000, 3);
  ws.dp.process_batch(trace);
  wp.dp.process_batch(trace);
  wp.dp.set_tracer(nullptr);
  wp.dp.merge_shards();

  ASSERT_LT(trace.size() / 16, tracer.capacity());
  EXPECT_EQ(tracer.size(), trace.size() / 16);
  const exec::ParallelStats stats = wp.dp.parallel_stats();
  EXPECT_GT(stats.parallel_batches, 0u);
  EXPECT_EQ(stats.fallback_batches, 0u);
  expect_identical_registers(ws.dp, wp.dp, "traced 2-worker vs untraced");
}

// ---------------------------------------------------------------------------
// Merge-on-demand: query and telemetry paths fold shards implicitly.
// ---------------------------------------------------------------------------

TEST(ShardedMerge, ControllerQueriesMergeOnDemand) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(300, 6000, 5);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);

  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(4);
  wp.dp.process_batch(trace);

  // No explicit merge_shards(): the readout path must fold the shards.
  for (std::size_t i = 0; i < trace.size(); i += 499) {
    EXPECT_EQ(ws.ctl.query_value(seq_ids.cms, trace[i]),
              wp.ctl.query_value(par_ids.cms, trace[i]))
        << "query path did not merge outstanding shard deltas";
  }
  expect_identical_registers(ws.dp, wp.dp, "merge-on-query");
}

TEST(ShardedMerge, TelemetryCollectionMergesCounters) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(100, 2000, 17);

  World w;
  deploy_mergeable_mix(w.ctl);
  w.dp.enable_parallel(2);
  w.dp.process_batch(trace);

  // Pipeline total is maintained by the pool; per-group counters travel
  // through the shard blocks and appear only after a merge point.
  EXPECT_EQ(w.registry.counter("flymon_packets_total").value(), trace.size());
  collect_dataplane_telemetry(w.dp, w.registry);  // non-const overload merges
  EXPECT_EQ(w.registry
                .counter("flymon_group_packets_total", {{"group", "0"}})
                .value(),
            trace.size());
}

TEST(ShardedMerge, ClearRegistersDiscardsShardDeltas) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(100, 2000, 19);

  World w;
  const MixIds ids = deploy_mergeable_mix(w.ctl);
  w.dp.enable_parallel(3);
  w.dp.process_batch(trace);
  w.dp.clear_registers();  // epoch boundary: shard deltas die with the epoch

  // A later merge point must not resurrect pre-clear state.
  EXPECT_EQ(w.ctl.query_value(ids.cms, trace.front()), 0u);
  for (unsigned g = 0; g < w.dp.num_groups(); ++g) {
    for (unsigned c = 0; c < w.dp.group(g).num_cmus(); ++c) {
      const auto& reg = w.dp.group(g).cmu(c).reg();
      for (const std::uint32_t v : reg.read_range(0, reg.size())) {
        ASSERT_EQ(v, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// clear_registers zeroes only each CMU's partition hull; a seeded lifecycle
// proves the hulls still cover every cell anything could have written.
// ---------------------------------------------------------------------------

/// Seeded add/resize/split/remove lifecycle with traffic between the
/// operations (`workers` == 0 stays on the batched path).  After every
/// clear_registers() each cell of each bank must be zero.  A count planted
/// in every freed partition stands in for a publish fence folding late
/// deltas there; the next clear must zero it too.
void run_clear_lifecycle(unsigned workers, std::uint64_t seed) {
  World w;
  if (workers != 0) w.dp.enable_parallel(workers);
  const std::vector<Packet> trace = make_trace(400, 6000, seed);
  Rng rng(seed);
  std::vector<std::uint32_t> live;

  const auto spec = [&](std::uint32_t buckets) {
    TaskSpec s;
    s.name = "t";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = buckets;
    s.rows = 1 + static_cast<unsigned>(rng.next_below(3));
    return s;
  };
  const auto any_size = [&] {
    static constexpr std::uint32_t kSizes[] = {2048, 4096, 16384};
    return kSizes[rng.next_below(3)];
  };
  const auto traffic = [&] {
    const std::size_t n = 1500;
    const std::size_t at = rng.next_below(trace.size() - n);
    w.dp.process_batch(std::span<const Packet>(trace).subspan(at, n));
  };
  const auto units_of = [&](std::uint32_t id) {
    std::vector<control::UnitPlacement> units;
    for (const auto& row : w.ctl.task(id)->rows) {
      units.insert(units.end(), row.units.begin(), row.units.end());
    }
    return units;
  };
  const auto plant = [&](const std::vector<control::UnitPlacement>& freed) {
    for (const auto& up : freed) {
      w.dp.group(up.group).cmu(up.cmu).reg().write(up.partition.end() - 1, 1);
    }
  };

  const auto first = w.ctl.add_task(spec(8192));
  ASSERT_TRUE(first.ok) << first.error;
  live.push_back(first.task_id);
  unsigned clears = 0;
  for (unsigned step = 0; step < 14; ++step) {
    traffic();
    const bool full_bank = step == 5;
    const auto op = full_bank ? 1 : rng.next_below(4);
    const std::size_t pick = rng.next_below(live.size());
    if (op == 0 && live.size() < 3) {
      const auto r = w.ctl.add_task(spec(any_size()));
      ASSERT_TRUE(r.ok) << "step " << step << ": " << r.error;
      live.push_back(r.task_id);
    } else if (op == 1) {
      const auto freed = units_of(live[pick]);
      const auto r =
          w.ctl.resize_task(live[pick], full_bank ? 65536 : any_size());
      ASSERT_TRUE(r.ok) << "step " << step << ": " << r.error;
      plant(freed);
    } else if (op == 2 && live.size() < 3) {
      const auto freed = units_of(live[pick]);
      const auto [a, b] = w.ctl.split_task(live[pick]);
      ASSERT_TRUE(a.ok && b.ok) << "step " << step << ": " << a.error << b.error;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      live.push_back(a.task_id);
      live.push_back(b.task_id);
      plant(freed);
    } else if (op == 3 && live.size() > 1) {
      const auto freed = units_of(live[pick]);
      ASSERT_TRUE(w.ctl.remove_task(live[pick]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      plant(freed);
    }
    traffic();
    if (full_bank || rng.next_bool(0.6)) {
      w.dp.clear_registers();
      ++clears;
      ASSERT_TRUE(all_banks_zero(w.dp)) << "after the clear at step " << step;
    }
  }
  EXPECT_GE(clears, 4u);
}

TEST(ShardedClear, BatchedLifecycleClearsEveryLiveCell) {
  EnabledGuard on(false);
  run_clear_lifecycle(0, 0xC1EA5);
}

TEST(ShardedClear, ThreeWorkerLifecycleClearsEveryLiveCell) {
  EnabledGuard on(false);
  run_clear_lifecycle(3, 0xC1EA5);
}

// clear_registers() zeroes a dirty shard only inside the current plan's
// merge regions.  Shards dirtied under a resized plan are cleared with no
// merge first; any delta the clear missed would resurface in the next
// merge and break equality with the sequential referee.
TEST(ShardedClear, ClearOfUnmergedShardsLeavesNoStaleDeltas) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(400, 9000, 23);
  const auto part = [&](std::size_t i) {
    return std::span<const Packet>(trace).subspan(i * 3000, 3000);
  };

  World ws, wp;
  const MixIds ids_s = deploy_mergeable_mix(ws.ctl);
  const MixIds ids_p = deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(3);

  for (World* w : {&ws, &wp}) w->dp.process_batch(part(0));
  ASSERT_TRUE(ws.ctl.resize_task(ids_s.cms, 16384).ok);
  ASSERT_TRUE(wp.ctl.resize_task(ids_p.cms, 16384).ok);
  for (World* w : {&ws, &wp}) {
    w->dp.process_batch(part(1));
    w->dp.clear_registers();
    w->dp.process_batch(part(2));
  }
  wp.dp.merge_shards();

  EXPECT_EQ(wp.dp.parallel_stats().fallback_batches, 0u);
  expect_identical_registers(ws.dp, wp.dp, "clear before merge");
  EXPECT_EQ(ws.ctl.query_value(ids_s.cms, trace.back()),
            wp.ctl.query_value(ids_p.cms, trace.back()));
}

// ---------------------------------------------------------------------------
// Epoch integration: parallel epochs produce sequential readouts.
// ---------------------------------------------------------------------------

TEST(ShardedEpoch, EpochRunnerReadoutsMatchSequential) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(400, 10'000, 29);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(4);

  const std::uint64_t span_ns =
      trace.back().ts_ns - trace.front().ts_ns + 1;
  const std::uint64_t window = span_ns / 4 + 1;

  std::vector<std::uint64_t> seq_values, par_values;
  control::EpochRunner seq_runner(ws.dp, window);
  ingest::MemorySource seq_source{trace};
  seq_runner.run_stream(seq_source, [&](unsigned, std::span<const Packet> pkts) {
    for (const Packet& p : pkts) {
      seq_values.push_back(ws.ctl.query_value(seq_ids.cms, p));
    }
  });
  control::EpochRunner par_runner(wp.dp, window);
  ingest::MemorySource par_source{trace};
  par_runner.run_stream(par_source, [&](unsigned, std::span<const Packet> pkts) {
    for (const Packet& p : pkts) {
      par_values.push_back(wp.ctl.query_value(par_ids.cms, p));
    }
  });

  EXPECT_EQ(seq_values, par_values);
}

// ---------------------------------------------------------------------------
// Pool lifecycle.
// ---------------------------------------------------------------------------

TEST(ShardedLifecycle, DisableParallelMergesOutstandingDeltas) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(200, 4000, 31);

  World ws, wp;
  const MixIds seq_ids = deploy_mergeable_mix(ws.ctl);
  const MixIds par_ids = deploy_mergeable_mix(wp.ctl);

  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(4);
  wp.dp.process_batch(trace);
  wp.dp.disable_parallel();
  EXPECT_EQ(wp.dp.parallel_workers(), 0u);

  expect_identical_registers(ws.dp, wp.dp, "disable merges");
  EXPECT_EQ(ws.ctl.query_value(seq_ids.cms, trace.front()),
            wp.ctl.query_value(par_ids.cms, trace.front()));

  // With no pool, the same entry point runs the compiled plan.
  EXPECT_GT(wp.dp.process_batch(trace), 0u);
  EXPECT_EQ(wp.dp.packets_processed(), 2 * trace.size());
}

TEST(ShardedLifecycle, SingleWorkerPoolSpawnsNoThreadsAndStaysExact) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(200, 4000, 37);

  World ws, wp;
  deploy_mergeable_mix(ws.ctl);
  deploy_mergeable_mix(wp.ctl);

  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(1);
  EXPECT_EQ(wp.dp.parallel_workers(), 1u);
  wp.dp.process_batch(trace);
  wp.dp.merge_shards();
  expect_identical_registers(ws.dp, wp.dp, "single-worker pool");
}

// ---------------------------------------------------------------------------
// CI smoke (also wired into the TSan workflow leg): 2-thread equivalence,
// sized to finish quickly under sanitizers.
// ---------------------------------------------------------------------------

TEST(ShardedSmoke, TwoThreadEquivalence) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(300, 8000, 41);

  World ws, wp;
  deploy_mergeable_mix(ws.ctl);
  deploy_mergeable_mix(wp.ctl);

  ws.dp.process_batch(trace);
  wp.dp.enable_parallel(2);
  wp.dp.process_batch(trace);
  wp.dp.merge_shards();

  const exec::ParallelStats stats = wp.dp.parallel_stats();
  EXPECT_EQ(stats.fallback_batches, 0u);
  EXPECT_EQ(stats.parallel_batches, 1u);
  expect_identical_registers(ws.dp, wp.dp, "2-thread smoke");
}

// ---------------------------------------------------------------------------
// Scoped publish: a reconfiguration whose plan merges every other region
// like the published one keeps the replicas' deltas instead of folding
// them, and drops only those in the partitions it zeroes.
// ---------------------------------------------------------------------------

// Resize and split the CMS task traffic is writing, under a 2-worker pool,
// then add a task that takes the partitions they freed.  A replica delta
// carried out of a retired partition would land in the new task's cells;
// the sequential referee's new task starts from zero.
TEST(ShardedScoped, TraffickedResizeAndSplitMatchSequential) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(800, 24'000, 31);
  World ws, wp;
  MixIds seq = deploy_mergeable_mix(ws.ctl);
  MixIds par = deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(2);
  const auto scoped = [](World& w) {
    return w.registry.counter("flymon_publish_folds_total", {{"kind", "scoped"}})
        .value();
  };
  const std::uint64_t scoped_before = scoped(wp);

  const std::size_t part = trace.size() / 4;
  const auto run = [&](std::size_t i) {
    const auto piece = std::span<const Packet>(trace).subspan(i * part, part);
    ws.dp.process_batch(piece);
    wp.dp.process_batch(piece);
  };
  const auto expect_same_answers = [&](std::uint32_t a, std::uint32_t b,
                                       const char* what) {
    for (std::size_t i = 0; i < trace.size(); i += 331) {
      EXPECT_EQ(ws.ctl.query_value(a, trace[i]), wp.ctl.query_value(b, trace[i]))
          << what << ", probe " << i;
    }
  };

  run(0);
  const auto rs = ws.ctl.resize_task(seq.cms, 4096);
  const auto rp = wp.ctl.resize_task(par.cms, 4096);
  ASSERT_TRUE(rs.ok && rp.ok) << rs.error << rp.error;
  run(1);
  expect_same_answers(rs.task_id, rp.task_id, "after the resize");

  const auto [sa, sb] = ws.ctl.split_task(rs.task_id);
  const auto [pa, pb] = wp.ctl.split_task(rp.task_id);
  ASSERT_TRUE(sa.ok && sb.ok && pa.ok && pb.ok) << sa.error << pa.error;
  run(2);
  expect_same_answers(sa.task_id, pa.task_id, "after the split (lo)");
  expect_same_answers(sb.task_id, pb.task_id, "after the split (hi)");

  TaskSpec fresh;
  fresh.name = "fresh";
  fresh.key = FlowKeySpec::src_ip();
  fresh.attribute = AttributeKind::kFrequency;
  fresh.memory_buckets = 8192;
  fresh.rows = 3;
  const auto fs = ws.ctl.add_task(fresh);
  const auto fp = wp.ctl.add_task(fresh);
  ASSERT_TRUE(fs.ok && fp.ok) << fs.error << fp.error;
  run(3);
  wp.dp.merge_shards();
  expect_identical_registers(ws.dp, wp.dp, "trafficked resize + split");
  expect_identical_counters(ws, wp, "trafficked resize + split");
  expect_same_answers(fs.task_id, fp.task_id, "the task on freed partitions");
  EXPECT_EQ(scoped(wp), scoped_before + 3);
  EXPECT_EQ(wp.registry.counter("flymon_publish_folds_total", {{"kind", "full"}})
                .value(),
            0u);
}

/// (group, cmu, base, size) of every partition `t` holds.
std::vector<std::array<std::uint32_t, 4>> partitions(const control::DeployedTask& t) {
  std::vector<std::array<std::uint32_t, 4>> out;
  for (const control::RowPlacement& row : t.rows) {
    for (const control::UnitPlacement& up : row.units) {
      out.push_back({up.group, up.cmu, up.partition.base, up.partition.size});
    }
  }
  return out;
}

// One batch while the shards hold deltas in every task's cells: remove A,
// add B into the partitions A fills, resize C.  It publishes once, under
// one scoped fence that drops A's and C's deltas, and the pool matches the
// sequential referee register for register.
TEST(ShardedBatch, RemoveAddResizeUnderTrafficMatchesSequential) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(800, 24'000, 37);
  World ws, wp;
  const MixIds seq = deploy_mergeable_mix(ws.ctl);
  const MixIds par = deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(2);
  const auto folds = [&](const char* kind) {
    return wp.registry.counter("flymon_publish_folds_total", {{"kind", kind}}).value();
  };
  const std::size_t half = trace.size() / 2;
  const auto run = [&](std::size_t i) {
    const auto piece = std::span<const Packet>(trace).subspan(i * half, half);
    ws.dp.process_batch(piece);
    wp.dp.process_batch(piece);
  };

  run(0);
  const auto a_parts = partitions(*wp.ctl.task(par.cms));
  TaskSpec b = wp.ctl.task(par.cms)->spec;
  b.name = "b";
  const auto batch = [&](const MixIds& ids) {
    return std::vector<control::PlanOp>{control::PlanOp::remove(ids.cms),
                                        control::PlanOp::add(b),
                                        control::PlanOp::resize(ids.bloom, 4096)};
  };
  const std::uint64_t gen = wp.dp.plan_generation();
  const std::uint64_t scoped = folds("scoped"), full = folds("full");
  const verify::PlanResult rs = ws.ctl.apply(batch(seq));
  const verify::PlanResult rp = wp.ctl.apply(batch(par));
  ASSERT_TRUE(rs.ok && rp.ok) << rs.format() << rp.format();
  EXPECT_EQ(wp.dp.plan_generation(), gen + 1);
  EXPECT_EQ(folds("scoped"), scoped + 1);
  EXPECT_EQ(folds("full"), full);
  const std::uint32_t b_id = rp.ops[1].task_ids.at(0);
  EXPECT_EQ(partitions(*wp.ctl.task(b_id)), a_parts) << "B reuses A's partitions";
  EXPECT_EQ(b_id, rs.ops[1].task_ids.at(0));

  run(1);
  wp.dp.merge_shards();
  expect_identical_registers(ws.dp, wp.dp, "batch under traffic");
  expect_identical_counters(ws, wp, "batch under traffic");
  for (std::size_t i = 0; i < trace.size(); i += 331) {
    EXPECT_EQ(ws.ctl.query_value(b_id, trace[i]), wp.ctl.query_value(b_id, trace[i]))
        << "probe " << i;
    EXPECT_EQ(ws.ctl.query_existence(seq.bloom, trace[i]),
              wp.ctl.query_existence(par.bloom, trace[i]))
        << "probe " << i;
  }
}

// A query on a second thread needs no lock once every delta is folded, yet
// it still sees every batch that happens before it.  One flow per batch
// position, so each probe's CMS count is exact: k batches read k.
TEST(ShardedScoped, ConcurrentQueriesSeeEveryEarlierBatch) {
  EnabledGuard on(false);
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 16384;
  s.rows = 3;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  w.dp.enable_parallel(2);
  std::vector<Packet> batch(2 * exec::kBatchChunk);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].ft.src_ip = 0x0A000000u + static_cast<std::uint32_t>(i);
    batch[i].ft.dst_ip = 0x0B000001u;
    batch[i].ft.src_port = 1000;
    batch[i].ft.dst_port = 80;
    batch[i].ft.protocol = 6;
  }

  constexpr std::uint64_t kBatches = 100;
  std::atomic<std::uint64_t> done{0};
  std::thread proc([&] {
    for (std::uint64_t k = 1; k <= kBatches; ++k) {
      w.dp.process_batch(batch);
      done.store(k, std::memory_order_release);
    }
  });
  std::uint64_t queries = 0;
  for (std::size_t i = 0; done.load(std::memory_order_acquire) < kBatches;
       i = (i + 37) % batch.size(), ++queries) {
    const std::uint64_t before = done.load(std::memory_order_acquire);
    const std::uint64_t v = w.ctl.query_value(r.task_id, batch[i]);
    if (v < before || v > kBatches) {
      ADD_FAILURE() << "query " << queries << " read " << v << " after "
                    << before << " finished batches";
      break;
    }
  }
  proc.join();
  for (std::size_t i = 0; i < batch.size(); i += 17) {
    EXPECT_EQ(w.ctl.query_value(r.task_id, batch[i]), kBatches);
  }
  EXPECT_GT(queries, 0u);
}

// ---------------------------------------------------------------------------
// Churn: reconfigure while batches are in flight.  The publish fence
// serialises against every batch, so each executes one coherent plan,
// every shard delta merges under the plan it was produced with, and no
// fold lands in a cell a batch is writing.  TSan is the referee for races;
// a sequential referee catches lost updates, which relaxed cells hide from
// TSan.
// ---------------------------------------------------------------------------

TEST(ShardedChurn, ReconfigureWhileProcessingIsRaceFree) {
  EnabledGuard on(false);
  World w, ref;
  const MixIds ids = deploy_mergeable_mix(w.ctl);
  const MixIds ref_ids = deploy_mergeable_mix(ref.ctl);
  w.dp.enable_parallel(3);
  const std::vector<Packet> trace = make_trace(256, 2048, 9);

  std::atomic<bool> stop{false};
  std::uint64_t batches = 0;
  bool generations_ok = true;
  std::thread proc([&] {
    std::uint64_t last_gen = 0;
    while (true) {
      // Alternate the two ways packets enter: one batch, one drained
      // stream of the same packets.
      ingest::MemorySource source{trace};
      const std::uint64_t gen = batches % 2 == 0
                                    ? w.dp.process_batch(trace)
                                    : w.dp.drain(source).last_generation;
      if (gen < last_gen) {
        generations_ok = false;
        break;
      }
      last_gen = gen;
      ++batches;
      if (stop.load(std::memory_order_acquire) && batches >= 8) break;
    }
  });

  constexpr int kChurn = 20;
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
  w.dp.merge_shards();

  EXPECT_TRUE(generations_ok)
      << "parallel path observed a decreasing plan generation";
  EXPECT_GE(batches, 8u);
  EXPECT_EQ(w.dp.packets_processed(), batches * trace.size());

  // The churned task never shares cells with the persistent mix, so the
  // mix must answer exactly as a sequential run over the same packets.
  for (std::uint64_t i = 0; i < batches; ++i) ref.dp.process_batch(trace);
  for (std::size_t i = 0; i < trace.size(); i += 97) {
    const Packet& probe = trace[i];
    EXPECT_EQ(ref.ctl.query_value(ref_ids.cms, probe),
              w.ctl.query_value(ids.cms, probe));
    EXPECT_EQ(ref.ctl.query_existence(ref_ids.bloom, probe),
              w.ctl.query_existence(ids.bloom, probe));
    EXPECT_EQ(ref.ctl.query_value(ref_ids.maxq, probe),
              w.ctl.query_value(ids.maxq, probe));
    EXPECT_DOUBLE_EQ(ref.ctl.estimate_distinct(ref_ids.beaucoup, probe),
                     w.ctl.estimate_distinct(ids.beaucoup, probe));
  }
}

// The shell's `trace off` may run while an `ingest start` drain thread is
// mid-batch: the data plane loads the tracer once per batch, so toggling it
// from another thread is race-free and never changes the registers.
TEST(ShardedChurn, TracerToggleDuringDrainIsRaceFree) {
  EnabledGuard on(false);
  World ws, wp;
  deploy_mergeable_mix(ws.ctl);
  deploy_mergeable_mix(wp.ctl);
  wp.dp.enable_parallel(2);
  const std::vector<Packet> trace = make_trace(256, 4096, 23);
  constexpr int kDrains = 12;

  telemetry::PacketTracer tracer(128, 7);
  std::atomic<bool> done{false};
  std::thread toggler([&] {
    bool on = false;
    while (!done.load(std::memory_order_acquire)) {
      on = !on;
      wp.dp.set_tracer(on ? &tracer : nullptr);
      (void)tracer.records();
      std::this_thread::yield();
    }
    wp.dp.set_tracer(nullptr);
  });
  std::uint64_t drained = 0;
  for (int i = 0; i < kDrains; ++i) {
    ingest::MemorySource source{trace};
    drained += wp.dp.drain(source).packets;
  }
  done.store(true, std::memory_order_release);
  toggler.join();
  wp.dp.merge_shards();

  for (int i = 0; i < kDrains; ++i) ws.dp.process_batch(trace);
  EXPECT_EQ(drained, kDrains * trace.size());
  EXPECT_EQ(wp.dp.parallel_stats().fallback_batches, 0u);
  expect_identical_registers(ws.dp, wp.dp, "tracer toggled during drain");
  const auto recs = tracer.records();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].seq % 7, 0u);
    EXPECT_FALSE(recs[i].steps.empty());  // the wildcard CMS always runs
    if (i > 0) {
      EXPECT_LT(recs[i - 1].seq, recs[i].seq);
    }
  }
}

// ---------------------------------------------------------------------------
// Preempting fences: a control thread waiting for the pool cuts the batch in
// flight at a chunk seam instead of waiting it out.
// ---------------------------------------------------------------------------

/// A task whose filter (11.0.0.0/8) matches none of make_trace's traffic
/// (10.0.0.0/8), so adding it mid-batch changes no register the batch
/// writes and a referee may add it at any point.
TaskSpec idle_task(Algorithm algo) {
  TaskSpec s;
  s.name = "idle";
  s.filter = TaskFilter::src(0x0B00'0000, 8);
  s.key = FlowKeySpec::five_tuple();
  s.algorithm = algo;
  s.attribute = algo == Algorithm::kMaxInterarrival ? AttributeKind::kMax
                                                    : AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  s.rows = 1;
  return s;
}

void expect_same_answers(World& ref, const MixIds& ref_ids, World& w,
                         const MixIds& ids, const std::vector<Packet>& trace) {
  for (std::size_t i = 0; i < trace.size(); i += trace.size() / 50) {
    const Packet& probe = trace[i];
    EXPECT_EQ(ref.ctl.query_value(ref_ids.cms, probe),
              w.ctl.query_value(ids.cms, probe));
    EXPECT_EQ(ref.ctl.query_existence(ref_ids.bloom, probe),
              w.ctl.query_existence(ids.bloom, probe));
    EXPECT_EQ(ref.ctl.query_value(ref_ids.maxq, probe),
              w.ctl.query_value(ids.maxq, probe));
    EXPECT_DOUBLE_EQ(ref.ctl.estimate_distinct(ref_ids.beaucoup, probe),
                     w.ctl.estimate_distinct(ids.beaucoup, probe));
  }
}

/// Runs `trace` as ONE process_batch on `w` while a controller thread adds
/// `task` once the batch is under way.  True when the add returned first.
bool add_during_batch(World& w, const std::vector<Packet>& trace,
                      const TaskSpec& task) {
  std::atomic<bool> started{false}, added{false};
  std::thread controller([&] {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const auto r = w.ctl.add_task(task);
    EXPECT_TRUE(r.ok) << r.error;
    added.store(true, std::memory_order_release);
  });
  started.store(true, std::memory_order_release);
  w.dp.process_batch(trace);
  const bool add_first = added.load(std::memory_order_acquire);
  controller.join();
  return add_first;
}

TEST(ShardedFence, AddReturnsBeforeTheBatchInFlight) {
  EnabledGuard on(true);  // the preemption counter counts while enabled
  const std::vector<Packet> trace = make_trace(2000, 1'000'000, 61);
  World ref, w;
  const MixIds ref_ids = deploy_mergeable_mix(ref.ctl);
  const MixIds ids = deploy_mergeable_mix(w.ctl);
  w.dp.enable_parallel(2);

  const TaskSpec task = idle_task(Algorithm::kCms);
  EXPECT_TRUE(add_during_batch(w, trace, task))
      << "the add waited out the whole batch";
  const exec::ParallelStats stats = w.dp.parallel_stats();
  EXPECT_GE(stats.preemptions, 1u);
  EXPECT_GE(stats.parallel_batches, 2u) << "a preempted batch runs in pieces";
  EXPECT_EQ(w.dp.packets_processed(), trace.size());
  EXPECT_EQ(w.registry.counter("flymon_sharded_preemptions_total").value(),
            stats.preemptions);

  ref.dp.process_batch(trace);
  ASSERT_TRUE(ref.ctl.add_task(task).ok);
  w.dp.merge_shards();
  expect_identical_registers(ref.dp, w.dp, "add during a 1M-packet batch");
  expect_same_answers(ref, ref_ids, w, ids, trace);
}

// Controller queries preempt a traced batch again and again: every piece
// continues the batch's one sampling decision, and the records reach the
// tracer in seq order with the sequential run's values.
TEST(ShardedFence, TracedBatchContinuesItsSample) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(1000, 200'000, 67);
  World ref, w;
  const MixIds ref_ids = deploy_mergeable_mix(ref.ctl);
  const MixIds ids = deploy_mergeable_mix(w.ctl);
  w.dp.enable_parallel(2);
  telemetry::PacketTracer ref_tracer(1 << 12, 64), tracer(1 << 12, 64);
  ref.dp.set_tracer(&ref_tracer);
  w.dp.set_tracer(&tracer);

  std::atomic<bool> started{false}, done{false};
  std::thread controller([&] {
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    // A query cuts the job only once a job has left unmerged deltas, so
    // keep querying until then; a bounded number of cuts keeps the test
    // short under TSan.
    while (!done.load(std::memory_order_acquire) &&
           w.dp.parallel_stats().preemptions < 32) {
      (void)w.ctl.query_value(ids.cms, trace[0]);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  started.store(true, std::memory_order_release);
  w.dp.process_batch(trace);
  done.store(true, std::memory_order_release);
  controller.join();
  ref.dp.process_batch(trace);
  w.dp.set_tracer(nullptr);
  ref.dp.set_tracer(nullptr);

  EXPECT_GE(w.dp.parallel_stats().preemptions, 1u);
  w.dp.merge_shards();
  expect_identical_registers(ref.dp, w.dp, "traced batch under queries");
  expect_same_answers(ref, ref_ids, w, ids, trace);
  const auto want = ref_tracer.records();
  const auto got = tracer.records();
  ASSERT_EQ(got.size(), (trace.size() + 63) / 64);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "record " << i);
    EXPECT_EQ(got[i].seq, want[i].seq);
    ASSERT_EQ(got[i].steps.size(), want[i].steps.size());
    for (std::size_t j = 0; j < got[i].steps.size(); ++j) {
      EXPECT_EQ(got[i].steps[j].address, want[i].steps[j].address);
      EXPECT_EQ(got[i].steps[j].result, want[i].steps[j].result);
    }
  }
}

// The fence publishes a plan with a chained (unmergeable) task: the rest
// of the batch runs sequentially on the live registers, still exactly.
TEST(ShardedFence, ContinuationRunsUnderAnUnmergeablePlan) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(2000, 1'000'000, 71);
  World ref, w;
  const MixIds ref_ids = deploy_mergeable_mix(ref.ctl);
  const MixIds ids = deploy_mergeable_mix(w.ctl);
  w.dp.enable_parallel(2);

  const TaskSpec task = idle_task(Algorithm::kMaxInterarrival);
  EXPECT_TRUE(add_during_batch(w, trace, task))
      << "the add waited out the whole batch";
  ASSERT_FALSE(w.dp.current_plan()->shard_mergeable());
  const exec::ParallelStats stats = w.dp.parallel_stats();
  EXPECT_GE(stats.preemptions, 1u);
  EXPECT_GE(stats.parallel_batches, 1u);
  EXPECT_GE(stats.fallback_batches, 1u);
  EXPECT_EQ(w.dp.packets_processed(), trace.size());

  ref.dp.process_batch(trace);
  ASSERT_TRUE(ref.ctl.add_task(task).ok);
  w.dp.merge_shards();
  expect_identical_registers(ref.dp, w.dp, "unmergeable continuation");
  expect_same_answers(ref, ref_ids, w, ids, trace);
}

}  // namespace
}  // namespace flymon
