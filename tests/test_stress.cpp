// Stress and failure-injection suites: extreme inputs, degenerate
// configurations, randomized long-running scenarios and hostile shell
// input, all of which must be survived without exceptions or invariant
// violations.
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.hpp"
#include "control/shell.hpp"
#include "packet/trace_gen.hpp"
#include "verify/planner.hpp"

namespace flymon {
namespace {

// -------- extreme packets --------

std::vector<Packet> hostile_packets() {
  std::vector<Packet> out;
  Packet zero{};  // every field zero
  out.push_back(zero);
  Packet maxed;
  maxed.ft = FiveTuple{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFF, 0xFFFF, 0xFF};
  maxed.wire_bytes = 0xFFFFFFFF;
  maxed.ts_ns = ~std::uint64_t{0};
  maxed.queue_len = 0xFFFFFFFF;
  maxed.queue_delay_ns = 0xFFFFFFFF;
  out.push_back(maxed);
  Packet same_ts;  // many identical packets at the same instant
  same_ts.ft.src_ip = 0x0A000001;
  for (int i = 0; i < 100; ++i) out.push_back(same_ts);
  return out;
}

TEST(Stress, HostilePacketsThroughEveryAttribute) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);

  TaskSpec f;
  f.key = FlowKeySpec::five_tuple();
  f.attribute = AttributeKind::kFrequency;
  f.param = ParamSpec::metadata(MetaField::kWireBytes);
  f.memory_buckets = 4096;
  f.rows = 3;
  ASSERT_TRUE(ctl.add_task(f).ok);

  TaskSpec m;
  m.key = FlowKeySpec::src_ip();
  m.attribute = AttributeKind::kMax;
  m.param = ParamSpec::metadata(MetaField::kQueueDelay);
  m.filter = TaskFilter::dst(0, 0);  // wildcard via dst dimension
  m.memory_buckets = 4096;
  m.rows = 2;
  // Wildcard filters intersect, so this must land on a different group.
  const auto rm2 = ctl.add_task(m);
  ASSERT_TRUE(rm2.ok) << rm2.error;
  EXPECT_NE(ctl.task(rm2.task_id)->rows[0].units[0].group, 0u);

  for (const Packet& p : hostile_packets()) {
    EXPECT_NO_THROW(dp.process(p));
  }
  // Queries on hostile probes never throw either.
  for (const Packet& p : hostile_packets()) {
    EXPECT_NO_THROW((void)ctl.query_value(rm2.task_id, p));
  }
}

TEST(Stress, SaturatingCountersStayPinned) {
  FlyMonDataPlane dp(1);
  control::Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.param = ParamSpec::metadata(MetaField::kWireBytes);  // 4 GB/packet max
  s.memory_buckets = 64;
  s.rows = 1;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);
  Packet p;
  p.ft.src_ip = 0x0A000001;
  p.wire_bytes = 0xFFFFFFFF;
  for (int i = 0; i < 10; ++i) dp.process(p);
  EXPECT_EQ(ctl.query_value(r.task_id, p), 0xFFFFFFFFull)
      << "32-bit registers saturate rather than wrap";
}

TEST(Stress, TinyAndHugeRegisters) {
  // Degenerate register geometries must work end to end.
  for (std::uint32_t buckets : {32u, 64u, 1u << 18}) {
    CmuGroupConfig cfg;
    cfg.register_buckets = buckets;
    FlyMonDataPlane dp(1, cfg);
    control::Controller ctl(dp);
    TaskSpec s;
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = buckets;
    s.rows = 1;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << buckets << ": " << r.error;
    Packet p;
    p.ft.src_ip = 0x0A000001;
    dp.process(p);
    EXPECT_EQ(ctl.query_value(r.task_id, p), 1u) << buckets;
  }
}

// -------- randomized long-running scenario --------

TEST(Stress, RandomizedLifecycleScenario) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  Rng rng(20260706);

  // Every reconfiguration is dry-run first: the plan's verdict is the
  // commit's, and its compiled plan is the one the commit publishes.
  const auto dry_run = [&](const control::PlanOp& op) {
    verify::PlanResult res = ctl.plan({op});
    EXPECT_EQ(res.ops.size(), 1u) << res.format();
    return res;
  };
  const auto expect_committed_as_planned = [&](const verify::PlanResult& planned,
                                               bool committed, const char* op) {
    ASSERT_FALSE(planned.ops.empty());
    EXPECT_EQ(planned.ops[0].ok, committed) << op << ": " << planned.format();
    EXPECT_EQ(planned.compiled_after, dp.current_plan()->signature()) << op;
  };

  TraceConfig cfg;
  cfg.num_flows = 500;
  cfg.num_packets = 2000;
  const auto trace = TraceGenerator::generate(cfg);

  std::vector<std::uint32_t> live;
  unsigned deploys = 0, removals = 0, resizes = 0, splits = 0;
  for (int step = 0; step < 400; ++step) {
    const double dice = rng.next_double();
    if (dice < 0.35) {
      TaskSpec s;
      s.filter = TaskFilter::src(rng.next_u32() & 0xFFFF0000, 16);
      s.key = rng.next_bool(0.5) ? FlowKeySpec::five_tuple() : FlowKeySpec::src_ip();
      s.attribute = static_cast<AttributeKind>(rng.next_below(4));
      if (s.attribute == AttributeKind::kDistinct) {
        s.param = ParamSpec::compressed(FlowKeySpec::src_ip());
        s.key = FlowKeySpec::dst_ip();
        s.report_threshold = 64;
      } else if (s.attribute == AttributeKind::kExistence) {
        s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
      } else if (s.attribute == AttributeKind::kMax) {
        s.param = ParamSpec::metadata(MetaField::kQueueLen);
      }
      s.memory_buckets = 1u << (10 + rng.next_below(4));
      s.rows = 1 + static_cast<unsigned>(rng.next_below(3));
      const verify::PlanResult planned = dry_run(control::PlanOp::add(s));
      const auto r = ctl.add_task(s);
      expect_committed_as_planned(planned, r.ok, "add");
      if (r.ok) {
        EXPECT_EQ(planned.ops[0].detail, "deployed as task " + std::to_string(r.task_id));
        live.push_back(r.task_id);
        ++deploys;
      }
    } else if (dice < 0.55 && !live.empty()) {
      const std::size_t i = rng.next_below(live.size());
      const verify::PlanResult planned = dry_run(control::PlanOp::remove(live[i]));
      EXPECT_TRUE(ctl.remove_task(live[i]));
      expect_committed_as_planned(planned, true, "remove");
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      ++removals;
    } else if (dice < 0.7 && !live.empty()) {
      const std::uint32_t id = live[rng.next_below(live.size())];
      const std::uint32_t buckets = 1u << (10 + rng.next_below(5));
      const verify::PlanResult planned = dry_run(control::PlanOp::resize(id, buckets));
      const auto r = ctl.resize_task(id, buckets);
      expect_committed_as_planned(planned, r.ok, "resize");
      resizes += r.ok;
    } else if (dice < 0.8 && !live.empty()) {
      const std::size_t i = rng.next_below(live.size());
      const verify::PlanResult planned = dry_run(control::PlanOp::split(live[i]));
      const auto [lo, hi] = ctl.split_task(live[i]);
      expect_committed_as_planned(planned, lo.ok && hi.ok, "split");
      if (lo.ok && hi.ok) {
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
        live.push_back(lo.task_id);
        live.push_back(hi.task_id);
        ++splits;
      }
    } else {
      // Traffic between reconfigurations, plus random probes.
      for (int i = 0; i < 50; ++i) dp.process(trace[rng.next_below(trace.size())]);
      if (!live.empty()) {
        const std::uint32_t id = live[rng.next_below(live.size())];
        const Packet& probe = trace[rng.next_below(trace.size())];
        EXPECT_NO_THROW((void)ctl.query_value(id, probe));
      }
    }
  }
  EXPECT_GT(deploys, 20u);
  EXPECT_GT(removals, 10u);
  EXPECT_GT(resizes, 5u);

  // Tear everything down: resources must be fully conserved.
  for (std::uint32_t id : live) EXPECT_TRUE(ctl.remove_task(id));
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      EXPECT_EQ(ctl.free_buckets(g, c), dp.group(g).config().register_buckets);
      EXPECT_TRUE(dp.group(g).cmu(c).entries().empty());
    }
  }
}

// -------- hostile shell input --------

TEST(Stress, ShellSurvivesGarbage) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  control::Shell shell(ctl);
  const char* hostile[] = {
      "add",
      "add attr=",
      "add key= attr=Frequency",
      "add key=SrcIP attr=Frequency mem=0",
      "add key=SrcIP attr=Frequency mem=99999999999999999999",
      "remove -1",
      "remove 4294967296",
      "resize 1",
      "resize a b",
      "query",
      "query 1 src=999.999.999.999",
      "split",
      "occupancy x",
      "\t  \n",
      "add key=SrcIP+SrcIP attr=Frequency",
      "rebalance rebalance rebalance",
  };
  for (const char* line : hostile) {
    EXPECT_NO_THROW((void)shell.execute(line)) << line;
  }
  EXPECT_EQ(ctl.num_tasks(), 0u) << "no hostile line may deploy anything";
}

TEST(Stress, ShellRandomFuzz) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  control::Shell shell(ctl);
  Rng rng(99);
  const char* words[] = {"add",  "remove", "query", "key=SrcIP", "attr=Max",
                         "src=", "1",      "mem=",  "=",         "10.0.0.1",
                         "///",  "rows=2", "stats", "list",      "\x7f"};
  for (int i = 0; i < 500; ++i) {
    std::string line;
    const std::size_t n = rng.next_below(6);
    for (std::size_t w = 0; w < n; ++w) {
      line += words[rng.next_below(std::size(words))];
      line += ' ';
    }
    EXPECT_NO_THROW((void)shell.execute(line)) << line;
  }
}

// -------- trace generator edge configs --------

TEST(Stress, DegenerateTraceConfigs) {
  TraceConfig one;
  one.num_flows = 1;
  one.num_packets = 1;
  EXPECT_EQ(TraceGenerator::generate(one).size(), 1u);

  TraceConfig none;
  none.num_flows = 1;
  none.num_packets = 0;
  EXPECT_TRUE(TraceGenerator::generate(none).empty());

  TraceConfig flat;
  flat.num_flows = 10;
  flat.num_packets = 100;
  flat.zipf_alpha = 0.0;
  flat.vary_packet_size = false;
  for (const Packet& p : TraceGenerator::generate(flat)) {
    EXPECT_EQ(p.wire_bytes, 1000u);
  }
}

}  // namespace
}  // namespace flymon
