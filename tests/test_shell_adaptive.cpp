// Tests for the interactive shell (command parsing + execution) and the
// DREAM-style adaptive memory manager.
#include <gtest/gtest.h>

#include "control/adaptive.hpp"
#include "control/shell.hpp"
#include "packet/trace_gen.hpp"

namespace flymon::control {
namespace {

// -------- parsers --------

TEST(ShellParse, Ipv4) {
  EXPECT_EQ(parse_ipv4("10.0.0.1"), 0x0A000001u);
  EXPECT_EQ(parse_ipv4("255.255.255.255"), 0xFFFFFFFFu);
  EXPECT_EQ(parse_ipv4("0.0.0.0"), 0u);
  EXPECT_FALSE(parse_ipv4("10.0.0").has_value());
  EXPECT_FALSE(parse_ipv4("10.0.0.256").has_value());
  EXPECT_FALSE(parse_ipv4("10.0.0.1.2").has_value());
  EXPECT_FALSE(parse_ipv4("ten.zero.zero.one").has_value());
  EXPECT_FALSE(parse_ipv4("").has_value());
}

TEST(ShellParse, KeySpecs) {
  EXPECT_EQ(parse_key_spec("SrcIP"), FlowKeySpec::src_ip());
  EXPECT_EQ(parse_key_spec("SrcIP/24"), FlowKeySpec::src_ip(24));
  EXPECT_EQ(parse_key_spec("IPPair"), FlowKeySpec::ip_pair());
  EXPECT_EQ(parse_key_spec("5Tuple"), FlowKeySpec::five_tuple());
  EXPECT_EQ(parse_key_spec("SrcIP+DstPort"),
            (FlowKeySpec{32, 0, 0, 16, 0, 0}));
  EXPECT_EQ(parse_key_spec("DstIP+SrcPort+Proto"),
            (FlowKeySpec{0, 32, 16, 0, 8, 0}));
  EXPECT_FALSE(parse_key_spec("Bogus").has_value());
  EXPECT_FALSE(parse_key_spec("SrcIP/40").has_value());
  EXPECT_FALSE(parse_key_spec("").has_value());
}

// -------- shell execution --------

struct ShellWorld {
  FlyMonDataPlane dp{9};
  Controller ctl{dp};
  Shell shell{ctl};
};

TEST(Shell, AddListRemove) {
  ShellWorld w;
  const std::string out =
      w.shell.execute("add key=SrcIP attr=Frequency mem=8192 rows=3 name=demo");
  EXPECT_NE(out.find("task 1 deployed"), std::string::npos) << out;
  EXPECT_NE(w.shell.execute("list").find("demo"), std::string::npos);
  EXPECT_EQ(w.shell.execute("remove 1"), "removed");
  EXPECT_NE(w.shell.execute("list").find("(no tasks)"), std::string::npos);
}

TEST(Shell, AddValidatesArguments) {
  ShellWorld w;
  EXPECT_NE(w.shell.execute("add key=SrcIP").find("error"), std::string::npos);
  EXPECT_NE(w.shell.execute("add key=Nope attr=Frequency").find("error"),
            std::string::npos);
  EXPECT_NE(w.shell.execute("add key=SrcIP attr=Banana").find("error"),
            std::string::npos);
  EXPECT_NE(w.shell.execute("add key=SrcIP attr=Frequency rows=9").find("error"),
            std::string::npos);
  EXPECT_NE(w.shell.execute("add key=SrcIP attr=Frequency filter=1.2.3").find("error"),
            std::string::npos);
  EXPECT_EQ(w.ctl.num_tasks(), 0u) << "failed commands must not deploy";
}

TEST(Shell, QueryFrequency) {
  ShellWorld w;
  w.shell.execute("add key=SrcIP attr=Frequency mem=16384 rows=3");
  Packet p;
  p.ft.src_ip = 0x0A000001;
  for (int i = 0; i < 7; ++i) w.dp.process(p);
  EXPECT_EQ(w.shell.execute("query 1 src=10.0.0.1"), "value 7");
}

TEST(Shell, QueryExistence) {
  ShellWorld w;
  w.shell.execute("add key=5Tuple attr=Existence mem=8192 rows=3");
  Packet p;
  p.ft.src_ip = 0x0A000001;
  p.ft.dst_ip = 0xC0A80001;
  p.ft.src_port = 1234;
  p.ft.dst_port = 80;
  p.ft.protocol = 6;
  w.dp.process(p);
  EXPECT_EQ(w.shell.execute(
                "query 1 src=10.0.0.1 dst=192.168.0.1 sport=1234 dport=80 proto=6"),
            "present");
  EXPECT_EQ(w.shell.execute(
                "query 1 src=10.0.0.2 dst=192.168.0.1 sport=1234 dport=80 proto=6"),
            "absent");
}

TEST(Shell, ResizeAndSplit) {
  ShellWorld w;
  w.shell.execute("add key=5Tuple attr=Frequency mem=8192 rows=3 filter=10.0.0.0/8");
  const std::string resized = w.shell.execute("resize 1 16384");
  EXPECT_NE(resized.find("16384"), std::string::npos) << resized;
  const std::string split = w.shell.execute("split 1");
  EXPECT_NE(split.find("split into tasks"), std::string::npos) << split;
  EXPECT_EQ(w.ctl.num_tasks(), 2u);
}

TEST(Shell, UnknownCommandsAndIds) {
  ShellWorld w;
  EXPECT_NE(w.shell.execute("frobnicate").find("error"), std::string::npos);
  EXPECT_NE(w.shell.execute("remove 42").find("error"), std::string::npos);
  EXPECT_NE(w.shell.execute("query 42 src=1.2.3.4").find("error"), std::string::npos);
  EXPECT_NE(w.shell.execute("entropy 42").find("error"), std::string::npos);
  EXPECT_EQ(w.shell.execute(""), "");
  EXPECT_FALSE(Shell::help().empty());
}

// Ids, bucket counts and constants are 32-bit: a larger number is rejected,
// never wrapped onto a live task id or a zero-bucket request.
TEST(Shell, WideNumbersAreRejectedNotWrapped) {
  ShellWorld w;
  ASSERT_NE(w.shell.execute("add key=SrcIP attr=Frequency mem=8192 rows=3 name=demo")
                .find("task 1 deployed"),
            std::string::npos);
  EXPECT_EQ(w.shell.execute("resize 4294967297 16384"), "error: bad arguments");
  EXPECT_EQ(w.shell.execute("resize 1 4294975488"), "error: bad arguments");
  EXPECT_EQ(w.shell.execute("remove 4294967297"), "error: bad id");
  EXPECT_EQ(w.shell.execute("split 4294967297"), "error: bad id");
  EXPECT_EQ(w.shell.execute("query 4294967297 src=1.2.3.4"), "error: unknown task");
  EXPECT_EQ(w.shell.execute("cardinality 4294967297"), "error: unknown task");
  EXPECT_EQ(w.shell.execute("add key=SrcIP attr=Frequency mem=4294967296"),
            "error: bad mem");
  EXPECT_EQ(w.shell.execute("add key=SrcIP attr=Frequency param=4294967296"),
            "error: bad param '4294967296'");
  EXPECT_EQ(w.shell.execute("plan remove 4294967297"), "error: bad arguments");
  EXPECT_EQ(w.shell.execute("plan resize 1 4294975488"), "error: bad arguments");
  ASSERT_EQ(w.ctl.num_tasks(), 1u);
  EXPECT_EQ(w.ctl.task(1)->buckets, 8192u);
  EXPECT_EQ(w.shell.execute("remove 1"), "removed");
}

TEST(Shell, DdosWorkflow) {
  ShellWorld w;
  const std::string out = w.shell.execute(
      "add key=DstIP attr=Distinct param=key:SrcIP algo=BeauCoup threshold=512 "
      "mem=16384 rows=3");
  ASSERT_NE(out.find("deployed"), std::string::npos) << out;

  TraceConfig cfg;
  cfg.num_flows = 1000;
  cfg.num_packets = 10'000;
  auto trace = TraceGenerator::generate(cfg);
  DdosConfig ddos;
  ddos.num_victims = 1;
  ddos.spreaders_per_victim = 2000;
  TraceGenerator::inject_ddos(trace, ddos, cfg.duration_ns);
  w.dp.process_batch(trace);

  const std::string q = w.shell.execute("query 1 dst=192.168.100.0");
  EXPECT_NE(q.find("over threshold"), std::string::npos) << q;
}

// -------- adaptive memory manager --------

TEST(Adaptive, OccupancyReflectsLoad) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  AdaptiveMemoryManager mgr(ctl);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 8192;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);
  EXPECT_DOUBLE_EQ(mgr.occupancy(r.task_id), 0.0);

  TraceConfig cfg;
  cfg.num_flows = 4000;
  cfg.num_packets = 40'000;
  dp.process_batch(TraceGenerator::generate(cfg));
  const double occ = mgr.occupancy(r.task_id);
  EXPECT_GT(occ, 0.2);
  EXPECT_LT(occ, 0.7);
}

TEST(Adaptive, GrowsUnderPressure) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  AdaptiveMemoryManager mgr(ctl);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 2048;  // far too small for the traffic
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  TraceConfig cfg;
  cfg.num_flows = 10'000;
  cfg.num_packets = 50'000;
  dp.process_batch(TraceGenerator::generate(cfg));

  const auto decisions = mgr.rebalance();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].resized);
  EXPECT_EQ(decisions[0].new_buckets, 4096u);
  EXPECT_EQ(ctl.task(r.task_id)->buckets, 4096u) << "id stable across rebalance";
}

TEST(Adaptive, ShrinksWhenIdle) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  AdaptiveMemoryManager mgr(ctl);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 65536;  // oversized for the traffic
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  TraceConfig cfg;
  cfg.num_flows = 500;
  cfg.num_packets = 5'000;
  dp.process_batch(TraceGenerator::generate(cfg));

  const auto decisions = mgr.rebalance();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_TRUE(decisions[0].resized);
  EXPECT_EQ(decisions[0].new_buckets, 32768u);
}

TEST(Adaptive, LeavesWellSizedTasksAlone) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  AdaptiveMemoryManager mgr(ctl);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 16384;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  TraceConfig cfg;
  cfg.num_flows = 3000;  // ~18% occupancy: inside the comfort band
  cfg.num_packets = 30'000;
  dp.process_batch(TraceGenerator::generate(cfg));

  const auto decisions = mgr.rebalance();
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_FALSE(decisions[0].attempted);
  EXPECT_EQ(ctl.task(r.task_id)->buckets, 16384u);
}

TEST(Adaptive, RespectsBucketBounds) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  AdaptiveMemoryManager::Config cfg;
  cfg.min_buckets = 4096;
  cfg.max_buckets = 8192;
  AdaptiveMemoryManager mgr(ctl, cfg);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 8192;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  TraceConfig tc;
  tc.num_flows = 10'000;
  tc.num_packets = 50'000;
  dp.process_batch(TraceGenerator::generate(tc));
  const auto decisions = mgr.rebalance();
  EXPECT_FALSE(decisions[0].attempted) << "already at max_buckets";
}

TEST(Adaptive, TracksTrafficSwing) {
  // The Fig 12b story, automated: spike -> grow, calm -> shrink.
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  AdaptiveMemoryManager mgr(ctl);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 8192;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  auto run_epoch = [&](std::size_t flows, std::uint64_t seed) {
    dp.clear_registers();  // the data plane holds this one task
    TraceConfig cfg;
    cfg.num_flows = flows;
    cfg.num_packets = flows * 10;
    cfg.seed = seed;
    dp.process_batch(TraceGenerator::generate(cfg));
    return mgr.rebalance()[0];
  };

  const auto spike = run_epoch(20'000, 1);  // hot epoch
  EXPECT_GT(spike.new_buckets, spike.old_buckets);
  const auto calm = run_epoch(300, 2);  // traffic collapses
  EXPECT_LT(calm.new_buckets, calm.old_buckets);
}

}  // namespace
}  // namespace flymon::control
