// Breadth test over the paper's Table 1: every measurement task named
// there is expressible as a (key, attribute, params) combination and runs
// end-to-end on the same CMU hardware, plus the snapshot-based heavy
// changer.
#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "control/controller.hpp"
#include "packet/trace_gen.hpp"

namespace flymon {
namespace {

struct World {
  FlyMonDataPlane dp{9};
  control::Controller ctl{dp};
};

TEST(Table1, DdosVictim_DstIpDistinctSrcIp) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::dst_ip();
  s.attribute = AttributeKind::kDistinct;
  s.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  s.report_threshold = 512;
  s.memory_buckets = 16384;
  s.rows = 3;
  EXPECT_TRUE(w.ctl.add_task(s).ok);
}

TEST(Table1, Worm_SrcIpDistinctDstIp) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kDistinct;
  s.param = ParamSpec::compressed(FlowKeySpec::dst_ip());
  s.report_threshold = 256;
  s.memory_buckets = 16384;
  s.rows = 3;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;

  // A worm scanner touches many destinations from one source.
  TraceConfig cfg;
  cfg.num_flows = 2000;
  cfg.num_packets = 30'000;
  auto trace = TraceGenerator::generate(cfg);
  for (unsigned i = 0; i < 600; ++i) {
    Packet p;
    p.ft.src_ip = 0x0A424242;  // the worm host
    p.ft.dst_ip = 0xC0A80000 + i;
    p.ft.dst_port = 445;
    p.ft.protocol = 6;
    p.ts_ns = i * 1000;
    trace.push_back(p);
  }
  w.dp.process_batch(trace);

  Packet worm_probe;
  worm_probe.ft.src_ip = 0x0A424242;
  EXPECT_TRUE(w.ctl.distinct_over_threshold(r.task_id, worm_probe));
}

TEST(Table1, PortScan_IpPairDistinctDstPort) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::ip_pair();
  s.attribute = AttributeKind::kDistinct;
  s.param = ParamSpec::compressed(FlowKeySpec::dst_port());
  s.report_threshold = 128;
  s.memory_buckets = 16384;
  s.rows = 3;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;

  std::vector<Packet> trace;
  // Scanner sweeps 400 ports on one victim; a normal pair uses 3 ports.
  for (unsigned i = 0; i < 400; ++i) {
    Packet p;
    p.ft.src_ip = 0x0A111111;
    p.ft.dst_ip = 0xC0A80042;
    p.ft.dst_port = static_cast<std::uint16_t>(i + 1);
    p.ft.protocol = 6;
    p.ts_ns = i;
    trace.push_back(p);
  }
  for (unsigned i = 0; i < 400; ++i) {
    Packet p;
    p.ft.src_ip = 0x0A222222;
    p.ft.dst_ip = 0xC0A80043;
    p.ft.dst_port = static_cast<std::uint16_t>(80 + (i % 3));
    p.ft.protocol = 6;
    p.ts_ns = 1'000'000 + i;
    trace.push_back(p);
  }
  w.dp.process_batch(trace);

  Packet scanner = trace[0];
  Packet normal = trace[500];
  EXPECT_TRUE(w.ctl.distinct_over_threshold(r.task_id, scanner));
  EXPECT_FALSE(w.ctl.distinct_over_threshold(r.task_id, normal));
}

TEST(Table1, PerFlowBytes_FlowIdFrequencyPktBytes) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.param = ParamSpec::metadata(MetaField::kWireBytes);
  s.memory_buckets = 16384;
  s.rows = 3;
  EXPECT_TRUE(w.ctl.add_task(s).ok);
}

TEST(Table1, Blacklist_ExistenceFlowId) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kExistence;
  s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  s.memory_buckets = 8192;
  s.rows = 3;
  EXPECT_TRUE(w.ctl.add_task(s).ok);
}

TEST(Table1, Congestion_MaxQueueLength) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kMax;
  s.param = ParamSpec::metadata(MetaField::kQueueLen);
  s.memory_buckets = 16384;
  s.rows = 2;
  EXPECT_TRUE(w.ctl.add_task(s).ok);
}

TEST(Table1, HolBlocking_MaxQueueDelay) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kMax;
  s.param = ParamSpec::metadata(MetaField::kQueueDelay);
  s.memory_buckets = 16384;
  s.rows = 2;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;

  TraceConfig cfg;
  cfg.num_flows = 500;
  cfg.num_packets = 20'000;
  const auto trace = TraceGenerator::generate(cfg);
  w.dp.process_batch(trace);
  const FreqMap truth =
      ExactStats::max_value(trace, s.key, MetaField::kQueueDelay);
  unsigned checked = 0, exact = 0;
  for (const auto& [k, mx] : truth) {
    const auto est = w.ctl.query_value(r.task_id, packet_from_candidate_key(k.bytes));
    exact += (est == mx);
    ++checked;
  }
  EXPECT_GT(static_cast<double>(exact) / checked, 0.95);
}

TEST(Table1, HeavyChanger_SnapshotDelta) {
  World w;
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 32768;
  s.rows = 3;
  const auto r = w.ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  // Epoch 1: background only.  Epoch 2: one flow explodes, one vanishes.
  TraceConfig cfg;
  cfg.num_flows = 1000;
  cfg.num_packets = 50'000;
  const auto epoch1 = TraceGenerator::generate(cfg);
  w.dp.process_batch(epoch1);
  const auto snap = w.ctl.snapshot_task(r.task_id);

  const FreqMap truth1 = ExactStats::frequency(epoch1, s.key);
  // Build epoch 2 = epoch 1 minus the biggest flow, plus a brand-new
  // elephant.
  FlowKeyValue vanished;
  std::uint64_t biggest = 0;
  for (const auto& [k, f] : truth1) {
    if (f > biggest) {
      biggest = f;
      vanished = k;
    }
  }
  std::vector<Packet> epoch2;
  for (const Packet& p : epoch1) {
    if (!(extract_flow_key(p, s.key) == vanished)) epoch2.push_back(p);
  }
  Packet elephant;
  elephant.ft = FiveTuple{0x0AFEFEFE, 0xC0A8FE01, 1234, 80, 6};
  for (int i = 0; i < 5000; ++i) {
    elephant.ts_ns = static_cast<std::uint64_t>(i) * 1000;
    epoch2.push_back(elephant);
  }

  w.dp.clear_registers();
  w.dp.process_batch(epoch2);

  std::vector<FlowKeyValue> candidates;
  for (const auto& [k, f] : truth1) candidates.push_back(k);
  candidates.push_back(extract_flow_key(elephant, s.key));

  const auto changers = w.ctl.detect_heavy_changers(r.task_id, snap, candidates, 2000);
  std::unordered_set<FlowKeyValue> reported(changers.begin(), changers.end());
  EXPECT_TRUE(reported.count(extract_flow_key(elephant, s.key))) << "new elephant";
  EXPECT_TRUE(reported.count(vanished)) << "vanished flow";
  EXPECT_LE(changers.size(), 5u) << "stable flows must not be reported";
}

TEST(Table1, AllAttributesCoexistOnOnePipe) {
  // One task per attribute, simultaneously (the paper's headline ability).
  World w;
  unsigned deployed = 0;
  TaskSpec f;
  f.key = FlowKeySpec::five_tuple();
  f.attribute = AttributeKind::kFrequency;
  f.memory_buckets = 16384;
  f.rows = 3;
  deployed += w.ctl.add_task(f).ok;

  TaskSpec d;
  d.key = FlowKeySpec::dst_ip();
  d.attribute = AttributeKind::kDistinct;
  d.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  d.report_threshold = 512;
  d.memory_buckets = 16384;
  d.rows = 3;
  deployed += w.ctl.add_task(d).ok;

  TaskSpec e;
  e.key = FlowKeySpec::five_tuple();
  e.attribute = AttributeKind::kExistence;
  e.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  e.filter = TaskFilter::src(0x0A000000, 8);
  e.memory_buckets = 8192;
  e.rows = 3;
  deployed += w.ctl.add_task(e).ok;

  TaskSpec m;
  m.key = FlowKeySpec::ip_pair();
  m.attribute = AttributeKind::kMax;
  m.param = ParamSpec::metadata(MetaField::kQueueLen);
  m.memory_buckets = 16384;
  m.rows = 2;
  deployed += w.ctl.add_task(m).ok;

  TaskSpec sim;
  sim.key = FlowKeySpec{0, 32, 16, 16, 8, 0};
  sim.attribute = AttributeKind::kSimilarity;
  sim.filter = TaskFilter::src(0x0B000000, 8);
  sim.memory_buckets = 8192;
  deployed += w.ctl.add_task(sim).ok;

  EXPECT_EQ(deployed, 5u) << "all five attributes live concurrently";
  EXPECT_EQ(w.ctl.num_tasks(), 5u);
}

}  // namespace
}  // namespace flymon
