// Tests for the paper's §6 / appendix extensions: the XOR reserved-slot
// operation and Odd Sketch similarity, spliced cross-stacking (Appendix E),
// task splitting (§3.1.1), the network-wide layer, and the epoch runner.
#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/metrics.hpp"
#include "control/controller.hpp"
#include "control/crossstack.hpp"
#include "control/epoch.hpp"
#include "common/hash.hpp"
#include "control/network.hpp"
#include "packet/trace_gen.hpp"
#include "sketch/odd_sketch.hpp"

namespace flymon {
namespace {

/// The Odd Sketch of the element ids [lo, hi) plus `extra`: each element
/// toggles one parity bit, as the data plane's XOR op does, and the control
/// plane loads the parities with load_parity.
sketch::OddSketch odd_sketch_of(std::uint64_t m_bits, std::uint64_t lo, std::uint64_t hi,
                                const std::vector<std::uint64_t>& extra = {}) {
  std::vector<bool> parity(m_bits);
  for (std::uint64_t id = lo; id < hi; ++id) parity[mix64(id) % m_bits].flip();
  for (const std::uint64_t id : extra) parity[mix64(id) % m_bits].flip();
  sketch::OddSketch os(m_bits);
  for (std::uint64_t i = 0; i < m_bits; ++i) os.load_parity(i, parity[i]);
  return os;
}

// -------- XOR stateful op --------

TEST(XorOp, TogglesRegisterBits) {
  dataplane::RegisterArray r(4);
  dataplane::Salu s(r);
  s.preload(dataplane::StatefulOp::kXor);
  EXPECT_EQ(s.execute(dataplane::StatefulOp::kXor, 0, 0b101, 0), 0b101u);
  EXPECT_EQ(s.execute(dataplane::StatefulOp::kXor, 0, 0b001, 0), 0b100u);
  EXPECT_EQ(s.execute(dataplane::StatefulOp::kXor, 0, 0b100, 0), 0b000u);
}

TEST(XorOp, FitsInReservedSlot) {
  Cmu cmu(64);  // three reduced ops pre-loaded
  EXPECT_NO_THROW(cmu.preload_op(dataplane::StatefulOp::kXor));
  EXPECT_NO_THROW(cmu.preload_op(dataplane::StatefulOp::kXor));  // idempotent
  EXPECT_THROW(cmu.preload_op(dataplane::StatefulOp::kNop), std::runtime_error)
      << "only one reserved slot exists";
}

// -------- Odd Sketch baseline --------

TEST(OddSketch, SizeEstimate) {
  const sketch::OddSketch os = odd_sketch_of(1 << 16, 0, 5000);
  EXPECT_NEAR(os.estimate_size(), 5000.0, 500.0);
}

TEST(OddSketch, DuplicateTogglesCancel) {
  const sketch::OddSketch os = odd_sketch_of(4096, 0, 0, {1, 1});
  EXPECT_EQ(os.odd_bits(), 0u);
}

TEST(OddSketch, SymmetricDifference) {
  // A = [0,3000), B = [1000,4000): |A delta B| = 2000.
  const sketch::OddSketch a = odd_sketch_of(1 << 16, 0, 3000);
  const sketch::OddSketch b = odd_sketch_of(1 << 16, 1000, 4000);
  EXPECT_NEAR(a.estimate_symmetric_difference(b), 2000.0, 300.0);
}

TEST(OddSketch, JaccardEndpoints) {
  const sketch::OddSketch a = odd_sketch_of(1 << 14, 0, 2000);
  const sketch::OddSketch b = odd_sketch_of(1 << 14, 0, 2000);          // identical set
  const sketch::OddSketch c = odd_sketch_of(1 << 14, 100000, 102000);  // disjoint set
  EXPECT_GT(a.estimate_jaccard(b), 0.9);
  EXPECT_LT(a.estimate_jaccard(c), 0.15);
}

TEST(OddSketch, GeometryMismatchRejected) {
  sketch::OddSketch a(1024), b(2048);
  EXPECT_THROW((void)a.estimate_symmetric_difference(b), std::invalid_argument);
}

// -------- FlyMon-OddSketch end-to-end --------

TEST(FlyMonOddSketch, JaccardOfTwoTrafficSets) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);

  // The set element is the flow identity *excluding* the filtered source
  // dimension, so flows from the two sets can genuinely coincide.
  const FlowKeySpec element{0, 32, 16, 16, 8, 0};  // DstIP+ports+proto
  auto mk_spec = [&](std::uint32_t src_base) {
    TaskSpec s;
    s.name = "set";
    s.filter = TaskFilter::src(src_base, 8);
    s.key = element;
    s.attribute = AttributeKind::kSimilarity;
    s.memory_buckets = 8192;
    return s;
  };
  const auto ra = ctl.add_task(mk_spec(0x0A00'0000));
  const auto rb = ctl.add_task(mk_spec(0x0B00'0000));
  ASSERT_TRUE(ra.ok) << ra.error;
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_EQ(ctl.task(ra.task_id)->algorithm, Algorithm::kOddSketch);

  // Two traffic sets with exactly 50% flow overlap (same dst identity;
  // flows differ only in the filtered source octet).
  std::vector<Packet> trace;

  for (std::uint32_t f = 0; f < 4000; ++f) {
    Packet p;
    p.ft.dst_ip = 0xC0A80000 + f;
    p.ft.src_port = 1000;
    p.ft.dst_port = 80;
    p.ft.protocol = 6;
    p.ts_ns = f * 1000;
    p.ft.src_ip = 0x0A000000 | (f & 0xFFFF);  // set A member
    trace.push_back(p);
    if (f < 2000) {  // half of B equals A modulo the source octet...
      p.ft.src_ip = 0x0B000000 | (f & 0xFFFF);
      trace.push_back(p);
    } else {  // ...half is disjoint
      p.ft.src_ip = 0x0B000000 | ((f + 50000) & 0xFFFF);
      p.ft.dst_ip = 0xC0A90000 + f;
      trace.push_back(p);
    }
  }
  dp.process_batch(trace);

  // |A| = |B| = 4000, |A and B| = 2000 => |A delta B| = 4000, J = 1/3.
  const double size_a = ctl.estimate_set_size(ra.task_id);
  EXPECT_NEAR(size_a, 4000.0, 700.0);
  const double sd = ctl.estimate_symmetric_difference(ra.task_id, rb.task_id);
  EXPECT_NEAR(sd, 4000.0, 1200.0);
  EXPECT_NEAR(ctl.estimate_jaccard(ra.task_id, rb.task_id), 1.0 / 3, 0.15);
}

TEST(FlyMonOddSketch, IncomparablePlacementsRejected) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  TaskSpec a;
  a.filter = TaskFilter::src(0x0A000000, 8);
  a.key = FlowKeySpec::five_tuple();
  a.attribute = AttributeKind::kSimilarity;
  a.memory_buckets = 8192;
  TaskSpec b = a;
  b.filter = TaskFilter::src(0x0B000000, 8);
  b.memory_buckets = 32768;  // different geometry
  const auto ra = ctl.add_task(a);
  const auto rb = ctl.add_task(b);
  ASSERT_TRUE(ra.ok && rb.ok);
  EXPECT_THROW((void)ctl.estimate_jaccard(ra.task_id, rb.task_id),
               std::invalid_argument);
}

// -------- Appendix E: spliced stacking --------

TEST(SplicedStack, ThreeExtraGroupsViaRecirculation) {
  const auto sp = control::cross_stack_spliced(12);
  EXPECT_EQ(sp.straight_groups, 9u);
  EXPECT_EQ(sp.spliced_groups, 3u);
  EXPECT_EQ(sp.plan.groups_placed, 12u);
  EXPECT_NEAR(sp.recirculated_fraction(), 0.25, 1e-9);
}

TEST(SplicedStack, FullPipeHashUtilization) {
  const auto sp = control::cross_stack_spliced(12);
  EXPECT_DOUBLE_EQ(sp.plan.pipeline.utilization(dataplane::Resource::kHashUnit), 1.0)
      << "12 groups x 6 units = all 72 hash units";
  EXPECT_DOUBLE_EQ(sp.plan.pipeline.utilization(dataplane::Resource::kSalu), 0.75);
}

TEST(SplicedStack, NoSplicingWhenPipeTooSmall) {
  const auto sp = control::cross_stack_spliced(4);
  EXPECT_LE(sp.spliced_groups, 3u);
  EXPECT_GE(sp.plan.groups_placed, sp.straight_groups);
}

// -------- task splitting --------

TEST(SplitTask, HalvesTheFilter) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  TaskSpec s;
  s.filter = TaskFilter::src(0x0A000000, 8);
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 8192;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);
  const auto [lo, hi] = ctl.split_task(r.task_id);
  ASSERT_TRUE(lo.ok) << lo.error;
  ASSERT_TRUE(hi.ok) << hi.error;
  EXPECT_EQ(ctl.task(r.task_id), nullptr) << "original reclaimed";
  const auto* tl = ctl.task(lo.task_id);
  const auto* th = ctl.task(hi.task_id);
  EXPECT_EQ(tl->spec.filter.src_len, 9);
  EXPECT_EQ(th->spec.filter.src_len, 9);
  EXPECT_EQ(th->spec.filter.src_ip, 0x0A800000u);
  EXPECT_FALSE(tl->spec.filter.intersects(th->spec.filter));
}

TEST(SplitTask, RejectsHostRouteAndUnknown) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  EXPECT_FALSE(ctl.split_task(99).first.ok);
  TaskSpec s;
  s.filter = TaskFilter{0x0A000001, 32, 0xC0A80001, 32};
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);
  EXPECT_FALSE(ctl.split_task(r.task_id).first.ok);
  EXPECT_NE(ctl.task(r.task_id), nullptr) << "failed split must not drop the task";
}

TEST(SplitTask, ReducesCollisionError) {
  // Same total per-subtask memory, half the flows each: ARE must drop.
  TraceConfig cfg;
  cfg.num_flows = 20'000;
  cfg.num_packets = 200'000;
  const auto trace = TraceGenerator::generate(cfg);

  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  TaskSpec s;
  s.filter = TaskFilter::src(0x0A000000, 8);
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 2048;  // deliberately tight
  s.rows = 3;
  const auto whole = ctl.add_task(s);
  ASSERT_TRUE(whole.ok);
  dp.process_batch(trace);
  const FreqMap truth = ExactStats::frequency(trace, s.key);
  const double are_whole = analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
    return ctl.query_value(whole.task_id, packet_from_candidate_key(k.bytes));
  });

  FlyMonDataPlane dp2(9);
  control::Controller ctl2(dp2);
  const auto base = ctl2.add_task(s);
  ASSERT_TRUE(base.ok);
  const auto [lo, hi] = ctl2.split_task(base.task_id);
  ASSERT_TRUE(lo.ok && hi.ok);
  dp2.process_batch(trace);
  const double are_split = analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
    const Packet probe = packet_from_candidate_key(k.bytes);
    const auto id = ctl2.task(lo.task_id)->spec.filter.matches(probe.ft) ? lo.task_id
                                                                         : hi.task_id;
    return ctl2.query_value(id, probe);
  });
  EXPECT_LT(are_split, are_whole);
}

// -------- network-wide layer --------

TEST(Network, DeployEverywhereAllOrNothing) {
  control::NetworkFlyMon net(3, 1);  // tiny switches
  TaskSpec big;
  big.key = FlowKeySpec::five_tuple();
  big.attribute = AttributeKind::kFrequency;
  big.memory_buckets = 65536;
  big.rows = 3;
  const auto t1 = net.deploy_everywhere(big);
  ASSERT_TRUE(t1.ok) << t1.error;
  EXPECT_EQ(t1.per_switch_id.size(), 3u);
  // A second identical wildcard task cannot fit anywhere (memory + filter
  // conflicts): all-or-nothing must leave every switch unchanged.
  const auto t2 = net.deploy_everywhere(big);
  EXPECT_FALSE(t2.ok);
  for (unsigned i = 0; i < 3; ++i) EXPECT_EQ(net.controller(i).num_tasks(), 1u);
}

TEST(Network, EcmpPinsFlows) {
  control::NetworkFlyMon net(4, 1);
  TraceConfig cfg;
  cfg.num_flows = 200;
  cfg.num_packets = 2000;
  const auto trace = TraceGenerator::generate(cfg);
  std::unordered_map<FlowKeyValue, unsigned> first_seen;
  for (const Packet& p : trace) {
    const auto k = extract_flow_key(p, FlowKeySpec::five_tuple());
    const unsigned sw = net.route(p);
    const auto [it, fresh] = first_seen.try_emplace(k, sw);
    EXPECT_EQ(it->second, sw) << "a flow must always take the same path";
  }
  // And the load should spread across switches.
  std::array<unsigned, 4> load{};
  for (const auto& [k, sw] : first_seen) ++load[sw];
  for (unsigned l : load) EXPECT_GT(l, 20u);
}

TEST(Network, NetworkWideHeavyHitters) {
  control::NetworkFlyMon net(3, 9);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 16384;
  s.rows = 3;
  const auto t = net.deploy_everywhere(s);
  ASSERT_TRUE(t.ok) << t.error;

  TraceConfig cfg;
  cfg.num_flows = 5000;
  cfg.num_packets = 300'000;
  const auto trace = TraceGenerator::generate(cfg);
  net.process_all(trace);

  const FreqMap truth = ExactStats::frequency(trace, s.key);
  const auto hh_true = ExactStats::over_threshold(truth, 1024);
  std::vector<FlowKeyValue> candidates;
  for (const auto& [k, f] : truth) candidates.push_back(k);
  const auto reported = net.detect_over_threshold(t, candidates, 1024);
  const auto score = analysis::score_detection(hh_true, reported);
  EXPECT_GT(score.f1(), 0.95);
}

TEST(Network, CardinalitySumAcrossSwitches) {
  control::NetworkFlyMon net(3, 9);
  TaskSpec s;
  s.attribute = AttributeKind::kDistinct;
  s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  s.algorithm = Algorithm::kHyperLogLog;
  s.memory_buckets = 2048;
  const auto t = net.deploy_everywhere(s);
  ASSERT_TRUE(t.ok) << t.error;

  TraceConfig cfg;
  cfg.num_flows = 30'000;
  cfg.num_packets = 90'000;
  cfg.zipf_alpha = 0.3;
  const auto trace = TraceGenerator::generate(cfg);
  net.process_all(trace);
  const double truth =
      static_cast<double>(ExactStats::cardinality(trace, FlowKeySpec::five_tuple()));
  EXPECT_NEAR(net.estimate_cardinality_sum(t), truth, 0.1 * truth);
}

// -------- epoch runner --------

TEST(EpochRunner, SplitsTraceIntoWindows) {
  FlyMonDataPlane dp(1);
  control::EpochRunner runner(dp, 100'000'000);  // 100 ms epochs
  TraceConfig cfg;
  cfg.num_packets = 10'000;
  cfg.duration_ns = 1'000'000'000;
  const auto trace = TraceGenerator::generate(cfg);
  ingest::MemorySource source{trace};
  std::size_t seen = 0;
  unsigned calls = 0;
  const unsigned epochs = runner.run_stream(source, [&](unsigned e, std::span<const Packet> pkts) {
    EXPECT_EQ(e, calls);
    ++calls;
    seen += pkts.size();
    for (const Packet& p : pkts) {
      EXPECT_GE(p.ts_ns, std::uint64_t{e} * 100'000'000);
      EXPECT_LT(p.ts_ns, std::uint64_t{e + 1} * 100'000'000);
    }
  });
  EXPECT_EQ(seen, trace.size());
  EXPECT_EQ(epochs, calls);
  EXPECT_GE(epochs, 9u);
}

TEST(EpochRunner, AlignsToFirstPacket) {
  // A trace whose timestamps start at a large absolute value (e.g. CAIDA
  // epoch-relative nanoseconds) must not spin through tens of thousands of
  // empty leading windows: windows are aligned to the first packet's
  // timestamp rounded down to a whole epoch.
  FlyMonDataPlane dp(1);
  control::EpochRunner runner(dp, 100'000'000);  // 100 ms epochs
  const std::uint64_t base = 7'777'000'000'123;  // ~2.2 hours in
  std::vector<Packet> trace(4);
  trace[0].ts_ns = base;
  trace[1].ts_ns = base + 50'000'000;
  trace[2].ts_ns = base + 150'000'000;
  trace[3].ts_ns = base + 320'000'000;
  ingest::MemorySource source{trace};
  std::vector<std::size_t> per_epoch;
  const unsigned epochs = runner.run_stream(source, [&](unsigned, std::span<const Packet> pkts) {
    per_epoch.push_back(pkts.size());
  });
  EXPECT_EQ(epochs, 4u);
  ASSERT_EQ(per_epoch.size(), 4u);
  EXPECT_EQ(per_epoch[0], 2u);
  EXPECT_EQ(per_epoch[1], 1u);
  EXPECT_EQ(per_epoch[2], 0u);  // interior empty window still reported
  EXPECT_EQ(per_epoch[3], 1u);
}

TEST(EpochRunner, EmptyTraceIsZeroEpochs) {
  FlyMonDataPlane dp(1);
  control::EpochRunner runner(dp, 100'000'000);
  ingest::MemorySource source{std::span<const Packet>{}};
  const unsigned epochs = runner.run_stream(source, [](unsigned, auto) { FAIL(); });
  EXPECT_EQ(epochs, 0u);
}

TEST(EpochRunner, RegistersClearedBetweenEpochs) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 16384;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  TraceConfig cfg;
  cfg.num_flows = 300;
  cfg.num_packets = 30'000;
  cfg.duration_ns = 1'000'000'000;
  const auto trace = TraceGenerator::generate(cfg);
  control::EpochRunner runner(dp, 250'000'000);
  ingest::MemorySource source{trace};
  runner.run_stream(source, [&](unsigned, std::span<const Packet> pkts) {
    // Within each epoch the estimates match the *epoch* ground truth —
    // proof that the previous epoch's state is gone.
    const FreqMap truth = ExactStats::frequency(pkts, s.key);
    const double are = analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
      return ctl.query_value(r.task_id, packet_from_candidate_key(k.bytes));
    });
    EXPECT_LT(are, 0.02);
  });
}

}  // namespace
}  // namespace flymon
