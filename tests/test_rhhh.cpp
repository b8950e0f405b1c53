// Tests for the RHHH composite task (hierarchical heavy hitters through
// probabilistic execution on shared CMUs).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "control/rhhh.hpp"
#include "packet/trace_gen.hpp"

namespace flymon::control {
namespace {

TEST(Rhhh, DeploysOneTaskPerLevel) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto t = RhhhTask::deploy(ctl, {8, 16, 24, 32}, 16384);
  ASSERT_TRUE(t.ok()) << t.error();
  EXPECT_EQ(t.task_ids().size(), 4u);
  EXPECT_EQ(ctl.num_tasks(), 4u);
  // Whatever CMU chain each level landed on, its *unconditional* share of
  // the traffic must be 1/L: p_task x product(1 - p) over its predecessors.
  for (std::uint32_t id : t.task_ids()) {
    const auto* dt = ctl.task(id);
    const auto& up = dt->rows.front().units.front();
    const auto& entries = dp.group(up.group).cmu(up.cmu).entries();
    double unconditional = 1.0;
    for (const auto& e : entries) {
      if (e.task_id == up.phys_id) {
        unconditional *= e.sample_probability;
        break;
      }
      unconditional *= 1.0 - e.sample_probability;
    }
    EXPECT_NEAR(unconditional, 0.25, 1e-9) << "task " << id;
  }
  t.remove(ctl);
  EXPECT_EQ(ctl.num_tasks(), 0u);
}

TEST(Rhhh, RejectsEmptyLevels) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  EXPECT_FALSE(RhhhTask::deploy(ctl, {}, 1024).ok());
}

TEST(Rhhh, SamplingCorrectedLevelEstimates) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto t = RhhhTask::deploy(ctl, {8, 16, 24, 32}, 8192);
  ASSERT_TRUE(t.ok()) << t.error();

  Packet p;
  p.ft.src_ip = 0x0A010203;
  p.ft.protocol = 6;
  for (int i = 0; i < 40'000; ++i) {
    p.ts_ns = static_cast<std::uint64_t>(i) * 1000;
    dp.process(p);
  }
  // Each level sampled ~1/4 of 40K; scaled estimates recover ~40K.
  for (std::uint8_t len : {8, 16, 24, 32}) {
    EXPECT_NEAR(static_cast<double>(t.query_level(ctl, len, p)), 40'000.0, 4000.0)
        << "/" << int(len);
  }
  EXPECT_EQ(t.query_level(ctl, 12, p), 0u) << "undeployed level";
}

TEST(Rhhh, HierarchicalSemantics) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto t = RhhhTask::deploy(ctl, {8, 24}, 32768);
  ASSERT_TRUE(t.ok()) << t.error();

  // 10.1.1.0/24 is an HHH by itself (one hot host cluster); 10.2.0.0/8's
  // traffic is spread over many /24s that each stay below threshold, so
  // only the /8 aggregate should be reported for it.
  std::vector<Packet> trace;
  flymon::Rng rng(5);
  auto emit = [&](std::uint32_t src, int count) {
    Packet p;
    p.ft.src_ip = src;
    p.ft.protocol = 6;
    for (int i = 0; i < count; ++i) {
      p.ts_ns = rng.next_below(1'000'000'000);
      trace.push_back(p);
    }
  };
  emit(0x0A010101, 30'000);  // hot /24 inside 10/8
  for (unsigned i = 0; i < 120; ++i) {
    emit(0x0B000000 | (i << 8) | 1, 300);  // 11/8: spread across 120 /24s
  }
  TraceGenerator::sort_by_time(trace);
  dp.process_batch(trace);

  std::vector<FlowKeyValue> candidates;
  {
    std::unordered_set<FlowKeyValue> seen;
    for (const Packet& p : trace) {
      if (seen.insert(extract_flow_key(p, FlowKeySpec::src_ip())).second) {
        candidates.push_back(extract_flow_key(p, FlowKeySpec::src_ip()));
      }
    }
  }
  const auto reports = t.hierarchical_heavy_hitters(ctl, candidates, 10'000);

  bool hot24 = false, eleven8 = false, ten8_residual = false;
  for (const auto& r : reports) {
    const Packet p = packet_from_candidate_key(r.key.bytes);
    if (r.prefix_len == 24 && (p.ft.src_ip >> 8) == 0x0A0101) hot24 = true;
    if (r.prefix_len == 8 && (p.ft.src_ip >> 24) == 0x0B) eleven8 = true;
    // 10/8 must NOT be reported: its traffic is fully explained by the /24.
    if (r.prefix_len == 8 && (p.ft.src_ip >> 24) == 0x0A) ten8_residual = true;
  }
  EXPECT_TRUE(hot24) << "the hot /24 is an HHH";
  EXPECT_TRUE(eleven8) << "the diffuse /8 is an HHH at the coarse level";
  EXPECT_FALSE(ten8_residual) << "ancestors of reported HHHs are discounted";
}

}  // namespace
}  // namespace flymon::control
