// Control-plane tests: task compilation, placement, resource management,
// lifecycle, and readout plumbing.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <sstream>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "control/controller.hpp"
#include "control/shell.hpp"
#include "exec/exec_plan.hpp"
#include "packet/trace_gen.hpp"

namespace flymon::control {
namespace {

TaskSpec freq_spec(std::uint32_t buckets = 8192, unsigned rows = 3) {
  TaskSpec s;
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = buckets;
  s.rows = rows;
  return s;
}

constexpr Algorithm kAllAlgorithms[] = {
    Algorithm::kCms,         Algorithm::kSuMaxSum,       Algorithm::kMrac,
    Algorithm::kTowerSketch, Algorithm::kCounterBraids,  Algorithm::kBeauCoup,
    Algorithm::kHyperLogLog, Algorithm::kLinearCounting, Algorithm::kBloomFilter,
    Algorithm::kSuMaxMax,    Algorithm::kMaxInterarrival, Algorithm::kOddSketch};

/// A deployable single-task spec for each algorithm.
TaskSpec algorithm_spec(Algorithm a) {
  TaskSpec s;
  s.name = to_string(a);
  s.algorithm = a;
  s.memory_buckets = 8192;
  s.rows = 3;
  s.report_threshold = 512;
  switch (a) {
    case Algorithm::kBeauCoup:
      s.key = FlowKeySpec::dst_ip();
      s.attribute = AttributeKind::kDistinct;
      s.param = ParamSpec::compressed(FlowKeySpec::src_ip());
      break;
    case Algorithm::kHyperLogLog:
    case Algorithm::kLinearCounting:
      s.attribute = AttributeKind::kDistinct;
      s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
      break;
    case Algorithm::kBloomFilter:
      s.key = FlowKeySpec::five_tuple();
      s.attribute = AttributeKind::kExistence;
      s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
      break;
    case Algorithm::kSuMaxMax:
    case Algorithm::kMaxInterarrival:
      s.key = FlowKeySpec::five_tuple();
      s.attribute = AttributeKind::kMax;
      s.param = ParamSpec::metadata(MetaField::kQueueLen);
      break;
    case Algorithm::kOddSketch:
      s.key = FlowKeySpec::five_tuple();
      s.attribute = AttributeKind::kSimilarity;
      break;
    default:
      s.key = FlowKeySpec::five_tuple();
      s.attribute = AttributeKind::kFrequency;
  }
  return s;
}

TEST(Controller, DeploysEveryAlgorithm) {
  for (Algorithm a : kAllAlgorithms) {
    FlyMonDataPlane dp(9);
    Controller ctl(dp);
    const auto r = ctl.add_task(algorithm_spec(a));
    EXPECT_TRUE(r.ok) << to_string(a) << ": " << r.error;
    EXPECT_GT(r.report.table_rules, 0u) << to_string(a);
    EXPECT_GT(r.report.delay_ms(), 0.0) << to_string(a);
  }
}

TEST(Controller, AutoSelectsAlgorithmPerAttribute) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec s = freq_spec();
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(ctl.task(r.task_id)->algorithm, Algorithm::kCms);

  TaskSpec d;
  d.key = FlowKeySpec::dst_ip();
  d.attribute = AttributeKind::kDistinct;
  d.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  d.filter = TaskFilter::src(0x0B000000, 8);
  d.memory_buckets = 4096;
  const auto r2 = ctl.add_task(d);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(ctl.task(r2.task_id)->algorithm, Algorithm::kBeauCoup);
}

TEST(Controller, RejectsEmptyKey) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec s;
  s.attribute = AttributeKind::kFrequency;  // no key, no key-valued param
  const auto r = ctl.add_task(s);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(Controller, GreedyKeyReuseAvoidsMaskRules) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec a = freq_spec(4096, 1);
  a.filter = TaskFilter::src(0x0A000000, 8);
  const auto r1 = ctl.add_task(a);
  ASSERT_TRUE(r1.ok);
  EXPECT_EQ(r1.report.hash_mask_rules, 1u);

  TaskSpec b = freq_spec(4096, 1);
  b.filter = TaskFilter::src(0x0B000000, 8);  // disjoint filter, same key
  const auto r2 = ctl.add_task(b);
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.report.hash_mask_rules, 0u) << "second task reuses the compressed key";
}

// A compressed-key parameter costs a hash mask only where the algorithm
// reads it: Tower, unpacked Bloom/LinearCounting, Odd Sketch and
// MaxInterarrival key their cells on the flow key alone.
TEST(Controller, UnreadParameterKeyConfiguresNoHashMask) {
  for (Algorithm a : {Algorithm::kTowerSketch, Algorithm::kBloomFilter,
                      Algorithm::kLinearCounting, Algorithm::kOddSketch,
                      Algorithm::kMaxInterarrival, Algorithm::kCms}) {
    FlyMonDataPlane dp(9);
    Controller ctl(dp);
    TaskSpec s = algorithm_spec(a);
    s.key = FlowKeySpec::src_ip();
    s.param = ParamSpec::compressed(FlowKeySpec::dst_ip());
    s.bloom_bit_packed = false;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << to_string(a) << ": " << r.error;
    // One SrcIP mask per group the task uses; CMS also reads DstIP.
    const unsigned per_group = a == Algorithm::kCms ? 2u : 1u;
    EXPECT_EQ(r.report.hash_mask_rules, per_group * r.report.groups_used)
        << to_string(a);
  }
}

TEST(Controller, ComposesIpPairFromExistingKeys) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec a = freq_spec(4096, 1);
  a.key = FlowKeySpec::src_ip();
  a.filter = TaskFilter::src(0x0A000000, 8);
  ASSERT_TRUE(ctl.add_task(a).ok);

  TaskSpec b = freq_spec(4096, 1);
  b.key = FlowKeySpec::ip_pair();
  b.filter = TaskFilter::src(0x0B000000, 8);
  const auto r = ctl.add_task(b);
  ASSERT_TRUE(r.ok);
  // Only DstIP needs a new mask; SrcIP is reused via XOR.
  EXPECT_EQ(r.report.hash_mask_rules, 1u);
}

TEST(Controller, MemoryExhaustionReported) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  TaskSpec big = freq_spec(65536, 3);  // consumes all three CMUs entirely
  ASSERT_TRUE(ctl.add_task(big).ok);
  TaskSpec more = freq_spec(4096, 1);
  more.filter = TaskFilter::src(0x0C000000, 8);
  const auto r = ctl.add_task(more);
  EXPECT_FALSE(r.ok);
}

TEST(Controller, IntersectingWildcardTasksLandOnDifferentCmus) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  // Two wildcard single-row tasks: same group is fine, same CMU is not.
  const auto r1 = ctl.add_task(freq_spec(4096, 1));
  const auto r2 = ctl.add_task(freq_spec(4096, 1));
  ASSERT_TRUE(r1.ok);
  ASSERT_TRUE(r2.ok);
  const auto* t1 = ctl.task(r1.task_id);
  const auto* t2 = ctl.task(r2.task_id);
  EXPECT_NE(t1->rows[0].units[0].cmu, t2->rows[0].units[0].cmu);
}

TEST(Controller, RemoveReleasesMemoryAndKeys) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  const std::uint32_t total = dp.group(0).config().register_buckets;
  const auto r = ctl.add_task(freq_spec(total, 3));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(ctl.free_buckets(0, 0), 0u);
  ASSERT_TRUE(ctl.remove_task(r.task_id));
  EXPECT_EQ(ctl.free_buckets(0, 0), total);
  // The compressed key unit was garbage-collected: redeploying needs a mask.
  const auto r2 = ctl.add_task(freq_spec(4096, 1));
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(r2.report.hash_mask_rules, 1u);
}

TEST(Controller, ResizeKeepsMeasuring) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto r = ctl.add_task(freq_spec(4096, 3));
  ASSERT_TRUE(r.ok);
  const auto r2 = ctl.resize_task(r.task_id, 16384);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.task_id, r.task_id);
  EXPECT_EQ(ctl.task(r2.task_id)->buckets, 16384u);
  EXPECT_EQ(ctl.num_tasks(), 1u);
  EXPECT_FALSE(ctl.resize_task(9999, 1024).ok);
  // Shrinking works too, and the id still sticks.
  const auto r3 = ctl.resize_task(r.task_id, 4096);
  ASSERT_TRUE(r3.ok) << r3.error;
  EXPECT_EQ(r3.task_id, r.task_id);
  EXPECT_EQ(ctl.task(r.task_id)->buckets, 4096u);
}

TEST(Controller, QuantizesMemoryByMode) {
  FlyMonDataPlane dp(9);
  Controller ctl_acc(dp, TranslationStrategy::kTcam, AllocMode::kAccurate);
  const auto r = ctl_acc.add_task(freq_spec(5000, 1));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(ctl_acc.task(r.task_id)->buckets, 8192u);

  FlyMonDataPlane dp2(9);
  Controller ctl_eff(dp2, TranslationStrategy::kTcam, AllocMode::kEfficient);
  const auto r2 = ctl_eff.add_task(freq_spec(5000, 1));
  ASSERT_TRUE(r2.ok);
  EXPECT_EQ(ctl_eff.task(r2.task_id)->buckets, 4096u);
}

TEST(Controller, ShiftStrategyUsesFewerTableRules) {
  FlyMonDataPlane dp(9);
  Controller tcam_ctl(dp, TranslationStrategy::kTcam);
  const auto rt = tcam_ctl.add_task(freq_spec(2048, 3));  // 1/32 partition
  ASSERT_TRUE(rt.ok);

  FlyMonDataPlane dp2(9);
  Controller shift_ctl(dp2, TranslationStrategy::kShift);
  const auto rs = shift_ctl.add_task(freq_spec(2048, 3));
  ASSERT_TRUE(rs.ok);
  EXPECT_LT(rs.report.table_rules, rt.report.table_rules);
}

TEST(Controller, ClearTaskStateZeroesPartitions) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto r = ctl.add_task(freq_spec(4096, 3));
  ASSERT_TRUE(r.ok);
  TraceConfig cfg;
  cfg.num_flows = 100;
  cfg.num_packets = 1000;
  const auto trace = TraceGenerator::generate(cfg);
  dp.process_batch(trace);
  EXPECT_GT(ctl.query_value(r.task_id, trace[0]), 0u);
  ctl.clear_task_state(r.task_id);
  EXPECT_EQ(ctl.query_value(r.task_id, trace[0]), 0u);
}

// A batch submitted between remove_task's merge and its publish fence is
// folded into the freed partition after the removal cleared it.  A task
// placed there later must still start from zero.
TEST(Controller, ReusedPartitionStartsZeroed) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  const auto first = ctl.add_task(freq_spec(4096, 1));
  ASSERT_TRUE(first.ok) << first.error;
  const UnitPlacement freed = ctl.task(first.task_id)->rows.at(0).units.at(0);
  ASSERT_TRUE(ctl.remove_task(first.task_id));
  // Stand-in for that late fold: counts left in the freed partition.
  auto& reg = dp.group(freed.group).cmu(freed.cmu).reg();
  reg.write(freed.partition.base, 42);
  reg.write(freed.partition.end() - 1, 7);

  const auto second = ctl.add_task(freq_spec(4096, 1));
  ASSERT_TRUE(second.ok) << second.error;
  const UnitPlacement reused = ctl.task(second.task_id)->rows.at(0).units.at(0);
  ASSERT_EQ(reused.group, freed.group);
  ASSERT_EQ(reused.cmu, freed.cmu);
  ASSERT_EQ(reused.partition, freed.partition)
      << "the new task did not land in the freed partition";
  for (const std::uint32_t v :
       reg.read_range(reused.partition.base, reused.partition.end())) {
    ASSERT_EQ(v, 0u) << "a reused partition starts with stale counts";
  }
}

/// The cell `up` maps `probe` to, reading keys from CmuGroup::compute_keys
/// (every configured lane of the group); `p1`, if given, receives the
/// entry's first parameter.  The referee for the prober's lazy lanes.
std::uint32_t every_lane_cell(const FlyMonDataPlane& dp, const UnitPlacement& up,
                              const Packet& probe, std::uint32_t* p1 = nullptr) {
  const CmuGroup& g = dp.group(up.group);
  const CompressionStage::UnitKeys keys = g.compute_keys(serialize_candidate_key(probe));
  const Cmu& cmu = g.cmu(up.cmu);
  const CmuTaskEntry& e = *cmu.find(up.phys_id);
  if (p1 != nullptr) {
    PhvContext ctx;
    *p1 = cmu.resolve_param(e.p1, probe, keys, ctx);
  }
  return cmu.reg().read(cmu.probe_address(e, keys));
}

// A group with two configured hash units (the fig12b A+B placement at 8K):
// the prober hashes only the lanes each read selects, and the bit-packed
// Bloom's parameter lane, yet answers exactly like the every-lane referee.
TEST(Controller, ProberAnswersFromTheLanesItReads) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec a = freq_spec(8192, 3);  // SrcIP
  a.filter = TaskFilter::src(0x0A00'0000, 8);
  TaskSpec b = freq_spec(8192, 3);
  b.key = FlowKeySpec::five_tuple();
  b.filter = TaskFilter::src(0x2D00'0000, 8);
  ASSERT_TRUE(ctl.add_task(a).ok);
  ASSERT_TRUE(ctl.add_task(b).ok);

  // Each task under test owns a disjoint /8, so it shares group 0's CMUs.
  const auto add = [&](TaskSpec s, std::uint32_t net) {
    s.filter = TaskFilter::src(net << 24, 8);
    s.memory_buckets = 1024;
    const DeployResult r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << to_string(s.algorithm) << ": " << r.error;
    return r.task_id;
  };
  TaskSpec cms = algorithm_spec(Algorithm::kCms);
  // The 5-tuple key is the XOR of both lanes; this Bloom's key reads one,
  // and only its bit-select parameter reads the other.
  TaskSpec packed = algorithm_spec(Algorithm::kBloomFilter);
  packed.key = FlowKeySpec::src_ip();
  TaskSpec plain = algorithm_spec(Algorithm::kBloomFilter);
  plain.bloom_bit_packed = false;
  TaskSpec tower = algorithm_spec(Algorithm::kTowerSketch);
  tower.key = FlowKeySpec::src_ip();
  const std::uint32_t cms_id = add(cms, 11);
  const std::uint32_t packed_id = add(packed, 12);
  const std::uint32_t plain_id = add(plain, 13);
  const std::uint32_t sumax_id = add(algorithm_spec(Algorithm::kSuMaxSum), 14);
  const std::uint32_t tower_id = add(tower, 15);
  unsigned configured = 0;
  for (unsigned u = 0; u < dp.group(0).compression().num_units(); ++u) {
    configured += dp.group(0).compression().spec_of(u) ? 1 : 0;
  }
  ASSERT_EQ(configured, 2u);
  for (const std::uint32_t id : {cms_id, packed_id, plain_id, tower_id}) {
    for (const RowPlacement& row : ctl.task(id)->rows) {
      ASSERT_EQ(row.units.at(0).group, 0u) << "task " << id;
    }
  }

  // Traffic for every /8, and as many probes that never arrived.
  Rng rng(17);
  std::vector<Packet> pkts;
  for (std::uint32_t net : {10u, 45u, 11u, 12u, 13u, 14u, 15u}) {
    for (int i = 0; i < 400; ++i) {
      Packet p;
      p.ft.src_ip = (net << 24) | static_cast<std::uint32_t>(rng.next() & 0xFFF);
      p.ft.dst_ip = 0x0B00'0000u | static_cast<std::uint32_t>(rng.next() & 0xFF);
      p.ft.src_port = static_cast<std::uint16_t>(rng.next());
      p.ft.dst_port = 80;
      p.ft.protocol = 6;
      pkts.push_back(p);
    }
  }
  dp.process_batch(pkts);
  std::vector<Packet> probes(pkts.begin(), pkts.end());
  for (Packet p : pkts) {
    p.ft.dst_port = 443;
    probes.push_back(p);
  }

  const auto rows = [&](std::uint32_t id) { return ctl.task(id)->rows; };
  for (std::size_t i = 0; i < probes.size(); i += 7) {
    const Packet& probe = probes[i];
    std::uint64_t want = ~0ull;
    for (const RowPlacement& row : rows(cms_id)) {
      want = std::min<std::uint64_t>(want, every_lane_cell(dp, row.units[0], probe));
    }
    EXPECT_EQ(ctl.query_value(cms_id, probe), want) << "cms, probe " << i;

    want = ~0ull;
    for (const RowPlacement& row : rows(sumax_id)) {
      for (const UnitPlacement& up : row.units) {
        want = std::min<std::uint64_t>(want, every_lane_cell(dp, up, probe));
      }
    }
    EXPECT_EQ(ctl.query_value(sumax_id, probe), want) << "sumax, probe " << i;

    std::uint64_t best = ~0ull, saturated = 0;
    const std::vector<RowPlacement> tower_rows = rows(tower_id);
    for (std::size_t r = 0; r < tower_rows.size(); ++r) {
      const unsigned width = 32u >> (r % 3);  // 32, 16, 8
      const std::uint32_t v = every_lane_cell(dp, tower_rows[r].units[0], probe) >> (32 - width);
      if (v == low_mask32(width)) {
        saturated = std::max<std::uint64_t>(saturated, v);
      } else {
        best = std::min<std::uint64_t>(best, v);
      }
    }
    EXPECT_EQ(ctl.query_value(tower_id, probe), best != ~0ull ? best : saturated)
        << "tower, probe " << i;

    bool packed_in = true, plain_in = true;
    for (const RowPlacement& row : rows(packed_id)) {
      std::uint32_t p1 = 0;
      const std::uint32_t cell = every_lane_cell(dp, row.units[0], probe, &p1);
      packed_in = packed_in && (cell & (1u << (p1 & 31u))) != 0;
    }
    for (const RowPlacement& row : rows(plain_id)) {
      plain_in = plain_in && every_lane_cell(dp, row.units[0], probe) != 0;
    }
    EXPECT_EQ(ctl.query_existence(packed_id, probe), packed_in) << "packed, probe " << i;
    EXPECT_EQ(ctl.query_existence(plain_id, probe), plain_in) << "plain, probe " << i;
  }
}

TEST(Controller, ChainedAlgorithmsSpanDistinctGroups) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.algorithm = Algorithm::kSuMaxSum;
  s.memory_buckets = 8192;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const auto* t = ctl.task(r.task_id);
  ASSERT_EQ(t->rows.size(), 1u);
  ASSERT_EQ(t->rows[0].units.size(), 3u);
  EXPECT_LT(t->rows[0].units[0].group, t->rows[0].units[1].group);
  EXPECT_LT(t->rows[0].units[1].group, t->rows[0].units[2].group);
}

// A chained task whose compressed-key parameter names another key must
// read that key: `add ... algo=SuMaxSum key=SrcIP param=key:DstIP`.
TEST(Controller, ChainedTasksReadTheParameterKey) {
  for (const Algorithm a : {Algorithm::kSuMaxSum, Algorithm::kCounterBraids}) {
    SCOPED_TRACE(to_string(a));
    FlyMonDataPlane dp(9);
    Controller ctl(dp);
    TaskSpec s = freq_spec(4096, 3);
    s.algorithm = a;
    s.param = ParamSpec::compressed(FlowKeySpec::dst_ip());
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << r.error;
    unsigned units = 0;
    for (const RowPlacement& row : ctl.task(r.task_id)->rows) {
      for (const UnitPlacement& up : row.units) {
        const CmuTaskEntry* e = dp.group(up.group).cmu(up.cmu).find(up.phys_id);
        ASSERT_NE(e, nullptr);
        ASSERT_EQ(e->p1.source, ParamSelect::Source::kCompressedKey);
        const auto sel =
            dp.group(up.group).compression().find_selector(s.param.key_spec);
        ASSERT_TRUE(sel.has_value()) << "group " << up.group;
        EXPECT_EQ(e->p1.key_sel, *sel) << "group " << up.group;
        ++units;
      }
    }
    EXPECT_GT(units, 0u);
  }
}

// A chain that runs out of groups halfway fails without leaving the
// units it already placed installed, allocated or hashed.
TEST(Controller, FailedChainLeavesNothingBehind) {
  FlyMonDataPlane dp(2);
  Controller ctl(dp);
  TaskSpec s = freq_spec(4096, 3);
  s.algorithm = Algorithm::kSuMaxSum;  // three units, one group each
  EXPECT_FALSE(ctl.add_task(s).ok);
  const std::uint32_t total = dp.group(0).config().register_buckets;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      EXPECT_TRUE(dp.group(g).cmu(c).entries().empty()) << "g" << g << "/c" << c;
      EXPECT_EQ(ctl.free_buckets(g, c), total) << "g" << g << "/c" << c;
    }
    const CompressionStage& comp = dp.group(g).compression();
    for (unsigned u = 0; u < comp.num_units(); ++u) {
      EXPECT_FALSE(comp.spec_of(u).has_value()) << "g" << g << " unit " << u;
    }
  }
  // The pipeline is still fully usable.
  EXPECT_TRUE(ctl.add_task(freq_spec(total, 3)).ok);
}

TEST(Controller, MaxInterarrivalUsesThreeCmusPerRow) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kMax;
  s.algorithm = Algorithm::kMaxInterarrival;
  s.memory_buckets = 8192;
  s.rows = 2;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok) << r.error;
  const auto* t = ctl.task(r.task_id);
  EXPECT_EQ(t->rows.size(), 2u);
  for (const auto& row : t->rows) EXPECT_EQ(row.units.size(), 3u);
}

TEST(Controller, QueriesRejectUnknownTask) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  Packet p;
  EXPECT_THROW(ctl.query_value(7, p), std::out_of_range);
  EXPECT_THROW(ctl.estimate_cardinality(7), std::out_of_range);
}

TEST(Controller, TaskIdsEnumerate) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto a = ctl.add_task(freq_spec(4096, 1));
  TaskSpec other = freq_spec(4096, 1);
  other.filter = TaskFilter::src(0x0D000000, 8);
  const auto b = ctl.add_task(other);
  ASSERT_TRUE(a.ok && b.ok);
  const auto ids = ctl.task_ids();
  EXPECT_EQ(ids.size(), 2u);
}

TEST(Controller, NinetySixTasksOnOneGroup) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  const std::uint32_t slice = dp.group(0).config().register_buckets / 32;
  unsigned deployed = 0;
  for (unsigned i = 0; i < 96; ++i) {
    TaskSpec t;
    t.filter = TaskFilter::src(0x0A000000u | (i << 16), 16);
    t.key = FlowKeySpec::five_tuple();
    t.attribute = AttributeKind::kFrequency;
    t.memory_buckets = slice;
    t.rows = 1;
    if (ctl.add_task(t).ok) ++deployed;
  }
  EXPECT_EQ(deployed, 96u);
}

// ---- placement golden ----
// Each deployment below is pinned line by line: the published plan's
// signature, every task's DeploymentReport and its UnitPlacements (group,
// CMU, phys id, partition).  Any change in CMU choice, phys or chain ids,
// key slices, partitions or rule counts shows up as the first line that
// differs from the expected text.

std::string placement_dump(const Controller& ctl) {
  std::ostringstream os;
  if (const auto plan = ctl.dataplane().current_plan()) {
    for (const std::string& line : plan->signature()) os << line << '\n';
  }
  for (const std::uint32_t id : ctl.task_ids()) {
    const DeployedTask& t = *ctl.task(id);
    const DeploymentReport& r = t.report;
    os << "task " << id << ' ' << to_string(t.algorithm) << " buckets=" << t.buckets
       << " rules=" << r.table_rules << " masks=" << r.hash_mask_rules
       << " groups=" << r.groups_used << " cmus=" << r.cmus_used << '\n';
    for (std::size_t ri = 0; ri < t.rows.size(); ++ri) {
      for (std::size_t ui = 0; ui < t.rows[ri].units.size(); ++ui) {
        const UnitPlacement& up = t.rows[ri].units[ui];
        os << "  row " << ri << " unit " << ui << ": g" << up.group << "/c" << up.cmu
           << " phys " << up.phys_id << " mem[" << up.partition.base << '+'
           << up.partition.size << "]\n";
      }
    }
  }
  return os.str();
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TaskSpec named(TaskSpec s, const char* name, TaskFilter filter = TaskFilter::any()) {
  s.name = name;
  s.filter = filter;
  return s;
}

/// Expected placement text per case, captured from the placement code
/// these deployments were first pinned against.
const std::pair<const char*, const char*> kPlacementGolden[] = {
    {"CMS", R"golden(add CMS -> 1
task 1 "CMS" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 "CMS" row 1 unit 0 @g0/c1: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 "CMS" row 2 unit 0 @g0/c2: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 CMS buckets=8192 rules=33 masks=1 groups=1 cmus=3
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 1 unit 0: g0/c1 phys 2 mem[0+8192]
  row 2 unit 0: g0/c2 phys 3 mem[0+8192]
)golden"},
    {"SuMax(Sum)", R"golden(add SuMax(Sum) -> 1
task 1 "SuMax(Sum)" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD chain_out=1
task 1 "SuMax(Sum)" row 0 unit 1 @g1/c0: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=const:1 p2=chain:1 prep=none op=Cond-ADD chain_out=1 fallback
task 1 "SuMax(Sum)" row 0 unit 2 @g2/c0: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=const:1 p2=chain:1 prep=none op=Cond-ADD chain_out=1 fallback
task 1 SuMax(Sum) buckets=8192 rules=33 masks=3 groups=3 cmus=3
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 0 unit 1: g1/c0 phys 2 mem[0+8192]
  row 0 unit 2: g2/c0 phys 3 mem[0+8192]
)golden"},
    {"MRAC", R"golden(add MRAC -> 1
task 1 "MRAC" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 MRAC buckets=8192 rules=11 masks=1 groups=1 cmus=1
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
)golden"},
    {"TowerSketch", R"golden(add TowerSketch -> 1
task 1 "TowerSketch" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 "TowerSketch" row 1 unit 0 @g0/c1: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=const:65536 p2=const:4294901760 prep=none op=Cond-ADD
task 1 "TowerSketch" row 2 unit 0 @g0/c2: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=const:16777216 p2=const:4278190080 prep=none op=Cond-ADD
task 1 TowerSketch buckets=8192 rules=33 masks=1 groups=1 cmus=3
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 1 unit 0: g0/c1 phys 2 mem[0+8192]
  row 2 unit 0: g0/c2 phys 3 mem[0+8192]
)golden"},
    {"CounterBraids", R"golden(add CounterBraids -> 1
task 1 "CounterBraids" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=const:1 p2=const:1024 prep=none op=Cond-ADD chain_out=1
task 1 "CounterBraids" row 0 unit 1 @g1/c0: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=keep0 gate=1 op=Cond-ADD
task 1 CounterBraids buckets=8192 rules=22 masks=2 groups=2 cmus=2
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 0 unit 1: g1/c0 phys 2 mem[0+8192]
)golden"},
    {"BeauCoup", R"golden(add BeauCoup -> 1
task 1 "BeauCoup" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u1^u-1[0+32] p2=const:4294967295 prep=coupon(32,0.0078125) op=AND-OR
task 1 "BeauCoup" row 1 unit 0 @g0/c1: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=key:u1^u-1[0+32] p2=const:4294967295 prep=coupon(32,0.0078125) op=AND-OR
task 1 "BeauCoup" row 2 unit 0 @g0/c2: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=key:u1^u-1[0+32] p2=const:4294967295 prep=coupon(32,0.0078125) op=AND-OR
task 1 BeauCoup buckets=8192 rules=66 masks=2 groups=1 cmus=3
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 1 unit 0: g0/c1 phys 2 mem[0+8192]
  row 2 unit 0: g0/c2 phys 3 mem[0+8192]
)golden"},
    {"HyperLogLog", R"golden(add HyperLogLog -> 1
task 1 "HyperLogLog" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[16+16] p2=const:4294967295 prep=none op=MAX
task 1 HyperLogLog buckets=8192 rules=11 masks=1 groups=1 cmus=1
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
)golden"},
    {"LinearCounting", R"golden(add LinearCounting -> 1
task 1 "LinearCounting" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[16+5] p2=const:4294967295 prep=onehot op=AND-OR
task 1 LinearCounting buckets=8192 rules=11 masks=1 groups=1 cmus=1
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
)golden"},
    {"BloomFilter", R"golden(add BloomFilter -> 1
task 1 "BloomFilter" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[16+5] p2=const:4294967295 prep=onehot op=AND-OR
task 1 "BloomFilter" row 1 unit 0 @g0/c1: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=key:u0^u-1[21+5] p2=const:4294967295 prep=onehot op=AND-OR
task 1 "BloomFilter" row 2 unit 0 @g0/c2: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=key:u0^u-1[26+5] p2=const:4294967295 prep=onehot op=AND-OR
task 1 BloomFilter buckets=8192 rules=33 masks=1 groups=1 cmus=3
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 1 unit 0: g0/c1 phys 2 mem[0+8192]
  row 2 unit 0: g0/c2 phys 3 mem[0+8192]
)golden"},
    {"SuMax(Max)", R"golden(add SuMax(Max) -> 1
task 1 "SuMax(Max)" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=meta:2 p2=const:4294967295 prep=none op=MAX
task 1 "SuMax(Max)" row 1 unit 0 @g0/c1: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=meta:2 p2=const:4294967295 prep=none op=MAX
task 1 "SuMax(Max)" row 2 unit 0 @g0/c2: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=meta:2 p2=const:4294967295 prep=none op=MAX
task 1 SuMax(Max) buckets=8192 rules=33 masks=1 groups=1 cmus=3
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 1 unit 0: g0/c1 phys 2 mem[0+8192]
  row 2 unit 0: g0/c2 phys 3 mem[0+8192]
)golden"},
    {"MaxInterarrival", R"golden(add MaxInterarrival -> 1
task 1 "MaxInterarrival" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=1
task 1 "MaxInterarrival" row 0 unit 1 @g1/c0: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=meta:4 p2=const:4294967295 prep=none op=MAX old chain_out=2
task 1 "MaxInterarrival" row 0 unit 2 @g2/c0: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=meta:4 p2=chain:2 prep=subgate gate=1 op=MAX
task 1 "MaxInterarrival" row 1 unit 0 @g3/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=3
task 1 "MaxInterarrival" row 1 unit 1 @g4/c0: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=meta:4 p2=const:4294967295 prep=none op=MAX old chain_out=4
task 1 "MaxInterarrival" row 1 unit 2 @g5/c0: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=meta:4 p2=chain:4 prep=subgate gate=3 op=MAX
task 1 "MaxInterarrival" row 2 unit 0 @g6/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=5
task 1 "MaxInterarrival" row 2 unit 1 @g7/c0: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=meta:4 p2=const:4294967295 prep=none op=MAX old chain_out=6
task 1 "MaxInterarrival" row 2 unit 2 @g8/c0: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=meta:4 p2=chain:6 prep=subgate gate=5 op=MAX
task 1 MaxInterarrival buckets=8192 rules=99 masks=9 groups=9 cmus=9
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 0 unit 1: g1/c0 phys 2 mem[0+8192]
  row 0 unit 2: g2/c0 phys 3 mem[0+8192]
  row 1 unit 0: g3/c0 phys 4 mem[0+8192]
  row 1 unit 1: g4/c0 phys 5 mem[0+8192]
  row 1 unit 2: g5/c0 phys 6 mem[0+8192]
  row 2 unit 0: g6/c0 phys 7 mem[0+8192]
  row 2 unit 1: g7/c0 phys 8 mem[0+8192]
  row 2 unit 2: g8/c0 phys 9 mem[0+8192]
)golden"},
    {"OddSketch", R"golden(add OddSketch -> 1
task 1 "OddSketch" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=1
task 1 "OddSketch" row 0 unit 1 @g1/c0: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=key:u0^u-1[22+5] p2=const:4294967295 prep=onehot-gated gate=1 op=XOR
task 1 OddSketch buckets=8192 rules=22 masks=2 groups=2 cmus=2
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 0 unit 1: g1/c0 phys 2 mem[0+8192]
)golden"},
    {"intersecting-filters", R"golden(add any -> 1
add ten -> 2
add eleven -> 3
task 1 "any" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 "any" row 1 unit 0 @g0/c1: filter=any prio=1 key=u0^u-1[8+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 3 "eleven" row 0 unit 0 @g0/c2: filter=184549376/8->0/0 prio=3 key=u0^u-1[0+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 2 "ten" row 0 unit 0 @g1/c0: filter=167772160/8->0/0 prio=2 key=u0^u-1[0+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 2 "ten" row 1 unit 0 @g1/c1: filter=167772160/8->0/0 prio=2 key=u0^u-1[8+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 CMS buckets=4096 rules=38 masks=1 groups=1 cmus=2
  row 0 unit 0: g0/c0 phys 1 mem[0+4096]
  row 1 unit 0: g0/c1 phys 2 mem[0+4096]
task 2 CMS buckets=4096 rules=38 masks=1 groups=1 cmus=2
  row 0 unit 0: g1/c0 phys 3 mem[0+4096]
  row 1 unit 0: g1/c1 phys 4 mem[0+4096]
task 3 CMS buckets=4096 rules=19 masks=0 groups=1 cmus=1
  row 0 unit 0: g0/c2 phys 5 mem[0+4096]
)golden"},
    {"sampled-beside-intersecting", R"golden(add full-rate -> 1
add sampled -> 2
add second-full-rate -> 3
task 1 "full-rate" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 2 "sampled" row 0 unit 0 @g0/c0: filter=any prio=2 sample=0.5 key=u0^u-1[0+16] mem[8192+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 "full-rate" row 1 unit 0 @g0/c1: filter=any prio=1 key=u0^u-1[8+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 2 "sampled" row 1 unit 0 @g0/c1: filter=any prio=2 sample=0.5 key=u0^u-1[8+16] mem[8192+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 "full-rate" row 2 unit 0 @g0/c2: filter=any prio=1 key=u0^u-1[16+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 2 "sampled" row 2 unit 0 @g0/c2: filter=any prio=2 sample=0.5 key=u0^u-1[16+16] mem[8192+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 3 "second-full-rate" row 0 unit 0 @g1/c0: filter=0/0->3232235520/16 prio=3 key=u0^u-1[0+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 3 "second-full-rate" row 1 unit 0 @g1/c1: filter=0/0->3232235520/16 prio=3 key=u0^u-1[8+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 3 "second-full-rate" row 2 unit 0 @g1/c2: filter=0/0->3232235520/16 prio=3 key=u0^u-1[16+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 CMS buckets=4096 rules=57 masks=1 groups=1 cmus=3
  row 0 unit 0: g0/c0 phys 1 mem[0+4096]
  row 1 unit 0: g0/c1 phys 2 mem[0+4096]
  row 2 unit 0: g0/c2 phys 3 mem[0+4096]
task 2 CMS buckets=8192 rules=33 masks=0 groups=1 cmus=3
  row 0 unit 0: g0/c0 phys 4 mem[8192+8192]
  row 1 unit 0: g0/c1 phys 5 mem[8192+8192]
  row 2 unit 0: g0/c2 phys 6 mem[8192+8192]
task 3 CMS buckets=4096 rules=57 masks=1 groups=1 cmus=3
  row 0 unit 0: g1/c0 phys 7 mem[0+4096]
  row 1 unit 0: g1/c1 phys 8 mem[0+4096]
  row 2 unit 0: g1/c2 phys 9 mem[0+4096]
)golden"},
    {"parameter-key-differs", R"golden(add max-dst -> 1
add cms-pair -> 2
task 1 "max-dst" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u1^u-1[0+32] p2=const:4294967295 prep=none op=MAX
task 1 "max-dst" row 1 unit 0 @g0/c1: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=key:u1^u-1[0+32] p2=const:4294967295 prep=none op=MAX
task 2 "cms-pair" row 0 unit 0 @g1/c0: filter=167772160/8->0/0 prio=2 key=u0^u-1[0+16] mem[0+4096] p1=key:u0^u1[0+32] p2=const:4294967295 prep=none op=Cond-ADD
task 2 "cms-pair" row 1 unit 0 @g1/c1: filter=167772160/8->0/0 prio=2 key=u0^u-1[8+16] mem[0+4096] p1=key:u0^u1[0+32] p2=const:4294967295 prep=none op=Cond-ADD
task 2 "cms-pair" row 2 unit 0 @g1/c2: filter=167772160/8->0/0 prio=2 key=u0^u-1[16+16] mem[0+4096] p1=key:u0^u1[0+32] p2=const:4294967295 prep=none op=Cond-ADD
task 1 SuMax(Max) buckets=8192 rules=22 masks=2 groups=1 cmus=2
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 1 unit 0: g0/c1 phys 2 mem[0+8192]
task 2 CMS buckets=4096 rules=57 masks=2 groups=1 cmus=3
  row 0 unit 0: g1/c0 phys 3 mem[0+4096]
  row 1 unit 0: g1/c1 phys 4 mem[0+4096]
  row 2 unit 0: g1/c2 phys 5 mem[0+4096]
)golden"},
    {"max-interarrival-three-rows", R"golden(add MaxInterarrival -> 1
add after -> insufficient resources (keys / CMUs / memory)
task 1 "MaxInterarrival" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=1
task 1 "MaxInterarrival" row 0 unit 1 @g1/c0: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=meta:4 p2=const:4294967295 prep=none op=MAX old chain_out=2
task 1 "MaxInterarrival" row 0 unit 2 @g2/c0: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=meta:4 p2=chain:2 prep=subgate gate=1 op=MAX
task 1 "MaxInterarrival" row 1 unit 0 @g3/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=3
task 1 "MaxInterarrival" row 1 unit 1 @g4/c0: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=meta:4 p2=const:4294967295 prep=none op=MAX old chain_out=4
task 1 "MaxInterarrival" row 1 unit 2 @g5/c0: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=meta:4 p2=chain:4 prep=subgate gate=3 op=MAX
task 1 "MaxInterarrival" row 2 unit 0 @g6/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=5
task 1 "MaxInterarrival" row 2 unit 1 @g7/c0: filter=any prio=1 key=u0^u-1[8+16] mem[0+8192] p1=meta:4 p2=const:4294967295 prep=none op=MAX old chain_out=6
task 1 "MaxInterarrival" row 2 unit 2 @g8/c0: filter=any prio=1 key=u0^u-1[16+16] mem[0+8192] p1=meta:4 p2=chain:6 prep=subgate gate=5 op=MAX
task 1 MaxInterarrival buckets=8192 rules=99 masks=9 groups=9 cmus=9
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 0 unit 1: g1/c0 phys 2 mem[0+8192]
  row 0 unit 2: g2/c0 phys 3 mem[0+8192]
  row 1 unit 0: g3/c0 phys 4 mem[0+8192]
  row 1 unit 1: g4/c0 phys 5 mem[0+8192]
  row 1 unit 2: g5/c0 phys 6 mem[0+8192]
  row 2 unit 0: g6/c0 phys 7 mem[0+8192]
  row 2 unit 1: g7/c0 phys 8 mem[0+8192]
  row 2 unit 2: g8/c0 phys 9 mem[0+8192]
)golden"},
    {"odd-sketch-xor-slot", R"golden(add set-a -> 1
add set-b -> 2
add set-any -> 3
task 1 "set-a" row 0 unit 0 @g0/c0: filter=0/0->3232235520/16 prio=1 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=1
task 2 "set-b" row 0 unit 0 @g0/c0: filter=0/0->167772160/8 prio=2 key=u0^u-1[0+16] mem[8192+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=3
task 3 "set-any" row 0 unit 0 @g0/c1: filter=any prio=3 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[17+5] p2=const:4294967295 prep=onehot op=AND-OR old chain_out=5
task 1 "set-a" row 0 unit 1 @g1/c1: filter=0/0->3232235520/16 prio=1 key=u0^u-1[8+16] mem[0+8192] p1=key:u0^u-1[22+5] p2=const:4294967295 prep=onehot-gated gate=1 op=XOR
task 2 "set-b" row 0 unit 1 @g1/c1: filter=0/0->167772160/8 prio=2 key=u0^u-1[8+16] mem[8192+8192] p1=key:u0^u-1[22+5] p2=const:4294967295 prep=onehot-gated gate=3 op=XOR
task 3 "set-any" row 0 unit 1 @g1/c2: filter=any prio=3 key=u0^u-1[8+16] mem[0+8192] p1=key:u0^u-1[22+5] p2=const:4294967295 prep=onehot-gated gate=5 op=XOR
task 1 OddSketch buckets=8192 rules=22 masks=2 groups=2 cmus=2
  row 0 unit 0: g0/c0 phys 1 mem[0+8192]
  row 0 unit 1: g1/c1 phys 2 mem[0+8192]
task 2 OddSketch buckets=8192 rules=22 masks=0 groups=2 cmus=2
  row 0 unit 0: g0/c0 phys 3 mem[8192+8192]
  row 0 unit 1: g1/c1 phys 4 mem[8192+8192]
task 3 OddSketch buckets=8192 rules=22 masks=0 groups=2 cmus=2
  row 0 unit 0: g0/c1 phys 5 mem[0+8192]
  row 0 unit 1: g1/c2 phys 6 mem[0+8192]
)golden"},
    {"resize-into-fragments", R"golden(add T -> 1
add X -> 2
add Y1 -> 3
add Y2 -> 4
add Y3 -> 5
remove 3 -> 1
remove 5 -> 1
resize 1 -> ok
add Z -> 7
task 2 "X" row 0 unit 0 @g0/c0: filter=184549376/8->0/0 prio=2 key=u0^u-1[0+16] mem[32768+32768] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 7 "Z" row 0 unit 0 @g0/c0: filter=201326592/8->0/0 prio=7 key=u0^u-1[0+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 4 "Y2" row 0 unit 0 @g0/c1: filter=184680448/16->0/0 prio=4 key=u0^u-1[0+16] mem[8192+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 "T" row 0 unit 0 @g0/c1: filter=167772160/8->0/0 prio=6 key=u0^u-1[0+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 CMS buckets=8192 rules=11 masks=0 groups=1 cmus=1
  row 0 unit 0: g0/c1 phys 6 mem[0+8192]
task 2 CMS buckets=32768 rules=5 masks=0 groups=1 cmus=1
  row 0 unit 0: g0/c0 phys 2 mem[32768+32768]
task 4 CMS buckets=8192 rules=11 masks=0 groups=1 cmus=1
  row 0 unit 0: g0/c1 phys 4 mem[8192+8192]
task 7 CMS buckets=4096 rules=19 masks=0 groups=1 cmus=1
  row 0 unit 0: g0/c0 phys 7 mem[0+4096]
)golden"},
    {"full-capacity-27-cmus", R"golden(task 1 deployed: 57 table rules, 1 hash masks, 3 CMUs, 76.92 ms
task 2 deployed: 33 table rules, 1 hash masks, 3 CMUs, 45.24 ms
task 3 deployed: 21 table rules, 1 hash masks, 3 CMUs, 29.4 ms
task 4 deployed: 57 table rules, 1 hash masks, 3 CMUs, 76.92 ms
task 5 deployed: 66 table rules, 2 hash masks, 3 CMUs, 88.8 ms
task 6 deployed: 57 table rules, 1 hash masks, 3 CMUs, 76.92 ms
task 7 deployed: 33 table rules, 1 hash masks, 3 CMUs, 45.24 ms
task 8 deployed: 33 table rules, 1 hash masks, 3 CMUs, 45.24 ms
task 9 deployed: 57 table rules, 1 hash masks, 3 CMUs, 76.92 ms
task 1 "heavy-hitter" row 0 unit 0 @g0/c0: filter=any prio=1 key=u0^u-1[0+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 "heavy-hitter" row 1 unit 0 @g0/c1: filter=any prio=1 key=u0^u-1[8+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 1 "heavy-hitter" row 2 unit 0 @g0/c2: filter=any prio=1 key=u0^u-1[16+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 2 "size-dist" row 0 unit 0 @g1/c0: filter=any prio=2 key=u0^u-1[0+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 2 "size-dist" row 1 unit 0 @g1/c1: filter=any prio=2 key=u0^u-1[8+16] mem[0+8192] p1=const:65536 p2=const:4294901760 prep=none op=Cond-ADD
task 2 "size-dist" row 2 unit 0 @g1/c2: filter=any prio=2 key=u0^u-1[16+16] mem[0+8192] p1=const:16777216 p2=const:4278190080 prep=none op=Cond-ADD
task 3 "blacklist" row 0 unit 0 @g2/c0: filter=any prio=3 key=u0^u-1[0+16] mem[0+16384] p1=key:u0^u-1[16+5] p2=const:4294967295 prep=onehot op=AND-OR
task 3 "blacklist" row 1 unit 0 @g2/c1: filter=any prio=3 key=u0^u-1[8+16] mem[0+16384] p1=key:u0^u-1[21+5] p2=const:4294967295 prep=onehot op=AND-OR
task 3 "blacklist" row 2 unit 0 @g2/c2: filter=any prio=3 key=u0^u-1[16+16] mem[0+16384] p1=key:u0^u-1[26+5] p2=const:4294967295 prep=onehot op=AND-OR
task 4 "congestion" row 0 unit 0 @g3/c0: filter=any prio=4 key=u0^u-1[0+16] mem[0+4096] p1=meta:2 p2=const:4294967295 prep=none op=MAX
task 4 "congestion" row 1 unit 0 @g3/c1: filter=any prio=4 key=u0^u-1[8+16] mem[0+4096] p1=meta:2 p2=const:4294967295 prep=none op=MAX
task 4 "congestion" row 2 unit 0 @g3/c2: filter=any prio=4 key=u0^u-1[16+16] mem[0+4096] p1=meta:2 p2=const:4294967295 prep=none op=MAX
task 5 "port-scan" row 0 unit 0 @g4/c0: filter=any prio=5 key=u0^u-1[0+16] mem[0+8192] p1=key:u1^u-1[0+32] p2=const:4294967295 prep=coupon(32,0.03125) op=AND-OR
task 5 "port-scan" row 1 unit 0 @g4/c1: filter=any prio=5 key=u0^u-1[8+16] mem[0+8192] p1=key:u1^u-1[0+32] p2=const:4294967295 prep=coupon(32,0.03125) op=AND-OR
task 5 "port-scan" row 2 unit 0 @g4/c2: filter=any prio=5 key=u0^u-1[16+16] mem[0+8192] p1=key:u1^u-1[0+32] p2=const:4294967295 prep=coupon(32,0.03125) op=AND-OR
task 6 "heavy-hitter-10" row 0 unit 0 @g5/c0: filter=167772160/8->0/0 prio=6 key=u0^u-1[0+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 6 "heavy-hitter-10" row 1 unit 0 @g5/c1: filter=167772160/8->0/0 prio=6 key=u0^u-1[8+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 6 "heavy-hitter-10" row 2 unit 0 @g5/c2: filter=167772160/8->0/0 prio=6 key=u0^u-1[16+16] mem[0+4096] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 7 "flow-size" row 0 unit 0 @g6/c0: filter=any prio=7 key=u0^u-1[0+16] mem[0+8192] p1=const:1 p2=const:4294967295 prep=none op=Cond-ADD
task 7 "flow-size" row 1 unit 0 @g6/c1: filter=any prio=7 key=u0^u-1[8+16] mem[0+8192] p1=const:65536 p2=const:4294901760 prep=none op=Cond-ADD
task 7 "flow-size" row 2 unit 0 @g6/c2: filter=any prio=7 key=u0^u-1[16+16] mem[0+8192] p1=const:16777216 p2=const:4278190080 prep=none op=Cond-ADD
task 8 "seen-sources" row 0 unit 0 @g7/c0: filter=any prio=8 key=u0^u-1[0+16] mem[0+8192] p1=key:u0^u-1[16+5] p2=const:4294967295 prep=onehot op=AND-OR
task 8 "seen-sources" row 1 unit 0 @g7/c1: filter=any prio=8 key=u0^u-1[8+16] mem[0+8192] p1=key:u0^u-1[21+5] p2=const:4294967295 prep=onehot op=AND-OR
task 8 "seen-sources" row 2 unit 0 @g7/c2: filter=any prio=8 key=u0^u-1[16+16] mem[0+8192] p1=key:u0^u-1[26+5] p2=const:4294967295 prep=onehot op=AND-OR
task 9 "max-bytes" row 0 unit 0 @g8/c0: filter=any prio=9 key=u0^u-1[0+16] mem[0+4096] p1=meta:1 p2=const:4294967295 prep=none op=MAX
task 9 "max-bytes" row 1 unit 0 @g8/c1: filter=any prio=9 key=u0^u-1[8+16] mem[0+4096] p1=meta:1 p2=const:4294967295 prep=none op=MAX
task 9 "max-bytes" row 2 unit 0 @g8/c2: filter=any prio=9 key=u0^u-1[16+16] mem[0+4096] p1=meta:1 p2=const:4294967295 prep=none op=MAX
task 1 CMS buckets=4096 rules=57 masks=1 groups=1 cmus=3
  row 0 unit 0: g0/c0 phys 1 mem[0+4096]
  row 1 unit 0: g0/c1 phys 2 mem[0+4096]
  row 2 unit 0: g0/c2 phys 3 mem[0+4096]
task 2 TowerSketch buckets=8192 rules=33 masks=1 groups=1 cmus=3
  row 0 unit 0: g1/c0 phys 4 mem[0+8192]
  row 1 unit 0: g1/c1 phys 5 mem[0+8192]
  row 2 unit 0: g1/c2 phys 6 mem[0+8192]
task 3 BloomFilter buckets=16384 rules=21 masks=1 groups=1 cmus=3
  row 0 unit 0: g2/c0 phys 7 mem[0+16384]
  row 1 unit 0: g2/c1 phys 8 mem[0+16384]
  row 2 unit 0: g2/c2 phys 9 mem[0+16384]
task 4 SuMax(Max) buckets=4096 rules=57 masks=1 groups=1 cmus=3
  row 0 unit 0: g3/c0 phys 10 mem[0+4096]
  row 1 unit 0: g3/c1 phys 11 mem[0+4096]
  row 2 unit 0: g3/c2 phys 12 mem[0+4096]
task 5 BeauCoup buckets=8192 rules=66 masks=2 groups=1 cmus=3
  row 0 unit 0: g4/c0 phys 13 mem[0+8192]
  row 1 unit 0: g4/c1 phys 14 mem[0+8192]
  row 2 unit 0: g4/c2 phys 15 mem[0+8192]
task 6 CMS buckets=4096 rules=57 masks=1 groups=1 cmus=3
  row 0 unit 0: g5/c0 phys 16 mem[0+4096]
  row 1 unit 0: g5/c1 phys 17 mem[0+4096]
  row 2 unit 0: g5/c2 phys 18 mem[0+4096]
task 7 TowerSketch buckets=8192 rules=33 masks=1 groups=1 cmus=3
  row 0 unit 0: g6/c0 phys 19 mem[0+8192]
  row 1 unit 0: g6/c1 phys 20 mem[0+8192]
  row 2 unit 0: g6/c2 phys 21 mem[0+8192]
task 8 BloomFilter buckets=8192 rules=33 masks=1 groups=1 cmus=3
  row 0 unit 0: g7/c0 phys 22 mem[0+8192]
  row 1 unit 0: g7/c1 phys 23 mem[0+8192]
  row 2 unit 0: g7/c2 phys 24 mem[0+8192]
task 9 SuMax(Max) buckets=4096 rules=57 masks=1 groups=1 cmus=3
  row 0 unit 0: g8/c0 phys 25 mem[0+4096]
  row 1 unit 0: g8/c1 phys 26 mem[0+4096]
  row 2 unit 0: g8/c2 phys 27 mem[0+4096]
)golden"},
};

struct PlacementCase {
  std::string name;
  unsigned groups;
  std::function<void(Controller&, std::ostringstream&)> deploy;
};

void add(Controller& ctl, std::ostringstream& log, const TaskSpec& s) {
  const DeployResult r = ctl.add_task(s);
  log << "add " << s.name << " -> " << (r.ok ? std::to_string(r.task_id) : r.error)
      << '\n';
}

std::vector<PlacementCase> placement_cases() {
  std::vector<PlacementCase> cases;
  for (const Algorithm a : kAllAlgorithms) {
    cases.push_back({to_string(a), 9,
                     [a](Controller& ctl, std::ostringstream& log) {
                       add(ctl, log, algorithm_spec(a));
                     }});
  }
  // Two rows each: the second task finds one CMU in group 0 that admits it,
  // so it moves on to group 1; the third fits beside the second's absence.
  cases.push_back({"intersecting-filters", 2,
                   [](Controller& ctl, std::ostringstream& log) {
                     add(ctl, log, named(freq_spec(4096, 2), "any"));
                     add(ctl, log,
                         named(freq_spec(4096, 2), "ten", TaskFilter::src(0x0A000000, 8)));
                     add(ctl, log,
                         named(freq_spec(4096, 1), "eleven", TaskFilter::src(0x0B000000, 8)));
                   }});
  cases.push_back({"sampled-beside-intersecting", 9,
                   [](Controller& ctl, std::ostringstream& log) {
                     add(ctl, log, named(freq_spec(4096, 3), "full-rate"));
                     TaskSpec sampled = named(freq_spec(8192, 3), "sampled");
                     sampled.sample_probability = 0.5;
                     add(ctl, log, sampled);
                     add(ctl, log, named(freq_spec(4096, 3), "second-full-rate",
                                         TaskFilter::dst(0xC0A80000, 16)));
                   }});
  cases.push_back({"parameter-key-differs", 9,
                   [](Controller& ctl, std::ostringstream& log) {
                     TaskSpec max = named(algorithm_spec(Algorithm::kSuMaxMax), "max-dst");
                     max.key = FlowKeySpec::src_ip();
                     max.param = ParamSpec::compressed(FlowKeySpec::dst_ip());
                     max.rows = 2;
                     add(ctl, log, max);
                     TaskSpec cms = named(freq_spec(4096, 3), "cms-pair",
                                          TaskFilter::src(0x0A000000, 8));
                     cms.param = ParamSpec::compressed(FlowKeySpec::ip_pair());
                     add(ctl, log, cms);
                   }});
  cases.push_back({"max-interarrival-three-rows", 9,
                   [](Controller& ctl, std::ostringstream& log) {
                     add(ctl, log, algorithm_spec(Algorithm::kMaxInterarrival));
                     add(ctl, log, named(freq_spec(4096, 3), "after"));
                   }});
  // The fourth SALU action slot of g1/c0 is taken, so the first toggle
  // skips that CMU; the second task shares the first's XOR slot.
  cases.push_back({"odd-sketch-xor-slot", 9,
                   [](Controller& ctl, std::ostringstream& log) {
                     ctl.dataplane().group(1).cmu(0).preload_op(dataplane::StatefulOp::kNop);
                     const TaskSpec odd = algorithm_spec(Algorithm::kOddSketch);
                     add(ctl, log, named(odd, "set-a", TaskFilter::dst(0xC0A80000, 16)));
                     add(ctl, log, named(odd, "set-b", TaskFilter::dst(0x0A000000, 8)));
                     add(ctl, log, named(odd, "set-any"));
                   }});
  // Y1..Y3 intersect X, so they fill g0/c1; removing Y1 and Y3 leaves that
  // allocator fragmented, and the resized T (which cannot share c0 with
  // its old instance) lands in one of the holes.
  cases.push_back({"resize-into-fragments", 1,
                   [](Controller& ctl, std::ostringstream& log) {
                     add(ctl, log, named(freq_spec(16384, 1), "T", TaskFilter::src(0x0A000000, 8)));
                     add(ctl, log, named(freq_spec(32768, 1), "X", TaskFilter::src(0x0B000000, 8)));
                     add(ctl, log,
                         named(freq_spec(8192, 1), "Y1", TaskFilter::src(0x0B010000, 16)));
                     add(ctl, log,
                         named(freq_spec(8192, 1), "Y2", TaskFilter::src(0x0B020000, 16)));
                     add(ctl, log,
                         named(freq_spec(16384, 1), "Y3", TaskFilter::src(0x0B030000, 16)));
                     log << "remove 3 -> " << ctl.remove_task(3) << '\n';
                     log << "remove 5 -> " << ctl.remove_task(5) << '\n';
                     const DeployResult r = ctl.resize_task(1, 8192);
                     log << "resize 1 -> " << (r.ok ? "ok" : r.error) << '\n';
                     add(ctl, log, named(freq_spec(4096, 1), "Z", TaskFilter::src(0x0C000000, 8)));
                   }});
  cases.push_back({"full-capacity-27-cmus", 9,
                   [](Controller& ctl, std::ostringstream& log) {
                     Shell shell(ctl);
                     const char* const scenario[] = {
                         "add name=heavy-hitter key=SrcIP attr=Frequency algo=CMS mem=4096",
                         "add name=size-dist key=SrcIP+DstIP attr=Frequency algo=Tower "
                         "mem=8192",
                         "add name=blacklist key=IPPair attr=Existence algo=BloomFilter "
                         "mem=16384",
                         "add name=congestion key=DstIP attr=Max algo=SuMaxMax "
                         "param=QueueLen mem=4096",
                         "add name=port-scan key=SrcIP attr=Distinct algo=BeauCoup "
                         "param=key:DstPort threshold=100 mem=8192",
                         "add name=heavy-hitter-10 key=DstIP attr=Frequency algo=CMS "
                         "mem=4096 filter=10.0.0.0/8",
                         "add name=flow-size key=5Tuple attr=Frequency algo=Tower mem=8192",
                         "add name=seen-sources key=SrcIP attr=Existence algo=BloomFilter "
                         "mem=8192",
                         "add name=max-bytes key=SrcIP attr=Max algo=SuMaxMax param=Bytes "
                         "mem=4096",
                     };
                     for (const char* line : scenario) log << shell.execute(line) << '\n';
                   }});
  return cases;
}

TEST(Controller, PlacementGolden) {
  for (const PlacementCase& pc : placement_cases()) {
    SCOPED_TRACE(pc.name);
    FlyMonDataPlane dp(pc.groups);
    Controller ctl(dp);
    std::ostringstream log;
    pc.deploy(ctl, log);
    const std::vector<std::string> got = split_lines(log.str() + placement_dump(ctl));
    const auto golden = std::find_if(std::begin(kPlacementGolden), std::end(kPlacementGolden),
                                     [&](const auto& g) { return pc.name == g.first; });
    ASSERT_NE(golden, std::end(kPlacementGolden)) << "no expected text for " << pc.name;
    const std::vector<std::string> want = split_lines(golden->second);
    for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
      const std::string g = i < got.size() ? got[i] : "<missing>";
      const std::string w = i < want.size() ? want[i] : "<missing>";
      if (g != w) {
        ADD_FAILURE() << pc.name << ": line " << i + 1 << " differs\n  want: " << w
                      << "\n  got:  " << g;
        break;
      }
    }
  }
}

}  // namespace
}  // namespace flymon::control
