// Semantic dataflow analysis (src/ir + src/verify/dataflow_*) and the
// dry-run reconfiguration planner: IR extraction ground truth, hash-bit
// provenance, SALU interval analysis, accuracy-feasibility bounds,
// hash-unit masking edge cases, Controller::plan() dry-run semantics, the
// shell `plan` command family, and the machine-readable JSON report
// encoders.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/metrics.hpp"
#include "core/compression.hpp"
#include "control/controller.hpp"
#include "control/shell.hpp"
#include "core/flymon_dataplane.hpp"
#include "ir/ir.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/diagnostics.hpp"
#include "verify/mutations.hpp"
#include "verify/planner.hpp"
#include "verify/verifier.hpp"

namespace flymon {
namespace {

using control::Controller;
using control::PlanOp;
using verify::Severity;

TaskSpec make_spec(const std::string& name, FlowKeySpec key, AttributeKind attr,
                   Algorithm algo, std::uint32_t buckets,
                   TaskFilter filter = TaskFilter::any()) {
  TaskSpec s;
  s.name = name;
  s.key = key;
  s.attribute = attr;
  s.algorithm = algo;
  s.memory_buckets = buckets;
  s.filter = filter;
  return s;
}

// Same stable fingerprint test_verify.cpp uses for the rollback regression:
// everything a deployment mutates, so "byte-identical" is checkable.
std::string dataplane_fingerprint(const FlyMonDataPlane& dp,
                                  const Controller& ctl) {
  std::ostringstream out;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    const CmuGroup& grp = dp.group(g);
    out << "group " << g << '\n';
    for (unsigned u = 0; u < grp.compression().num_units(); ++u) {
      const auto& spec = grp.compression().spec_of(u);
      out << "  unit " << u << ": " << (spec ? spec->name() : "-") << '\n';
    }
    for (unsigned c = 0; c < grp.num_cmus(); ++c) {
      const Cmu& cmu = grp.cmu(c);
      out << "  cmu " << c << ": ops=" << cmu.salu().loaded_ops() << '\n';
      for (const CmuTaskEntry& e : cmu.entries()) {
        out << "    task " << e.task_id << " prio " << e.priority << " part ["
            << e.partition.base << '+' << e.partition.size << ") op "
            << static_cast<int>(e.op) << " filter " << e.filter.src_ip << '/'
            << int(e.filter.src_len) << ' ' << e.filter.dst_ip << '/'
            << int(e.filter.dst_len) << '\n';
      }
      std::uint64_t register_sum = 0;
      for (std::uint32_t i = 0; i < cmu.reg().size(); ++i) {
        register_sum += cmu.reg().read(i);
      }
      out << "    register_sum " << register_sum << '\n';
      out << "    free " << ctl.free_buckets(g, c) << '\n';
    }
  }
  out << "tasks " << ctl.num_tasks() << '\n';
  return out.str();
}

verify::VerifyReport run_analyzer(const char* name, const Controller& ctl,
                                  const FlyMonDataPlane& dp) {
  const verify::Verifier v;
  const verify::VerifyContext ctx{&ctl, &dp, nullptr};
  return v.run_one(name, ctx);
}

// ---- closed-form accuracy bounds (src/analysis/metrics) ----

TEST(MetricsBounds, CmEpsilonAndMinWidthInvert) {
  const double e = 2.718281828459045;
  EXPECT_NEAR(analysis::cm_epsilon(272), e / 272, 1e-12);
  // cm_min_width(eps) is the least width whose epsilon meets eps.
  const std::uint32_t w = analysis::cm_min_width(0.01);
  EXPECT_LE(analysis::cm_epsilon(w), 0.01);
  ASSERT_GT(w, 1u);
  EXPECT_GT(analysis::cm_epsilon(w - 1), 0.01);
}

TEST(MetricsBounds, CmDeltaAndMinDepthInvert) {
  EXPECT_NEAR(analysis::cm_delta(3), std::exp(-3.0), 1e-12);
  const unsigned d = analysis::cm_min_depth(0.01);
  EXPECT_LE(analysis::cm_delta(d), 0.01);
  ASSERT_GT(d, 1u);
  EXPECT_GT(analysis::cm_delta(d - 1), 0.01);
}

TEST(MetricsBounds, BloomFprMonotoneInItemsAndBits) {
  const double small = analysis::bloom_false_positive_rate(8192, 3, 100);
  const double more_items = analysis::bloom_false_positive_rate(8192, 3, 1000);
  const double more_bits = analysis::bloom_false_positive_rate(65536, 3, 1000);
  EXPECT_LT(small, more_items);
  EXPECT_LT(more_bits, more_items);
  EXPECT_GE(small, 0.0);
  EXPECT_LE(more_items, 1.0);
}

TEST(MetricsBounds, BloomMinBitsMeetsTarget) {
  const std::uint64_t m = analysis::bloom_min_bits(0.01, 3, 1000);
  EXPECT_LE(analysis::bloom_false_positive_rate(m, 3, 1000), 0.01 + 1e-9);
}

TEST(MetricsBounds, HllStddevAndMinRegistersInvert) {
  EXPECT_NEAR(analysis::hll_relative_stddev(4096), 1.04 / 64.0, 1e-12);
  const std::uint32_t m = analysis::hll_min_registers(0.02);
  EXPECT_LE(analysis::hll_relative_stddev(m), 0.02);
}

// ---- interval helpers and taint sets ----

TEST(IrHelpers, SaturatingArithmetic) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(ir::sat_add(2, 3), 5u);
  EXPECT_EQ(ir::sat_add(max, 1), max);
  EXPECT_EQ(ir::sat_add(max - 1, 1), max);
  EXPECT_EQ(ir::sat_mul(6, 7), 42u);
  EXPECT_EQ(ir::sat_mul(max, 2), max);
  EXPECT_EQ(ir::sat_mul(0, max), 0u);
  EXPECT_EQ(ir::sat_mul(max, 0), 0u);
}

TEST(IrHelpers, SpecBitsMatchTheMaskedFields) {
  EXPECT_TRUE(ir::spec_bits(FlowKeySpec{}).none());
  EXPECT_EQ(ir::spec_bits(FlowKeySpec::src_ip()).count(), 32u);
  EXPECT_EQ(ir::spec_bits(FlowKeySpec::src_ip(8)).count(), 8u);
  EXPECT_EQ(ir::spec_bits(FlowKeySpec::ip_pair()).count(), 64u);
  // SrcIP occupies candidate-key bytes [0..3]; an /8 prefix tags byte 0.
  const ir::KeyBitSet octet = ir::spec_bits(FlowKeySpec::src_ip(8));
  for (unsigned bit = 0; bit < 8; ++bit) EXPECT_TRUE(octet.test(bit));
  for (unsigned bit = 8; bit < kCandidateKeyBits; ++bit) {
    EXPECT_FALSE(octet.test(bit));
  }
}

// ---- IR extraction ----

TEST(IrExtract, EmptyWorldHasUnconfiguredUnitsAndNoEntries) {
  FlyMonDataPlane dp(2);
  const ir::PipelineIr irx = ir::extract_ir(dp, nullptr, 1ull << 26);
  EXPECT_EQ(irx.units.size(), 2u * irx.units_per_group);
  for (const ir::HashUnitNode& u : irx.units) {
    EXPECT_FALSE(u.configured);
    EXPECT_TRUE(u.sources.none());
  }
  EXPECT_TRUE(irx.entries.empty());
  EXPECT_TRUE(irx.tasks.empty());
}

TEST(IrExtract, DeployedCmsTaskOwnsItsRowsWithFullProvenance) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto r = ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096));
  ASSERT_TRUE(r.ok) << r.error;
  const ir::PipelineIr irx = ir::extract_ir(dp, &ctl, 1ull << 26);
  ASSERT_EQ(irx.tasks.size(), 1u);
  const ir::TaskNode& t = irx.tasks[0];
  EXPECT_EQ(t.id, r.task_id);
  EXPECT_EQ(t.entries.size(), t.rows);
  std::vector<unsigned> rows;
  for (const std::size_t i : t.entries) {
    const ir::EntryNode& e = irx.entries.at(i);
    EXPECT_TRUE(e.owned);
    EXPECT_EQ(e.task_id, r.task_id);
    rows.push_back(e.row);
    EXPECT_FALSE(e.key.self_cancelling);
    EXPECT_FALSE(e.key.reads_unconfigured);
    EXPECT_EQ(e.key.sources, ir::spec_bits(FlowKeySpec::src_ip()));
    EXPECT_TRUE(e.address.in_bounds);
    EXPECT_EQ(e.address.reachable_cells, e.partition.size);
    // CMS increments by the constant 1.
    EXPECT_EQ(e.p1.range.lo, 1u);
    EXPECT_EQ(e.p1.range.hi, 1u);
    EXPECT_FALSE(e.chained);
  }
  std::sort(rows.begin(), rows.end());
  EXPECT_TRUE(std::unique(rows.begin(), rows.end()) == rows.end())
      << "rows must map to distinct entries";
}

TEST(IrExtract, XorSelectorUnionsBothUnitMasks) {
  FlyMonDataPlane dp(2);
  CompressionStage& comp = dp.group(0).compression();
  comp.configure(0, FlowKeySpec::src_ip());
  comp.configure(1, FlowKeySpec::dst_ip());
  CmuTaskEntry e;
  e.task_id = 7;
  e.key_sel = {0, 1};
  e.partition = {0, 1024};
  e.op = dataplane::StatefulOp::kCondAdd;
  dp.group(0).cmu(0).install(e);
  const ir::PipelineIr irx = ir::extract_ir(dp, nullptr, 1ull << 26);
  const ir::EntryNode* n = irx.find_entry(0, 0, 7);
  ASSERT_NE(n, nullptr);
  EXPECT_FALSE(n->owned);
  EXPECT_FALSE(n->key.self_cancelling);
  EXPECT_EQ(n->key.sources.count(), 64u);
  EXPECT_EQ(n->key.sources,
            ir::spec_bits(FlowKeySpec::src_ip()) |
                ir::spec_bits(FlowKeySpec::dst_ip()));
}

TEST(IrExtract, SelfXorIsFlaggedAsCancelling) {
  FlyMonDataPlane dp(2);
  dp.group(0).compression().configure(0, FlowKeySpec::src_ip());
  CmuTaskEntry e;
  e.task_id = 8;
  e.key_sel = {0, 0};  // XOR of a unit with itself: the constant 0
  e.partition = {0, 1024};
  e.op = dataplane::StatefulOp::kCondAdd;
  dp.group(0).cmu(0).install(e);
  const ir::PipelineIr irx = ir::extract_ir(dp, nullptr, 1ull << 26);
  const ir::EntryNode* n = irx.find_entry(0, 0, 8);
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(n->key.self_cancelling);
  EXPECT_TRUE(n->key.sources.none());
}

TEST(IrExtract, ReadingAnUnconfiguredUnitIsFlagged) {
  FlyMonDataPlane dp(2);
  dp.group(0).compression().configure(0, FlowKeySpec::src_ip());
  CmuTaskEntry e;
  e.task_id = 9;
  e.key_sel = {2, -1};  // unit 2 never configured
  e.partition = {0, 1024};
  e.op = dataplane::StatefulOp::kCondAdd;
  dp.group(0).cmu(0).install(e);
  const ir::PipelineIr irx = ir::extract_ir(dp, nullptr, 1ull << 26);
  const ir::EntryNode* n = irx.find_entry(0, 0, 9);
  ASSERT_NE(n, nullptr);
  EXPECT_TRUE(n->key.reads_unconfigured);
  EXPECT_TRUE(n->key.sources.none());
}

// ---- hash-unit masking edge cases (the compression stage itself) ----

TEST(HashMaskEdge, AllZeroMaskHashesEveryPacketIdentically) {
  CompressionStage comp(3, 0);
  comp.configure(0, FlowKeySpec{});  // no field selected
  CandidateKey a{};
  CandidateKey b{};
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>(0xA0u + i);
  }
  EXPECT_EQ(comp.compute(a).at(0), comp.compute(b).at(0));
}

TEST(HashMaskEdge, SingleBitMaskDependsOnExactlyThatBit) {
  CompressionStage comp(3, 0);
  comp.configure(0, FlowKeySpec::src_ip(1));  // only src_ip bit 31
  CandidateKey base{};
  CandidateKey outside = base;
  outside[3] = 0xFF;  // low src_ip byte: outside the /1 mask
  outside[7] = 0x5A;  // dst_ip byte: outside the mask too
  CandidateKey inside = base;
  inside[0] = 0x80;  // the masked top bit of src_ip
  EXPECT_EQ(comp.compute(base).at(0), comp.compute(outside).at(0));
  // CRC32 is linear: flipping any unmasked input bit always changes the
  // output, so the single masked bit yields exactly two hash values.
  EXPECT_NE(comp.compute(base).at(0), comp.compute(inside).at(0));
  EXPECT_EQ(ir::spec_bits(FlowKeySpec::src_ip(1)).count(), 1u);
}

TEST(HashMaskEdge, IdenticalMaskOnTwoUnitsStillHashesIndependently) {
  CompressionStage comp(3, 0);
  comp.configure(0, FlowKeySpec::src_ip());
  comp.configure(1, FlowKeySpec::src_ip());
  CandidateKey k{};
  k[0] = 10;
  k[1] = 1;
  k[2] = 2;
  k[3] = 3;
  const auto out = comp.compute(k);
  // Per-unit CRC parameterisation diversifies the outputs, so two units
  // with the same mask are distinct estimators, not copies.
  EXPECT_NE(out.at(0), out.at(1));
  // And in the IR their XOR is a real 32-bit key, not a cancellation.
  FlyMonDataPlane dp(1);
  dp.group(0).compression().configure(0, FlowKeySpec::src_ip());
  dp.group(0).compression().configure(1, FlowKeySpec::src_ip());
  CmuTaskEntry e;
  e.task_id = 4;
  e.key_sel = {0, 1};
  e.partition = {0, 1024};
  dp.group(0).cmu(0).install(e);
  const ir::PipelineIr irx = ir::extract_ir(dp, nullptr, 1ull << 26);
  const ir::EntryNode* n = irx.find_entry(0, 0, 4);
  ASSERT_NE(n, nullptr);
  EXPECT_FALSE(n->key.self_cancelling);
  EXPECT_EQ(n->key.sources.count(), 32u);
}

// ---- dataflow-key analyzer ----

TEST(DataflowKey, CleanDeploymentStaysSilent) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  const auto report = run_analyzer("dataflow-key", ctl, dp);
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(DataflowKey, ZeroEntropyUnitIsAnError) {
  FlyMonDataPlane dp(2);
  Controller ctl(dp);
  dp.group(1).compression().configure(0, FlowKeySpec{});
  const auto report = run_analyzer("dataflow-key", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.key.entropy")) << report.format();
  EXPECT_TRUE(report.has_errors());
  EXPECT_NE(report.format().find("g1.unit0"), std::string::npos)
      << report.format();
}

TEST(DataflowKey, SelfCancellingSelectorIsAnError) {
  FlyMonDataPlane dp(2);
  Controller ctl(dp);
  dp.group(0).compression().configure(0, FlowKeySpec::src_ip());
  CmuTaskEntry e;
  e.task_id = 11;
  e.key_sel = {0, 0};
  e.partition = {0, 1024};
  e.op = dataplane::StatefulOp::kCondAdd;
  dp.group(0).cmu(0).install(e);
  const auto report = run_analyzer("dataflow-key", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.key.cancel")) << report.format();
  EXPECT_TRUE(report.has_errors());
}

TEST(DataflowKey, RespeccedUnitLeavesRequestedBitsDead) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto r = ctl.add_task(make_spec("pair", FlowKeySpec::ip_pair(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096));
  ASSERT_TRUE(r.ok) << r.error;
  // Narrow the hash mask under the deployed task: the task asked for the
  // full IP pair but its entries now hash an 8-bit slice of src_ip only.
  const control::DeployedTask* t = ctl.task(r.task_id);
  ASSERT_NE(t, nullptr);
  const unsigned g = t->rows[0].units[0].group;
  const ir::PipelineIr before = ir::extract_ir(dp, &ctl, 1ull << 26);
  const ir::EntryNode* owned = nullptr;
  for (const ir::EntryNode& e : before.entries) {
    if (e.owned && e.task_id == r.task_id) owned = &e;
  }
  ASSERT_NE(owned, nullptr);
  ASSERT_GE(owned->key.sel.unit_a, 0);
  dp.group(g).compression().configure(
      static_cast<unsigned>(owned->key.sel.unit_a), FlowKeySpec::src_ip(8));
  const auto report = run_analyzer("dataflow-key", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.key.dead")) << report.format();
  EXPECT_FALSE(report.has_errors()) << report.format();  // dead bits warn
}

TEST(DataflowKey, AliasedRowsMutationFiresTheAliasCheck) {
  const auto report = verify::run_single_mutation("dataflow-aliased-task-rows");
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->has_check("dataflow.key.alias")) << report->format();
  EXPECT_TRUE(report->has_errors());
}

// ---- dataflow-range analyzer ----

TEST(DataflowRange, CleanTable1MixStaysSilent) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  ASSERT_TRUE(ctl.add_task(make_spec("tower", FlowKeySpec::ip_pair(),
                                     AttributeKind::kFrequency,
                                     Algorithm::kTowerSketch, 8192,
                                     TaskFilter::src(0x0A000000u, 8)))
                  .ok);
  const auto report = run_analyzer("dataflow-range", ctl, dp);
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(DataflowRange, OversizedIncrementOverflowsTheValueMask) {
  const auto report = verify::run_single_mutation("dataflow-overflow-preload");
  ASSERT_TRUE(report.has_value());
  EXPECT_TRUE(report->has_check("dataflow.range.overflow")) << report->format();
  EXPECT_TRUE(report->has_errors());
}

TEST(DataflowRange, NarrowKeySliceLeavesPartitionCellsCold) {
  FlyMonDataPlane dp(2);
  Controller ctl(dp);
  dp.group(0).compression().configure(0, FlowKeySpec::src_ip());
  CmuTaskEntry e;
  e.task_id = 21;
  e.key_sel = {0, -1};
  e.key_slice = {0, 4};  // 16 reachable cells
  e.partition = {0, 1024};
  e.op = dataplane::StatefulOp::kCondAdd;
  dp.group(0).cmu(0).install(e);
  const auto report = run_analyzer("dataflow-range", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.range.address")) << report.format();
  EXPECT_FALSE(report.has_errors()) << report.format();  // reachability warns
  EXPECT_NE(report.format().find("16 of 1024"), std::string::npos)
      << report.format();
}

TEST(DataflowRange, NonPowerOfTwoPartitionIsAnError) {
  FlyMonDataPlane dp(2);
  Controller ctl(dp);
  dp.group(0).compression().configure(0, FlowKeySpec::src_ip());
  CmuTaskEntry e;
  e.task_id = 22;
  e.key_sel = {0, -1};
  e.partition = {0, 24};  // not a buddy-allocator block
  e.op = dataplane::StatefulOp::kCondAdd;
  dp.group(0).cmu(0).install(e);
  const auto report = run_analyzer("dataflow-range", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.range.address")) << report.format();
  EXPECT_TRUE(report.has_errors());
}

// ---- dataflow-accuracy analyzer ----

TEST(DataflowAccuracy, InfeasibleCmEpsilonTargetWarnsWithMinWidth) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  auto spec = make_spec("tiny", FlowKeySpec::src_ip(),
                        AttributeKind::kFrequency, Algorithm::kCms, 64);
  spec.target_epsilon = 1e-6;
  ASSERT_TRUE(ctl.add_task(spec).ok);
  const auto report = run_analyzer("dataflow-accuracy", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.accuracy.epsilon")) << report.format();
  EXPECT_FALSE(report.has_errors());  // accuracy findings are warnings
  EXPECT_NE(report.format().find(
                std::to_string(analysis::cm_min_width(1e-6))),
            std::string::npos)
      << report.format();
}

TEST(DataflowAccuracy, InfeasibleCmDeltaTargetWarnsWithMinDepth) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  auto spec = make_spec("shallow", FlowKeySpec::src_ip(),
                        AttributeKind::kFrequency, Algorithm::kCms, 4096);
  spec.rows = 1;
  spec.target_delta = 0.01;  // needs >= 5 rows
  ASSERT_TRUE(ctl.add_task(spec).ok);
  const auto report = run_analyzer("dataflow-accuracy", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.accuracy.delta")) << report.format();
}

TEST(DataflowAccuracy, FeasibleTargetsStaySilent) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  auto spec = make_spec("roomy", FlowKeySpec::src_ip(),
                        AttributeKind::kFrequency, Algorithm::kCms, 4096);
  spec.target_epsilon = 0.01;  // cm_epsilon(4096) ~ 6.6e-4
  spec.target_delta = 0.05;    // cm_delta(3) ~ 0.0498
  ASSERT_TRUE(ctl.add_task(spec).ok);
  const auto report = run_analyzer("dataflow-accuracy", ctl, dp);
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(DataflowAccuracy, BloomTargetWithoutExpectedItemsWarns) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  auto spec = make_spec("bl", FlowKeySpec::ip_pair(), AttributeKind::kExistence,
                        Algorithm::kBloomFilter, 8192);
  spec.target_epsilon = 0.01;  // but expected_items left at 0
  ASSERT_TRUE(ctl.add_task(spec).ok);
  const auto report = run_analyzer("dataflow-accuracy", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.accuracy.epsilon")) << report.format();
  EXPECT_NE(report.format().find("expected_items"), std::string::npos);
}

TEST(DataflowAccuracy, OverloadedBloomFilterWarns) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  auto spec = make_spec("bl", FlowKeySpec::ip_pair(), AttributeKind::kExistence,
                        Algorithm::kBloomFilter, 8192);
  spec.target_epsilon = 1e-4;
  spec.expected_items = 10'000'000;  // vastly more items than bits
  ASSERT_TRUE(ctl.add_task(spec).ok);
  const auto report = run_analyzer("dataflow-accuracy", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.accuracy.epsilon")) << report.format();
}

TEST(DataflowAccuracy, UndersizedHllRegisterArrayWarns) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  TaskSpec spec;
  spec.name = "card";
  spec.attribute = AttributeKind::kDistinct;
  spec.algorithm = Algorithm::kHyperLogLog;
  spec.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  spec.memory_buckets = 1024;
  spec.target_epsilon = 0.001;  // 1.04/sqrt(1024) ~ 0.0325
  ASSERT_TRUE(ctl.add_task(spec).ok);
  const auto report = run_analyzer("dataflow-accuracy", ctl, dp);
  EXPECT_TRUE(report.has_check("dataflow.accuracy.epsilon")) << report.format();
  EXPECT_NE(report.format().find("registers"), std::string::npos);
}

TEST(DataflowAccuracy, NoTargetsMeansNoFindings) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(make_spec("plain", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     64))  // terrible accuracy, but no target
                  .ok);
  const auto report = run_analyzer("dataflow-accuracy", ctl, dp);
  EXPECT_TRUE(report.empty()) << report.format();
}

// ---- Controller::plan (dry-run planner) ----

TEST(Planner, EmptyPlanOnCleanWorldVerifiesAndMapsEveryTask) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto a = ctl.add_task(make_spec("a", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096));
  const auto b = ctl.add_task(make_spec("b", FlowKeySpec::dst_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kTowerSketch, 8192));
  ASSERT_TRUE(a.ok && b.ok);
  const verify::PlanResult res = ctl.plan({});
  EXPECT_TRUE(res.ok) << res.format();
  EXPECT_TRUE(res.error.empty());
  // Every live task keeps its own id in the post-batch plan.
  EXPECT_EQ(res.compiled_after, res.compiled_before);
  for (const std::uint32_t id : {a.task_id, b.task_id}) {
    const std::string label = "task " + std::to_string(id) + " ";
    EXPECT_TRUE(std::any_of(res.compiled_after.begin(), res.compiled_after.end(),
                            [&](const std::string& line) { return line.rfind(label, 0) == 0; }))
        << label;
  }
  EXPECT_FALSE(res.report.has_errors()) << res.report.format();
  EXPECT_NE(res.format().find("plan OK"), std::string::npos);
}

TEST(Planner, AddOpRunsOnTheLiveControllerAndIsUndone) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const verify::PlanResult res = ctl.plan({PlanOp::add(
      make_spec("hh", FlowKeySpec::src_ip(), AttributeKind::kFrequency,
                Algorithm::kCms, 4096))});
  EXPECT_TRUE(res.ok) << res.format();
  ASSERT_EQ(res.ops.size(), 1u);
  EXPECT_TRUE(res.ops[0].ok);
  EXPECT_EQ(res.ops[0].detail, "deployed as task 1");
  EXPECT_EQ(ctl.num_tasks(), 0u);  // the live world does not keep the op
  EXPECT_EQ(dp.plan_generation(), 0u);
  EXPECT_EQ(ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                   AttributeKind::kFrequency, Algorithm::kCms,
                                   4096))
                .task_id,
            1u);  // the dry run consumed no id
}

TEST(Planner, FailingBatchLeavesDataPlaneByteIdentical) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  const std::string before = dataplane_fingerprint(dp, ctl);
  const verify::PlanResult res = ctl.plan(
      {PlanOp::add(make_spec("ok", FlowKeySpec::dst_ip(),
                             AttributeKind::kFrequency, Algorithm::kCms, 4096)),
       // Its parity toggle loads XOR into a SALU's spare action slot.
       PlanOp::add(make_spec("odd", FlowKeySpec::ip_pair(),
                             AttributeKind::kSimilarity, Algorithm::kOddSketch, 4096)),
       PlanOp::add(make_spec("whale", FlowKeySpec::ip_pair(),
                             AttributeKind::kFrequency, Algorithm::kCms,
                             1u << 30))});
  EXPECT_FALSE(res.ok);
  EXPECT_FALSE(res.error.empty());
  ASSERT_EQ(res.ops.size(), 3u);
  EXPECT_TRUE(res.ops[0].ok);
  EXPECT_TRUE(res.ops[1].ok) << res.format();
  EXPECT_FALSE(res.ops[2].ok);
  EXPECT_EQ(dataplane_fingerprint(dp, ctl), before);
  EXPECT_NE(res.format().find("plan FAILED"), std::string::npos);
}

TEST(Planner, RemoveAndResizeTranslateLiveIds) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto a = ctl.add_task(make_spec("a", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096));
  const auto b = ctl.add_task(make_spec("b", FlowKeySpec::dst_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096));
  ASSERT_TRUE(a.ok && b.ok);
  const std::string before = dataplane_fingerprint(dp, ctl);
  const verify::PlanResult res = ctl.plan(
      {PlanOp::remove(a.task_id), PlanOp::resize(b.task_id, 8192)});
  EXPECT_TRUE(res.ok) << res.format();
  ASSERT_EQ(res.ops.size(), 2u);
  EXPECT_NE(res.ops[1].detail.find("resized to 8192"), std::string::npos);
  // The resize keeps b's id; a is gone from the plan a commit would publish.
  const auto owned_by = [&](std::uint32_t id) {
    const std::string label = "task " + std::to_string(id) + " ";
    return std::count_if(res.compiled_after.begin(), res.compiled_after.end(),
                         [&](const std::string& line) { return line.rfind(label, 0) == 0; });
  };
  EXPECT_EQ(owned_by(a.task_id), 0);
  EXPECT_GT(owned_by(b.task_id), 0);
  EXPECT_EQ(ctl.num_tasks(), 2u);
  EXPECT_EQ(ctl.task(b.task_id)->buckets, 4096u);
  EXPECT_EQ(dataplane_fingerprint(dp, ctl), before);
}

TEST(Planner, SplitOpRetiresTheParentId) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto r = ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096,
                                        TaskFilter::src(0x0A000000u, 8)));
  ASSERT_TRUE(r.ok) << r.error;
  const verify::PlanResult res = ctl.plan({PlanOp::split(r.task_id)});
  EXPECT_TRUE(res.ok) << res.format();
  ASSERT_EQ(res.ops.size(), 1u);
  EXPECT_EQ(res.ops[0].detail, "split into tasks 2 + 3");
  const std::string parent = "task " + std::to_string(r.task_id) + " ";
  EXPECT_TRUE(std::none_of(res.compiled_after.begin(), res.compiled_after.end(),
                           [&](const std::string& line) { return line.rfind(parent, 0) == 0; }));
  EXPECT_EQ(ctl.num_tasks(), 1u);  // live task untouched
  EXPECT_NE(ctl.task(r.task_id), nullptr);
}

TEST(Planner, UnknownLiveIdFailsTheBatch) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const verify::PlanResult res = ctl.plan({PlanOp::remove(999)});
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("unknown task 999"), std::string::npos) << res.error;
}

// An op may address a task an earlier op of the same batch minted.
TEST(Planner, LaterOpsAddressIdsEarlierOpsMinted) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const verify::PlanResult res = ctl.plan(
      {PlanOp::add(make_spec("hh", FlowKeySpec::src_ip(), AttributeKind::kFrequency,
                             Algorithm::kCms, 4096, TaskFilter::src(0x0A000000u, 8))),
       PlanOp::resize(1, 8192), PlanOp::split(1), PlanOp::remove(3)});
  EXPECT_TRUE(res.ok) << res.format();
  ASSERT_EQ(res.ops.size(), 4u);
  // The resize staged its replacement as task 2 and handed it id 1.
  EXPECT_EQ(res.ops[2].detail, "split into tasks 3 + 4");
  EXPECT_EQ(ctl.num_tasks(), 0u);
}

/// Four 3-row CMS tasks, each a quarter of every CMU of one group; the 1st
/// and 3rd are removed, so the free memory is two quarters that are not
/// buddies and a half-CMU task cannot be placed.
void build_fragmented_world(Controller& ctl) {
  std::vector<std::uint32_t> ids;
  for (std::uint32_t i = 0; i < 4; ++i) {
    TaskSpec s = make_spec("q" + std::to_string(i), FlowKeySpec::src_ip(),
                           AttributeKind::kFrequency, Algorithm::kCms, 16384,
                           TaskFilter::src((10u + i) << 24, 8));
    s.rows = 3;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << r.error;
    ids.push_back(r.task_id);
  }
  ASSERT_TRUE(ctl.remove_task(ids[0]));
  ASSERT_TRUE(ctl.remove_task(ids[2]));
}

TEST(Planner, FragmentedWorldVerdictIsTheCommits) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  ASSERT_NO_FATAL_FAILURE(build_fragmented_world(ctl));
  TaskSpec big = make_spec("big", FlowKeySpec::src_ip(), AttributeKind::kFrequency,
                           Algorithm::kCms, 32768, TaskFilter::src(20u << 24, 8));
  big.rows = 3;
  const verify::PlanResult res = ctl.plan({PlanOp::add(big)});
  const verify::PlanResult committed = ctl.apply({PlanOp::add(big)});
  EXPECT_FALSE(committed.ok);
  ASSERT_EQ(committed.ops.size(), 1u);
  EXPECT_NE(committed.ops[0].detail.find("insufficient resources"), std::string::npos);
  EXPECT_FALSE(res.ok) << res.format();
  ASSERT_EQ(res.ops.size(), 1u);
  EXPECT_EQ(res.ops[0].ok, committed.ops[0].ok);
  EXPECT_EQ(res.ops[0].detail, committed.ops[0].detail);
}

TEST(Planner, EmptyBatchAfterRemovalDiffsToNothing) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  const auto a = ctl.add_task(make_spec("a", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency, Algorithm::kCms,
                                        4096, TaskFilter::src(10u << 24, 8)));
  const auto b = ctl.add_task(make_spec("b", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency, Algorithm::kCms,
                                        4096, TaskFilter::src(11u << 24, 8)));
  ASSERT_TRUE(a.ok && b.ok);
  ASSERT_TRUE(ctl.remove_task(a.task_id));
  const verify::PlanResult res = ctl.plan({});
  EXPECT_TRUE(res.ok) << res.format();
  const std::string diff = verify::format_plan_diff(res.compiled_before, res.compiled_after);
  EXPECT_NE(diff.find("no compiled-entry changes"), std::string::npos) << diff;
}

/// The controller's reconfiguration counters.
std::array<std::uint64_t, 4> task_counters(telemetry::Registry& reg) {
  return {reg.counter("flymon_task_deploys_total").value(),
          reg.counter("flymon_task_removals_total").value(),
          reg.counter("flymon_task_resizes_total").value(),
          reg.counter("flymon_task_deploy_failures_total").value()};
}

// A dry run of [remove A, add B] places B in the partitions A fills.  It
// writes none of their cells, counts nothing, consumes no id or plan
// generation, and names the ids the commit then mints.
TEST(Planner, DryRunReusingALivePartitionLeavesNoTrace) {
  const bool telemetry_was = telemetry::enabled();
  telemetry::set_enabled(true);
  telemetry::Registry reg;
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  ctl.bind_telemetry(reg);
  ctl.set_paranoid(true);
  TaskSpec a = make_spec("a", FlowKeySpec::src_ip(), AttributeKind::kFrequency,
                         Algorithm::kCms, 65536);
  a.rows = 3;  // every cell of all three CMUs
  const auto ra = ctl.add_task(a);
  ASSERT_TRUE(ra.ok) << ra.error;

  TraceConfig cfg;
  cfg.num_flows = 200;
  cfg.num_packets = 4000;
  const std::vector<Packet> trace = TraceGenerator::generate(cfg);
  dp.process_batch(trace);
  const auto answers = [&] {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < 64; ++i) out.push_back(ctl.query_value(ra.task_id, trace[i]));
    return out;
  };
  const std::vector<std::uint64_t> answers_before = answers();
  ASSERT_GT(*std::max_element(answers_before.begin(), answers_before.end()), 0u);
  const std::string before = dataplane_fingerprint(dp, ctl);
  const std::uint64_t gen = dp.plan_generation();
  const auto counters = task_counters(reg);

  TaskSpec b = a;
  b.name = "b";
  const verify::PlanResult res = ctl.plan({PlanOp::remove(ra.task_id), PlanOp::add(b)});
  ASSERT_TRUE(res.ok) << res.format();
  ASSERT_EQ(res.ops.size(), 2u);

  EXPECT_EQ(answers(), answers_before);
  EXPECT_EQ(dataplane_fingerprint(dp, ctl), before);
  EXPECT_EQ(dp.plan_generation(), gen);
  EXPECT_EQ(task_counters(reg), counters);
  EXPECT_TRUE(ctl.last_verify_errors().empty()) << ctl.last_verify_errors();

  // The commit mints the ids the dry run named and publishes its plan.
  const verify::PlanResult committed =
      ctl.apply({PlanOp::remove(ra.task_id), PlanOp::add(b)});
  ASSERT_TRUE(committed.ok) << committed.format();
  ASSERT_EQ(committed.ops.size(), 2u);
  EXPECT_TRUE(committed.ops[0].ok);
  EXPECT_EQ(committed.ops[1].detail, res.ops[1].detail);
  EXPECT_EQ(res.compiled_after, dp.current_plan()->signature());
  telemetry::set_enabled(telemetry_was);
}

// ---- Controller::apply: one batch, one transaction ----

/// A paranoid controller on a private registry, telemetry on, with two
/// 3-row CMS tasks deployed and traffic in their registers.
struct BatchWorld {
  bool telemetry_was = telemetry::enabled();
  telemetry::Registry reg;
  FlyMonDataPlane dp{9};
  Controller ctl{dp};
  std::uint32_t a = 0, b = 0;

  BatchWorld() {
    telemetry::set_enabled(true);
    dp.bind_telemetry(reg);
    ctl.bind_telemetry(reg);
    ctl.set_paranoid(true);
    a = ctl.add_task(cms("a", FlowKeySpec::src_ip(), 4096)).task_id;
    b = ctl.add_task(cms("b", FlowKeySpec::dst_ip(), 4096)).task_id;
    TraceConfig cfg;
    cfg.num_flows = 200;
    cfg.num_packets = 4000;
    dp.process_batch(TraceGenerator::generate(cfg));
  }
  ~BatchWorld() { telemetry::set_enabled(telemetry_was); }

  static TaskSpec cms(const std::string& name, FlowKeySpec key, std::uint32_t buckets) {
    TaskSpec s = make_spec(name, key, AttributeKind::kFrequency, Algorithm::kCms, buckets);
    s.rows = 3;
    return s;
  }
  std::uint64_t folds() {
    return reg.counter("flymon_publish_folds_total", {{"kind", "scoped"}}).value() +
           reg.counter("flymon_publish_folds_total", {{"kind", "full"}}).value();
  }
  std::uint64_t phase_samples(const char* phase) {
    return reg.histogram("flymon_reconfig_phase_us", {{"phase", phase}}).snapshot().count;
  }
};

TEST(Transaction, ParanoidBatchPublishesOnce) {
  BatchWorld w;
  ASSERT_TRUE(w.a != 0 && w.b != 0);
  const std::uint64_t gen = w.dp.plan_generation();
  const std::uint64_t folds = w.folds();
  const std::uint64_t validates = w.phase_samples("validate");
  const std::uint64_t compiles = w.phase_samples("compile");
  const auto counters = task_counters(w.reg);

  const verify::PlanResult r = w.ctl.apply(
      {PlanOp::add(BatchWorld::cms("c", FlowKeySpec::ip_pair(), 4096)),
       PlanOp::resize(w.a, 8192), PlanOp::remove(w.b)});
  ASSERT_TRUE(r.ok) << r.format();
  ASSERT_EQ(r.ops.size(), 3u);
  EXPECT_EQ(w.dp.plan_generation(), gen + 1);
  EXPECT_EQ(w.folds(), folds + 1);
  EXPECT_EQ(w.phase_samples("validate"), validates + 1);
  EXPECT_EQ(w.phase_samples("compile"), compiles + 1);
  // Two deploys (the add and the resize's replacement), two removals (the
  // remove and the resized instance), one resize.
  EXPECT_EQ(task_counters(w.reg),
            (std::array<std::uint64_t, 4>{counters[0] + 2, counters[1] + 2,
                                          counters[2] + 1, counters[3]}));
  EXPECT_EQ(w.ctl.num_tasks(), 2u);
  EXPECT_EQ(w.ctl.task(w.a)->buckets, 8192u);
  EXPECT_EQ(w.ctl.task(w.b), nullptr);
  EXPECT_EQ(r.ops[0].task_ids, std::vector<std::uint32_t>{3u});
  EXPECT_EQ(r.ops[1].task_ids, std::vector<std::uint32_t>{w.a});
  EXPECT_TRUE(r.ops[2].task_ids.empty());
  EXPECT_TRUE(w.ctl.last_verify_errors().empty()) << w.ctl.last_verify_errors();
}

TEST(Transaction, BatchWhoseLastOpFailsPublishesNothing) {
  BatchWorld w;
  const std::string before = dataplane_fingerprint(w.dp, w.ctl);
  const std::uint64_t gen = w.dp.plan_generation();
  const auto counters = task_counters(w.reg);

  const verify::PlanResult r = w.ctl.apply(
      {PlanOp::remove(w.b), PlanOp::resize(w.a, 8192),
       PlanOp::add(BatchWorld::cms("whale", FlowKeySpec::ip_pair(), 1u << 30))});
  EXPECT_FALSE(r.ok);
  ASSERT_EQ(r.ops.size(), 3u);
  EXPECT_TRUE(r.ops[0].ok && r.ops[1].ok);
  EXPECT_NE(r.ops[2].detail.find("insufficient resources"), std::string::npos)
      << r.ops[2].detail;
  EXPECT_NE(r.error.find("op 'add \"whale\"' failed"), std::string::npos) << r.error;
  EXPECT_EQ(dataplane_fingerprint(w.dp, w.ctl), before);
  EXPECT_EQ(w.dp.plan_generation(), gen);
  EXPECT_EQ(task_counters(w.reg),
            (std::array<std::uint64_t, 4>{counters[0], counters[1], counters[2],
                                          counters[3] + 1}));
  EXPECT_EQ(w.ctl.num_tasks(), 2u);
  EXPECT_EQ(w.ctl.task(w.a)->buckets, 4096u);
  // The failed batch consumed no id.
  EXPECT_EQ(w.ctl.add_task(BatchWorld::cms("c", FlowKeySpec::ip_pair(), 4096)).task_id, 3u);
}

// The dry run is the commit rewound: the same op details and ids, and the
// compiled plan the commit then publishes.
TEST(Transaction, PlanPredictsTheBatchApplyPublishes) {
  BatchWorld w;
  TaskSpec c = BatchWorld::cms("c", FlowKeySpec::ip_pair(), 4096);
  c.filter = TaskFilter::src(10u << 24, 8);
  const std::vector<PlanOp> ops = {PlanOp::remove(w.b), PlanOp::add(c),
                                   PlanOp::split(3), PlanOp::resize(w.a, 16384)};
  const verify::PlanResult planned = w.ctl.plan(ops);
  ASSERT_TRUE(planned.ok) << planned.format();
  const verify::PlanResult applied = w.ctl.apply(ops);
  ASSERT_TRUE(applied.ok) << applied.format();
  EXPECT_EQ(planned.compiled_after, w.dp.current_plan()->signature());
  ASSERT_EQ(planned.ops.size(), applied.ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(planned.ops[i].ok, applied.ops[i].ok) << i;
    EXPECT_EQ(planned.ops[i].detail, applied.ops[i].detail) << i;
    EXPECT_EQ(planned.ops[i].task_ids, applied.ops[i].task_ids) << i;
  }
  EXPECT_EQ(applied.ops[2].detail, "split into tasks 4 + 5");
}

// ---- shell `plan` command family ----

TEST(ShellPlan, StageShowRunClearRoundTrip) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  control::Shell shell(ctl);
  EXPECT_NE(shell.execute("plan").find("no staged ops"), std::string::npos);
  EXPECT_EQ(shell.execute(
                "plan add name=hh key=SrcIP attr=Frequency algo=CMS mem=4096"),
            "staged op 1: add");
  const std::string shown = shell.execute("plan show");
  EXPECT_NE(shown.find("add \"hh\""), std::string::npos) << shown;
  EXPECT_NE(shown.find("1 op(s) staged"), std::string::npos) << shown;
  const std::string run = shell.execute("plan run");
  EXPECT_NE(run.find("plan OK"), std::string::npos) << run;
  EXPECT_NE(run.find("dry run; data plane untouched"), std::string::npos);
  EXPECT_EQ(ctl.num_tasks(), 0u);
  EXPECT_EQ(shell.execute("plan clear"), "cleared 1 staged op(s)");
  EXPECT_NE(shell.execute("plan").find("no staged ops"), std::string::npos);
}

TEST(ShellPlan, CommitAppliesTheBatchAndClearsIt) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  control::Shell shell(ctl);
  shell.execute("plan add name=hh key=SrcIP attr=Frequency algo=CMS mem=4096");
  const std::string committed = shell.execute("plan commit");
  EXPECT_NE(committed.find("1 op(s) committed"), std::string::npos)
      << committed;
  EXPECT_EQ(ctl.num_tasks(), 1u);
  EXPECT_NE(shell.execute("plan").find("no staged ops"), std::string::npos);
}

TEST(ShellPlan, CommitAbortsOnFailedDryRunAndKeepsTheBatch) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  control::Shell shell(ctl);
  shell.execute("plan add name=whale key=SrcIP attr=Frequency algo=CMS "
                "mem=1073741824");
  const std::string committed = shell.execute("plan commit");
  EXPECT_NE(committed.find("commit aborted"), std::string::npos) << committed;
  EXPECT_EQ(ctl.num_tasks(), 0u);
  EXPECT_NE(shell.execute("plan show").find("1 op(s) staged"),
            std::string::npos);
}

TEST(ShellPlan, CommitOnAFragmentedWorldFailsLikeTheCommit) {
  FlyMonDataPlane dp(1);
  Controller ctl(dp);
  ASSERT_NO_FATAL_FAILURE(build_fragmented_world(ctl));
  control::Shell shell(ctl);
  shell.execute("plan add name=big key=SrcIP attr=Frequency algo=CMS "
                "mem=32768 rows=3 filter=20.0.0.0/8");
  const std::string committed = shell.execute("plan commit");
  EXPECT_NE(committed.find("plan FAILED"), std::string::npos) << committed;
  EXPECT_NE(committed.find("insufficient resources"), std::string::npos) << committed;
  EXPECT_EQ(ctl.num_tasks(), 2u);
}

TEST(ShellPlan, StagingValidatesLiveTaskIds) {
  // Staging checks only syntax; `plan run` is the one validator and
  // reports an unknown id exactly as a commit would.
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  control::Shell shell(ctl);
  EXPECT_EQ(shell.execute("plan remove 42"), "staged op 1: remove");
  const std::string run = shell.execute("plan run");
  EXPECT_NE(run.find("plan FAILED: op 'remove task 42' failed: unknown task 42"),
            std::string::npos)
      << run;
  EXPECT_NE(run.find("[FAIL] remove task 42: unknown task 42"),
            std::string::npos)
      << run;
  EXPECT_EQ(shell.execute("plan resize 42"),
            "error: usage: plan resize <id> <buckets>");
  EXPECT_EQ(shell.execute("plan split x"), "error: bad arguments");
  EXPECT_NE(shell.execute("plan bogus").find("error: usage"),
            std::string::npos);
}

TEST(ShellPlan, LaterOpsMayNameIdsEarlierOpsMint) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  control::Shell shell(ctl);
  ASSERT_EQ(shell.execute(
                "plan add name=hh key=SrcIP attr=Frequency algo=CMS mem=4096"),
            "staged op 1: add");
  const std::string minted = shell.execute("plan run");
  const std::size_t at = minted.find("deployed as task ");
  ASSERT_NE(at, std::string::npos) << minted;
  const std::string id = minted.substr(at + 17, minted.find('\n', at) - at - 17);
  EXPECT_EQ(shell.execute("plan resize " + id + " 8192"), "staged op 2: resize");
  const std::string run = shell.execute("plan run");
  EXPECT_EQ(run.rfind("plan OK", 0), 0u) << run;
  EXPECT_NE(run.find("[ok] resize task " + id + " -> 8192 buckets"),
            std::string::npos)
      << run;
  EXPECT_EQ(ctl.num_tasks(), 0u);
}

TEST(ShellPlan, AccuracyTargetArgumentsReachTheSpec) {
  FlyMonDataPlane dp(9);
  Controller ctl(dp);
  control::Shell shell(ctl);
  const std::string resp = shell.execute(
      "add name=hh key=SrcIP attr=Frequency algo=CMS mem=4096 "
      "eps=0.001 delta=0.05 flows=1000");
  ASSERT_EQ(resp.rfind("error", 0), std::string::npos) << resp;
  const auto ids = ctl.task_ids();
  ASSERT_EQ(ids.size(), 1u);
  const control::DeployedTask* t = ctl.task(ids[0]);
  ASSERT_NE(t, nullptr);
  EXPECT_DOUBLE_EQ(t->spec.target_epsilon, 0.001);
  EXPECT_DOUBLE_EQ(t->spec.target_delta, 0.05);
  EXPECT_EQ(t->spec.expected_items, 1000u);
  EXPECT_EQ(shell.execute("add name=x key=SrcIP attr=Frequency algo=CMS "
                          "mem=4096 eps=0"),
            "error: bad eps");
}

// ---- machine-readable reports ----

TEST(JsonReport, VerifyReportEncodesCountsAndEscapes) {
  verify::VerifyReport r;
  r.analyzers_run.push_back("dataflow-key");
  r.add(Severity::kError, "dataflow.key.cancel", "g0.cmu1",
        "selector \"7\" cancels", "pick two units");
  r.add(Severity::kWarning, "dataflow.key.dead", "g0.cmu2", "8 dead bits");
  const std::string json = verify::to_json(r);
  EXPECT_NE(json.find("\"analyzers\":[\"dataflow-key\"]"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"counts\":{\"error\":1,\"warning\":1,\"info\":0}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"check\":\"dataflow.key.cancel\""), std::string::npos);
  EXPECT_NE(json.find("selector \\\"7\\\" cancels"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"hint\":\"pick two units\""), std::string::npos);
}

TEST(JsonReport, SelfTestResultEncodesEveryCase) {
  const auto result = verify::run_mutation_self_test("dataflow-");
  ASSERT_EQ(result.cases.size(), 5u);
  EXPECT_TRUE(result.passed()) << verify::format(result);
  const std::string json = verify::to_json(result);
  EXPECT_NE(json.find("\"baseline_clean\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"passed\":true"), std::string::npos);
  for (const auto& c : result.cases) {
    EXPECT_NE(json.find("\"mutation\":\"" + c.mutation + "\""),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"expected_check\":\"" + c.expected_check + "\""),
              std::string::npos);
  }
}

}  // namespace
}  // namespace flymon
