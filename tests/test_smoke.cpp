// End-to-end smoke test: deploy tasks through the controller, run a trace
// through the CMU data plane, and verify control-plane readout accuracy.
#include <gtest/gtest.h>

#include "analysis/metrics.hpp"
#include "control/controller.hpp"
#include "packet/trace_gen.hpp"

namespace flymon {
namespace {

TEST(Smoke, CmsFrequencyTaskEndToEnd) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);

  TaskSpec spec;
  spec.name = "per-src flow size";
  spec.key = FlowKeySpec::src_ip();
  spec.attribute = AttributeKind::kFrequency;
  spec.param = ParamSpec::constant(1);
  spec.memory_buckets = 16384;
  spec.rows = 3;
  const auto r = ctl.add_task(spec);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(r.report.delay_ms(), 0.0);

  TraceConfig cfg;
  cfg.num_flows = 2000;
  cfg.num_packets = 100'000;
  const auto trace = TraceGenerator::generate(cfg);
  dp.process_batch(trace);

  const FreqMap truth = ExactStats::frequency(trace, spec.key);
  const double are = analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
    return ctl.query_value(r.task_id, packet_from_candidate_key(k.bytes));
  });
  EXPECT_LT(are, 0.05) << "CMS ARE too high";
}

TEST(Smoke, BeauCoupDdosDetection) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);

  TaskSpec spec;
  spec.name = "ddos victims";
  spec.key = FlowKeySpec::dst_ip();
  spec.attribute = AttributeKind::kDistinct;
  spec.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  spec.algorithm = Algorithm::kBeauCoup;
  spec.report_threshold = 512;
  spec.memory_buckets = 16384;
  spec.rows = 3;
  const auto r = ctl.add_task(spec);
  ASSERT_TRUE(r.ok) << r.error;

  TraceConfig cfg;
  cfg.num_flows = 3000;
  cfg.num_packets = 60'000;
  auto trace = TraceGenerator::generate(cfg);
  DdosConfig ddos;
  ddos.num_victims = 10;
  ddos.spreaders_per_victim = 2000;
  TraceGenerator::inject_ddos(trace, ddos, cfg.duration_ns);
  dp.process_batch(trace);

  const FreqMap truth = ExactStats::distinct(trace, spec.key, FlowKeySpec::src_ip());
  const auto victims = ExactStats::over_threshold(truth, 512);
  ASSERT_GE(victims.size(), 10u);

  std::vector<FlowKeyValue> candidates;
  for (const auto& [k, v] : truth) candidates.push_back(k);
  const auto reported = ctl.detect_over_threshold(r.task_id, candidates, 512);
  const auto score = analysis::score_detection(victims, reported);
  EXPECT_GT(score.f1(), 0.8) << "precision=" << score.precision()
                             << " recall=" << score.recall();
}

TEST(Smoke, HyperLogLogCardinality) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);

  TaskSpec spec;
  spec.name = "cardinality";
  spec.key = FlowKeySpec{};  // N/A key: whole-traffic cardinality
  spec.attribute = AttributeKind::kDistinct;
  spec.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  spec.algorithm = Algorithm::kHyperLogLog;
  spec.memory_buckets = 2048;
  const auto r = ctl.add_task(spec);
  ASSERT_TRUE(r.ok) << r.error;

  TraceConfig cfg;
  cfg.num_flows = 20'000;
  cfg.num_packets = 80'000;
  cfg.zipf_alpha = 0.4;
  const auto trace = TraceGenerator::generate(cfg);
  dp.process_batch(trace);

  const double truth =
      static_cast<double>(ExactStats::cardinality(trace, FlowKeySpec::five_tuple()));
  const double est = ctl.estimate_cardinality(r.task_id);
  EXPECT_LT(analysis::relative_error(truth, est), 0.1)
      << "truth=" << truth << " est=" << est;
}

TEST(Smoke, BloomFilterExistence) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);

  TaskSpec spec;
  spec.name = "blacklist";
  spec.key = FlowKeySpec::five_tuple();
  spec.attribute = AttributeKind::kExistence;
  spec.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  spec.memory_buckets = 4096;
  spec.rows = 3;
  const auto r = ctl.add_task(spec);
  ASSERT_TRUE(r.ok) << r.error;

  TraceConfig cfg;
  cfg.num_flows = 2000;
  cfg.num_packets = 4000;
  const auto trace = TraceGenerator::generate(cfg);
  dp.process_batch(trace);

  // Every inserted flow must be found (no false negatives).
  for (std::size_t i = 0; i < 200; ++i) {
    EXPECT_TRUE(ctl.query_existence(r.task_id, trace[i]));
  }
  // Unseen flows are mostly absent.
  TraceConfig other = cfg;
  other.seed = 999;
  other.src_ip_base = 0x2E00'0000;
  const auto unseen = TraceGenerator::generate(other);
  unsigned fp = 0;
  for (std::size_t i = 0; i < 500; ++i) fp += ctl.query_existence(r.task_id, unseen[i]);
  EXPECT_LT(fp, 50u);
}

TEST(Smoke, TaskLifecycle) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);

  TaskSpec spec;
  spec.key = FlowKeySpec::src_ip();
  spec.attribute = AttributeKind::kFrequency;
  spec.memory_buckets = 8192;
  const auto r1 = ctl.add_task(spec);
  ASSERT_TRUE(r1.ok);

  const auto r2 = ctl.resize_task(r1.task_id, 32768);
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(r2.task_id, r1.task_id) << "public id is stable across resize";
  ASSERT_NE(ctl.task(r2.task_id), nullptr);
  EXPECT_EQ(ctl.task(r2.task_id)->buckets, 32768u);

  EXPECT_TRUE(ctl.remove_task(r2.task_id));
  EXPECT_EQ(ctl.num_tasks(), 0u);
}

}  // namespace
}  // namespace flymon
