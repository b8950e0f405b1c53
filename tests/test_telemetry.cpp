// Telemetry subsystem: metric primitives, registry snapshots, exporters,
// sampled packet tracing, per-task health, and the shell's telemetry/trace
// commands.  The exporter golden test pins the exact Prometheus/JSON text of
// a small deployed-task scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "control/epoch.hpp"
#include "control/shell.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_ring.hpp"
#include "trace/span.hpp"
#include "verify/planner.hpp"

namespace flymon {
namespace {

using telemetry::Labels;
using telemetry::Registry;

/// Flip the global telemetry switch for one test, restoring on exit.
struct EnabledGuard {
  explicit EnabledGuard(bool on) : prev_(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~EnabledGuard() { telemetry::set_enabled(prev_); }
  bool prev_;
};

TEST(TelemetryCounter, DisabledIsNoOp) {
  EnabledGuard off(false);
  telemetry::Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryCounter, EnabledCountsAndResets) {
  EnabledGuard on(true);
  telemetry::Counter c;
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(TelemetryGauge, WritableRegardlessOfSwitch) {
  EnabledGuard off(false);
  telemetry::Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(TelemetryHistogram, BucketSemantics) {
  EnabledGuard on(true);
  telemetry::Histogram h({1.0, 10.0, 100.0});
  h.observe(0.5);   // bucket le=1
  h.observe(1.0);   // le=1 (upper bound inclusive)
  h.observe(7.0);   // le=10
  h.observe(1000);  // +Inf
  const auto s = h.snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.counts.size(), 4u);
  EXPECT_EQ(s.counts[0], 2u);
  EXPECT_EQ(s.counts[1], 1u);
  EXPECT_EQ(s.counts[2], 0u);
  EXPECT_EQ(s.counts[3], 1u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.sum, 1008.5);
}

TEST(TelemetryHistogram, DisabledIsNoOp) {
  EnabledGuard off(false);
  telemetry::Histogram h({1.0});
  h.observe(0.5);
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(TelemetryHistogram, ExponentialBounds) {
  const auto b = telemetry::Histogram::exponential_bounds(1.0, 4.0, 4);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_DOUBLE_EQ(b[0], 1.0);
  EXPECT_DOUBLE_EQ(b[3], 64.0);
}

TEST(TelemetryRegistry, StableRefsAndDeterministicSnapshot) {
  EnabledGuard on(true);
  Registry reg;
  telemetry::Counter& a = reg.counter("zeta_total", {{"x", "1"}});
  telemetry::Counter& a2 = reg.counter("zeta_total", {{"x", "1"}});
  EXPECT_EQ(&a, &a2);  // same identity -> same metric
  reg.counter("alpha_total").inc(3);
  reg.gauge("mid_gauge", {{"k", "v"}}).set(7);
  a.inc(5);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Sorted by canonical key: alpha_total, mid_gauge{...}, zeta_total{...}.
  EXPECT_EQ(snap[0].name, "alpha_total");
  EXPECT_EQ(snap[1].name, "mid_gauge");
  EXPECT_EQ(snap[2].name, "zeta_total");
  EXPECT_DOUBLE_EQ(snap[2].value, 5.0);
  EXPECT_EQ(reg.size(), 3u);
  reg.reset_values();
  EXPECT_DOUBLE_EQ(reg.snapshot()[0].value, 0.0);
  EXPECT_EQ(reg.size(), 3u);  // structure survives a value reset
}

TEST(TelemetryRegistry, MetricKeyCanonicalForm) {
  EXPECT_EQ(telemetry::metric_key("m", {}), "m");
  EXPECT_EQ(telemetry::metric_key("m", {{"a", "1"}, {"b", "x"}}),
            "m{a=\"1\",b=\"x\"}");
}

TEST(TelemetryExport, PrometheusHandBuilt) {
  EnabledGuard on(true);
  Registry reg;
  reg.counter("requests_total", {{"code", "200"}}).inc(3);
  reg.gauge("temp").set(1.5);
  reg.histogram("lat", {}, {1.0, 2.0}).observe(1.5);
  const std::string text = telemetry::to_prometheus(reg);
  EXPECT_EQ(text,
            "# TYPE lat histogram\n"
            "lat_bucket{le=\"1\"} 0\n"
            "lat_bucket{le=\"2\"} 1\n"
            "lat_bucket{le=\"+Inf\"} 1\n"
            "lat_sum 1.5\n"
            "lat_count 1\n"
            "# TYPE requests_total counter\n"
            "requests_total{code=\"200\"} 3\n"
            "# TYPE temp gauge\n"
            "temp 1.5\n");
}

TEST(TelemetryExport, JsonHandBuilt) {
  EnabledGuard on(true);
  Registry reg;
  reg.counter("c_total").inc(2);
  reg.gauge("g", {{"l", "a\"b"}}).set(0.25);
  const std::string text = telemetry::to_json(reg);
  EXPECT_NE(text.find("\"name\":\"c_total\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":2"), std::string::npos);
  EXPECT_NE(text.find("\"l\":\"a\\\"b\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"gauge\""), std::string::npos);
}

TEST(TelemetryExport, FormatNumber) {
  EXPECT_EQ(telemetry::format_number(17), "17");
  EXPECT_EQ(telemetry::format_number(0.421875), "0.421875");
  EXPECT_EQ(telemetry::format_number(-3), "-3");
}

// ---- packet tracing ----

TEST(PacketTracer, SamplesOneInN) {
  telemetry::PacketTracer tracer(4, 3);
  // Two batches: the second continues the first's sequence numbers.
  const telemetry::TraceSample a = tracer.sample_batch(5);
  const telemetry::TraceSample b = tracer.sample_batch(7);
  unsigned sampled = 0;
  for (unsigned i = 0; i < 5; ++i) sampled += a.traced(i) ? 1 : 0;
  for (unsigned i = 0; i < 7; ++i) sampled += b.traced(i) ? 1 : 0;
  EXPECT_EQ(sampled, 4u);  // packets 0, 3, 6, 9
  EXPECT_EQ(b.first_seq, 5u);
  EXPECT_EQ(b.first_traced(), 1u);  // packet 6
  EXPECT_EQ(b.at(2).first_traced(), 2u);  // packet 9
  EXPECT_EQ(tracer.packets_seen(), 12u);
  EXPECT_GE(telemetry::TraceSample{}.first_traced(), 12u);  // no tracer
}

TEST(PacketTracer, RingKeepsNewestOldestFirst) {
  telemetry::PacketTracer tracer(2, 1);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Packet p;
    p.ts_ns = i;
    ASSERT_TRUE(tracer.sample_batch(1).traced(0));
    tracer.publish(telemetry::TraceRecord::start(i, p));
  }
  const auto recs = tracer.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].ts_ns, 3u);  // oldest surviving
  EXPECT_EQ(recs[1].ts_ns, 4u);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.packets_seen(), 0u);
}

TEST(PacketTracer, DataplaneFillsSteps) {
  EnabledGuard on(true);
  FlyMonDataPlane dp(1);
  control::Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 1024;
  s.rows = 3;
  ASSERT_TRUE(ctl.add_task(s).ok);

  telemetry::PacketTracer tracer(8, 2);
  dp.set_tracer(&tracer);
  TraceConfig cfg;
  cfg.num_flows = 10;
  cfg.num_packets = 20;
  for (const Packet& p : TraceGenerator::generate(cfg)) dp.process(p);
  dp.set_tracer(nullptr);

  EXPECT_EQ(tracer.packets_seen(), 20u);
  const auto recs = tracer.records();
  ASSERT_EQ(recs.size(), 8u);
  for (const auto& r : recs) {
    ASSERT_FALSE(r.keys.empty());      // compressed keys of group 0
    ASSERT_EQ(r.steps.size(), 3u);     // one step per CMS row
    for (const auto& step : r.steps) {
      EXPECT_STREQ(step.op, "Cond-ADD");
      EXPECT_FALSE(step.aborted);
      EXPECT_GE(step.result, 1u);
    }
  }
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"steps\""), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"Cond-ADD\""), std::string::npos);
}

// Exercised under -fsanitize=thread (the `tsan` preset): the data-plane
// thread publishes trace records while a monitoring thread snapshots them.
// Readers must only ever observe fully committed records.
TEST(PacketTracer, ConcurrentReaderSeesOnlyCommittedRecords) {
  EnabledGuard on(true);
  FlyMonDataPlane dp(1);
  control::Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 1024;
  s.rows = 3;
  ASSERT_TRUE(ctl.add_task(s).ok);

  telemetry::PacketTracer tracer(16, 2);
  dp.set_tracer(&tracer);
  TraceConfig cfg;
  cfg.num_flows = 32;
  cfg.num_packets = 4000;
  const auto packets = TraceGenerator::generate(cfg);

  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      for (const auto& rec : tracer.records()) {
        // Committed CMS records always carry all three row steps.
        EXPECT_EQ(rec.steps.size(), 3u);
      }
      (void)tracer.size();
      (void)tracer.to_json();
      (void)tracer.packets_seen();
    }
  });
  std::thread tuner([&] {
    while (!done.load(std::memory_order_acquire)) {
      tracer.set_sample_every(2);
      (void)tracer.sample_every();
      std::this_thread::yield();
    }
  });
  for (const Packet& p : packets) dp.process(p);
  done.store(true, std::memory_order_release);
  reader.join();
  tuner.join();
  dp.set_tracer(nullptr);

  EXPECT_EQ(tracer.packets_seen(), 4000u);
  EXPECT_EQ(tracer.size(), 16u);
}

// ---- task health ----

TEST(TaskHealth, SaturationAndResizeDelay) {
  EnabledGuard on(true);
  FlyMonDataPlane dp(3);
  control::Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  TraceConfig cfg;
  cfg.num_flows = 2000;
  cfg.num_packets = 20'000;
  dp.process_batch(TraceGenerator::generate(cfg));

  const control::TaskHealth h = ctl.task_health(r.task_id);
  EXPECT_EQ(h.task_id, r.task_id);
  EXPECT_EQ(h.rows, 3u);
  ASSERT_EQ(h.row_saturation.size(), 3u);
  for (double sat : h.row_saturation) {
    EXPECT_GT(sat, 0.0);
    EXPECT_LE(sat, 1.0);
  }
  EXPECT_DOUBLE_EQ(h.max_saturation,
                   *std::max_element(h.row_saturation.begin(),
                                     h.row_saturation.end()));
  const double delay0 = h.cumulative_delay_ms;
  EXPECT_GT(delay0, 0.0);

  // A resize pays another reconfiguration delay on the same public id.
  ASSERT_TRUE(ctl.resize_task(r.task_id, 8192).ok);
  const control::TaskHealth h2 = ctl.task_health(r.task_id);
  EXPECT_GT(h2.cumulative_delay_ms, delay0);
  EXPECT_EQ(ctl.health().size(), 1u);
}

// ---- epoch hook ----

TEST(EpochRunnerTelemetry, RecordsEpochsAndSaturation) {
  EnabledGuard on(true);
  Registry reg;
  FlyMonDataPlane dp(3);
  dp.bind_telemetry(reg);
  control::Controller ctl(dp);
  ctl.bind_telemetry(reg);
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  s.rows = 2;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  control::EpochRunner runner(dp, 100'000'000);
  runner.bind_telemetry(reg, &ctl);
  TraceConfig cfg;
  cfg.num_packets = 5'000;
  cfg.duration_ns = 400'000'000;
  const auto trace = TraceGenerator::generate(cfg);
  ingest::MemorySource source{trace};
  const unsigned epochs = runner.run_stream(source, [](unsigned, auto) {});
  EXPECT_GE(epochs, 3u);
  EXPECT_EQ(reg.counter("flymon_epochs_total").value(), epochs);
  EXPECT_EQ(reg.histogram("flymon_epoch_packets").snapshot().count, epochs);
  // One boundary observation (merge + readout + clear) per closed epoch.
  const auto boundary = reg.histogram("flymon_epoch_boundary_us").snapshot();
  EXPECT_EQ(boundary.count, epochs);
  EXPECT_GT(boundary.sum, 0.0);
  const std::string id = std::to_string(r.task_id);
  EXPECT_GT(reg.gauge("flymon_epoch_task_saturation", {{"task", id}}).value(), 0.0);
}

// ---- per-phase reconfiguration latency ----

std::uint64_t phase_samples(Registry& reg, const char* phase) {
  return reg.histogram("flymon_reconfig_phase_us", {{"phase", phase}}).snapshot().count;
}

TaskSpec phase_task() {
  TaskSpec s;
  s.key = FlowKeySpec::src_ip();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  return s;
}

TEST(ReconfigPhaseTelemetry, ParanoidAddRecordsEachPhaseOnce) {
  EnabledGuard on(true);
  Registry reg;
  FlyMonDataPlane dp(3);
  control::Controller ctl(dp);
  ctl.bind_telemetry(reg);
  ctl.set_paranoid(true);
  ASSERT_TRUE(ctl.add_task(phase_task()).ok);
  for (const char* phase : {"checkpoint", "compile", "validate", "zero", "publish"}) {
    EXPECT_EQ(phase_samples(reg, phase), 1u) << phase;
  }
  // A dry run is not a reconfiguration: it records nothing.
  ASSERT_TRUE(ctl.plan({control::PlanOp::add(phase_task())}).ok);
  for (const char* phase : {"checkpoint", "compile", "validate", "zero", "publish"}) {
    EXPECT_EQ(phase_samples(reg, phase), 1u) << phase;
  }
}

TEST(ReconfigPhaseTelemetry, NonParanoidAddRecordsNoValidateSample) {
  EnabledGuard on(true);
  Registry reg;
  FlyMonDataPlane dp(3);
  control::Controller ctl(dp);
  ctl.bind_telemetry(reg);
  ASSERT_TRUE(ctl.add_task(phase_task()).ok);
  EXPECT_EQ(phase_samples(reg, "validate"), 0u);
  for (const char* phase : {"checkpoint", "compile", "zero", "publish"}) {
    EXPECT_EQ(phase_samples(reg, phase), 1u) << phase;
  }
}

// ---- golden exporter output of a deployed-task scenario ----

/// Small fully deterministic scenario: 1 group, 64-bucket registers, one
/// 1-row CountMin task, 6 hand-built packets.  The span clock is frozen so
/// the reconfiguration phase histograms read 0 us.
std::string golden_scenario(Registry& reg, bool prometheus) {
  struct FrozenClock {
    FrozenClock() { trace::set_clock([]() -> std::uint64_t { return 0; }); }
    ~FrozenClock() { trace::set_clock(nullptr); }
  } frozen;
  FlyMonDataPlane dp(1, CmuGroupConfig{.register_buckets = 64});
  dp.bind_telemetry(reg);
  control::Controller ctl(dp);
  ctl.bind_telemetry(reg);
  TaskSpec s;
  s.name = "hh";
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 64;
  s.rows = 1;
  const auto r = ctl.add_task(s);
  EXPECT_TRUE(r.ok);
  Packet p;
  p.ft.src_ip = 0x0A000001;
  p.ft.dst_ip = 0x0A000002;
  p.ft.src_port = 1111;
  p.ft.dst_port = 80;
  p.ft.protocol = 6;
  for (unsigned i = 0; i < 4; ++i) dp.process(p);  // one flow, 4 packets
  p.ft.src_ip = 0x0A000003;
  for (unsigned i = 0; i < 2; ++i) dp.process(p);  // second flow, 2 packets
  ctl.collect_telemetry();
  EXPECT_EQ(ctl.query_value(r.task_id, p), 2u);
  return prometheus ? telemetry::to_prometheus(reg) : telemetry::to_json(reg);
}

TEST(TelemetryGolden, PrometheusScenario) {
  EnabledGuard on(true);
  Registry reg;
  const std::string text = golden_scenario(reg, true);
  EXPECT_EQ(text, R"(# TYPE flymon_cmu_prep_aborts_total counter
flymon_cmu_prep_aborts_total{group="0",cmu="0"} 0
flymon_cmu_prep_aborts_total{group="0",cmu="1"} 0
flymon_cmu_prep_aborts_total{group="0",cmu="2"} 0
# TYPE flymon_cmu_register_occupancy gauge
flymon_cmu_register_occupancy{group="0",cmu="0"} 0.03125
flymon_cmu_register_occupancy{group="0",cmu="1"} 0
flymon_cmu_register_occupancy{group="0",cmu="2"} 0
# TYPE flymon_cmu_sampled_out_total counter
flymon_cmu_sampled_out_total{group="0",cmu="0"} 0
flymon_cmu_sampled_out_total{group="0",cmu="1"} 0
flymon_cmu_sampled_out_total{group="0",cmu="2"} 0
# TYPE flymon_cmu_tasks_installed gauge
flymon_cmu_tasks_installed{group="0",cmu="0"} 1
flymon_cmu_tasks_installed{group="0",cmu="1"} 0
flymon_cmu_tasks_installed{group="0",cmu="2"} 0
# TYPE flymon_cmu_updates_total counter
flymon_cmu_updates_total{group="0",cmu="0"} 6
flymon_cmu_updates_total{group="0",cmu="1"} 0
flymon_cmu_updates_total{group="0",cmu="2"} 0
# TYPE flymon_dataplane_groups gauge
flymon_dataplane_groups 1
# TYPE flymon_group_hash_units_configured gauge
flymon_group_hash_units_configured{group="0"} 1
# TYPE flymon_group_packets_total counter
flymon_group_packets_total{group="0"} 6
# TYPE flymon_hash_invocations_total counter
flymon_hash_invocations_total{group="0"} 6
# TYPE flymon_packets_total counter
flymon_packets_total 6
# TYPE flymon_publish_folds_total counter
flymon_publish_folds_total{kind="full"} 0
flymon_publish_folds_total{kind="scoped"} 1
# TYPE flymon_reconfig_phase_us histogram
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="0.25"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="1"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="4"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="16"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="64"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="256"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="1024"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="4096"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="16384"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="65536"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="262144"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="1048576"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="4194304"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="16777216"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="67108864"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="268435456"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="1073741824"} 1
flymon_reconfig_phase_us_bucket{phase="checkpoint",le="+Inf"} 1
flymon_reconfig_phase_us_sum{phase="checkpoint"} 0
flymon_reconfig_phase_us_count{phase="checkpoint"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="0.25"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="1"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="4"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="16"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="64"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="256"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="1024"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="4096"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="16384"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="65536"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="262144"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="1048576"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="4194304"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="16777216"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="67108864"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="268435456"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="1073741824"} 1
flymon_reconfig_phase_us_bucket{phase="compile",le="+Inf"} 1
flymon_reconfig_phase_us_sum{phase="compile"} 0
flymon_reconfig_phase_us_count{phase="compile"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="0.25"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="1"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="4"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="16"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="64"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="256"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="1024"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="4096"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="16384"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="65536"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="262144"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="1048576"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="4194304"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="16777216"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="67108864"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="268435456"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="1073741824"} 1
flymon_reconfig_phase_us_bucket{phase="publish",le="+Inf"} 1
flymon_reconfig_phase_us_sum{phase="publish"} 0
flymon_reconfig_phase_us_count{phase="publish"} 1
flymon_reconfig_phase_us_bucket{phase="validate",le="0.25"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="1"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="4"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="16"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="64"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="256"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="1024"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="4096"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="16384"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="65536"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="262144"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="1048576"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="4194304"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="16777216"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="67108864"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="268435456"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="1073741824"} 0
flymon_reconfig_phase_us_bucket{phase="validate",le="+Inf"} 0
flymon_reconfig_phase_us_sum{phase="validate"} 0
flymon_reconfig_phase_us_count{phase="validate"} 0
flymon_reconfig_phase_us_bucket{phase="zero",le="0.25"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="1"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="4"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="16"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="64"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="256"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="1024"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="4096"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="16384"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="65536"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="262144"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="1048576"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="4194304"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="16777216"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="67108864"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="268435456"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="1073741824"} 1
flymon_reconfig_phase_us_bucket{phase="zero",le="+Inf"} 1
flymon_reconfig_phase_us_sum{phase="zero"} 0
flymon_reconfig_phase_us_count{phase="zero"} 1
# TYPE flymon_salu_op_total counter
flymon_salu_op_total{group="0",cmu="0",op="Cond-ADD"} 6
# TYPE flymon_task_buckets gauge
flymon_task_buckets{task="1"} 64
# TYPE flymon_task_deploy_delay_ms_total gauge
flymon_task_deploy_delay_ms_total{task="1"} 16
# TYPE flymon_task_deploy_failures_total counter
flymon_task_deploy_failures_total 0
# TYPE flymon_task_deploys_total counter
flymon_task_deploys_total 1
# TYPE flymon_task_max_saturation gauge
flymon_task_max_saturation{task="1"} 0.03125
# TYPE flymon_task_removals_total counter
flymon_task_removals_total 0
# TYPE flymon_task_resizes_total counter
flymon_task_resizes_total 0
# TYPE flymon_task_row_saturation gauge
flymon_task_row_saturation{task="1",row="0"} 0.03125
# TYPE flymon_task_rules gauge
flymon_task_rules{task="1"} 5
# TYPE flymon_tasks_active gauge
flymon_tasks_active 1
)");
}

TEST(TelemetryGolden, JsonScenario) {
  EnabledGuard on(true);
  Registry reg;
  const std::string text = golden_scenario(reg, false);
  EXPECT_EQ(text, R"({"metrics":[{"name":"flymon_cmu_prep_aborts_total","kind":"counter","labels":{"group":"0","cmu":"0"},"value":0},{"name":"flymon_cmu_prep_aborts_total","kind":"counter","labels":{"group":"0","cmu":"1"},"value":0},{"name":"flymon_cmu_prep_aborts_total","kind":"counter","labels":{"group":"0","cmu":"2"},"value":0},{"name":"flymon_cmu_register_occupancy","kind":"gauge","labels":{"group":"0","cmu":"0"},"value":0.03125},{"name":"flymon_cmu_register_occupancy","kind":"gauge","labels":{"group":"0","cmu":"1"},"value":0},{"name":"flymon_cmu_register_occupancy","kind":"gauge","labels":{"group":"0","cmu":"2"},"value":0},{"name":"flymon_cmu_sampled_out_total","kind":"counter","labels":{"group":"0","cmu":"0"},"value":0},{"name":"flymon_cmu_sampled_out_total","kind":"counter","labels":{"group":"0","cmu":"1"},"value":0},{"name":"flymon_cmu_sampled_out_total","kind":"counter","labels":{"group":"0","cmu":"2"},"value":0},{"name":"flymon_cmu_tasks_installed","kind":"gauge","labels":{"group":"0","cmu":"0"},"value":1},{"name":"flymon_cmu_tasks_installed","kind":"gauge","labels":{"group":"0","cmu":"1"},"value":0},{"name":"flymon_cmu_tasks_installed","kind":"gauge","labels":{"group":"0","cmu":"2"},"value":0},{"name":"flymon_cmu_updates_total","kind":"counter","labels":{"group":"0","cmu":"0"},"value":6},{"name":"flymon_cmu_updates_total","kind":"counter","labels":{"group":"0","cmu":"1"},"value":0},{"name":"flymon_cmu_updates_total","kind":"counter","labels":{"group":"0","cmu":"2"},"value":0},{"name":"flymon_dataplane_groups","kind":"gauge","labels":{},"value":1},{"name":"flymon_group_hash_units_configured","kind":"gauge","labels":{"group":"0"},"value":1},{"name":"flymon_group_packets_total","kind":"counter","labels":{"group":"0"},"value":6},{"name":"flymon_hash_invocations_total","kind":"counter","labels":{"group":"0"},"value":6},{"name":"flymon_packets_total","kind":"counter","labels":{},"value":6},{"name":"flymon_publish_folds_total","kind":"counter","labels":{"kind":"full"},"value":0},{"name":"flymon_publish_folds_total","kind":"counter","labels":{"kind":"scoped"},"value":1},{"name":"flymon_reconfig_phase_us","kind":"histogram","labels":{"phase":"checkpoint"},"count":1,"sum":0,"buckets":[{"le":0.25,"count":1},{"le":1,"count":0},{"le":4,"count":0},{"le":16,"count":0},{"le":64,"count":0},{"le":256,"count":0},{"le":1024,"count":0},{"le":4096,"count":0},{"le":16384,"count":0},{"le":65536,"count":0},{"le":262144,"count":0},{"le":1048576,"count":0},{"le":4194304,"count":0},{"le":16777216,"count":0},{"le":67108864,"count":0},{"le":268435456,"count":0},{"le":1073741824,"count":0},{"le":"+Inf","count":0}]},{"name":"flymon_reconfig_phase_us","kind":"histogram","labels":{"phase":"compile"},"count":1,"sum":0,"buckets":[{"le":0.25,"count":1},{"le":1,"count":0},{"le":4,"count":0},{"le":16,"count":0},{"le":64,"count":0},{"le":256,"count":0},{"le":1024,"count":0},{"le":4096,"count":0},{"le":16384,"count":0},{"le":65536,"count":0},{"le":262144,"count":0},{"le":1048576,"count":0},{"le":4194304,"count":0},{"le":16777216,"count":0},{"le":67108864,"count":0},{"le":268435456,"count":0},{"le":1073741824,"count":0},{"le":"+Inf","count":0}]},{"name":"flymon_reconfig_phase_us","kind":"histogram","labels":{"phase":"publish"},"count":1,"sum":0,"buckets":[{"le":0.25,"count":1},{"le":1,"count":0},{"le":4,"count":0},{"le":16,"count":0},{"le":64,"count":0},{"le":256,"count":0},{"le":1024,"count":0},{"le":4096,"count":0},{"le":16384,"count":0},{"le":65536,"count":0},{"le":262144,"count":0},{"le":1048576,"count":0},{"le":4194304,"count":0},{"le":16777216,"count":0},{"le":67108864,"count":0},{"le":268435456,"count":0},{"le":1073741824,"count":0},{"le":"+Inf","count":0}]},{"name":"flymon_reconfig_phase_us","kind":"histogram","labels":{"phase":"validate"},"count":0,"sum":0,"buckets":[{"le":0.25,"count":0},{"le":1,"count":0},{"le":4,"count":0},{"le":16,"count":0},{"le":64,"count":0},{"le":256,"count":0},{"le":1024,"count":0},{"le":4096,"count":0},{"le":16384,"count":0},{"le":65536,"count":0},{"le":262144,"count":0},{"le":1048576,"count":0},{"le":4194304,"count":0},{"le":16777216,"count":0},{"le":67108864,"count":0},{"le":268435456,"count":0},{"le":1073741824,"count":0},{"le":"+Inf","count":0}]},{"name":"flymon_reconfig_phase_us","kind":"histogram","labels":{"phase":"zero"},"count":1,"sum":0,"buckets":[{"le":0.25,"count":1},{"le":1,"count":0},{"le":4,"count":0},{"le":16,"count":0},{"le":64,"count":0},{"le":256,"count":0},{"le":1024,"count":0},{"le":4096,"count":0},{"le":16384,"count":0},{"le":65536,"count":0},{"le":262144,"count":0},{"le":1048576,"count":0},{"le":4194304,"count":0},{"le":16777216,"count":0},{"le":67108864,"count":0},{"le":268435456,"count":0},{"le":1073741824,"count":0},{"le":"+Inf","count":0}]},{"name":"flymon_salu_op_total","kind":"counter","labels":{"group":"0","cmu":"0","op":"Cond-ADD"},"value":6},{"name":"flymon_task_buckets","kind":"gauge","labels":{"task":"1"},"value":64},{"name":"flymon_task_deploy_delay_ms_total","kind":"gauge","labels":{"task":"1"},"value":16},{"name":"flymon_task_deploy_failures_total","kind":"counter","labels":{},"value":0},{"name":"flymon_task_deploys_total","kind":"counter","labels":{},"value":1},{"name":"flymon_task_max_saturation","kind":"gauge","labels":{"task":"1"},"value":0.03125},{"name":"flymon_task_removals_total","kind":"counter","labels":{},"value":0},{"name":"flymon_task_resizes_total","kind":"counter","labels":{},"value":0},{"name":"flymon_task_row_saturation","kind":"gauge","labels":{"task":"1","row":"0"},"value":0.03125},{"name":"flymon_task_rules","kind":"gauge","labels":{"task":"1"},"value":5},{"name":"flymon_tasks_active","kind":"gauge","labels":{},"value":1}]})");
}

// ---- shell commands ----

TEST(ShellTelemetry, CommandsRoundTrip) {
  EnabledGuard on(true);
  FlyMonDataPlane dp(3);
  control::Controller ctl(dp);
  control::Shell shell(ctl);
  EXPECT_EQ(shell.execute("telemetry off"), "telemetry disabled");
  EXPECT_EQ(shell.execute("telemetry on"), "telemetry enabled");
  ASSERT_TRUE(shell.execute("add key=SrcIP attr=Frequency mem=4096 rows=3")
                  .find("error") == std::string::npos);
  TraceConfig cfg;
  cfg.num_flows = 100;
  cfg.num_packets = 1'000;
  dp.process_batch(TraceGenerator::generate(cfg));

  const std::string summary = shell.execute("telemetry");
  EXPECT_NE(summary.find("telemetry on"), std::string::npos);
  EXPECT_NE(summary.find("1000 packets processed"), std::string::npos);
  EXPECT_NE(summary.find("CMS"), std::string::npos);

  const std::string prom = shell.execute("telemetry prom");
  EXPECT_NE(prom.find("# TYPE flymon_packets_total counter"), std::string::npos);
  EXPECT_NE(prom.find("flymon_task_max_saturation"), std::string::npos);
  const std::string json = shell.execute("telemetry json");
  EXPECT_NE(json.find("\"flymon_packets_total\""), std::string::npos);

  const std::string stats = shell.execute("stats");
  EXPECT_NE(stats.find("packets processed: 1000"), std::string::npos);
  EXPECT_NE(stats.find("telemetry: on"), std::string::npos);

  EXPECT_EQ(shell.execute("telemetry reset"), "telemetry metrics zeroed");
  EXPECT_EQ(shell.execute("telemetry bogus"),
            "error: usage: telemetry [on|off|reset|json|prom [path]]");
}

TEST(ShellTrace, CommandsRoundTrip) {
  EnabledGuard on(true);
  FlyMonDataPlane dp(3);
  control::Controller ctl(dp);
  control::Shell shell(ctl);
  ASSERT_TRUE(shell.execute("add key=5Tuple attr=Frequency mem=4096 rows=2")
                  .find("error") == std::string::npos);
  EXPECT_EQ(shell.execute("trace"), "tracing off");
  EXPECT_NE(shell.execute("trace on 4").find("1 in 4"), std::string::npos);
  TraceConfig cfg;
  cfg.num_flows = 10;
  cfg.num_packets = 100;
  dp.process_batch(TraceGenerator::generate(cfg));
  const std::string status = shell.execute("trace status");
  EXPECT_NE(status.find("tracing on: 1-in-4"), std::string::npos);
  EXPECT_NE(status.find("100 packets seen"), std::string::npos);
  EXPECT_EQ(shell.execute("trace off"), "tracing off");
  const std::string dump = shell.execute("trace dump");
  EXPECT_NE(dump.find("\"steps\""), std::string::npos);
  EXPECT_EQ(shell.execute("trace bogus"),
            "error: usage: trace [on [1-in-N]|off|dump [path]|status|spans ...]");
}

}  // namespace
}  // namespace flymon
