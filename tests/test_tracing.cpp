// Tests for the span-tracing + stage-profiler subsystem:
//   - ring semantics: record/collect round trip under an injected clock,
//     drop accounting past the ring capacity, zero effect while disabled;
//   - reconfiguration tagging: nested scopes share one monotonic tag;
//   - Chrome trace export: byte-stable golden output (pid 1 thread tracks,
//     pid 2 per-generation tracks);
//   - end-to-end decomposition: a traced add+resize explains most of the
//     deploy delay through its child spans (the flymon_trace contract);
//   - worker-pool attribution: chunk spans land on multiple thread tracks
//     and the fence/merge spans nest correctly (churn variant runs the
//     same assertions under TSan with a concurrent collector);
//   - stage profiler: the profiled instantiation leaves registers
//     byte-identical to the unprofiled one while attributing every
//     compiled stage;
//   - telemetry wiring: per-reason fallback counters, merge-blocker kinds
//     and the fence-wait/merge histograms reach a bound registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "exec/exec_plan.hpp"
#include "exec/worker_pool.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/chrome_export.hpp"
#include "trace/span.hpp"
#include "trace/stage_profiler.hpp"

namespace flymon {
namespace {

/// Enables tracing against a clean collector; restores everything on exit
/// so test order never matters.
struct TraceGuard {
  explicit TraceGuard(bool on = true) {
    trace::SpanCollector::global().clear();
    trace::set_enabled(on);
  }
  ~TraceGuard() {
    trace::set_enabled(false);
    trace::set_clock(nullptr);
    trace::SpanCollector::global().clear();
  }
};

/// Deterministic clock: advances 1us per call.
std::atomic<std::uint64_t> g_fake_ns{0};
std::uint64_t fake_clock() {
  return g_fake_ns.fetch_add(1000, std::memory_order_relaxed);
}

std::vector<Packet> make_trace(std::size_t flows, std::size_t pkts,
                               std::uint64_t seed = 7) {
  TraceConfig cfg;
  cfg.num_flows = flows;
  cfg.num_packets = pkts;
  cfg.zipf_alpha = 1.05;
  cfg.seed = seed;
  return TraceGenerator::generate(cfg);
}

TaskSpec cms_spec(std::uint32_t buckets = 8192) {
  TaskSpec s;
  s.name = "cms";
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = buckets;
  s.rows = 3;
  return s;
}

/// Chained (register-derived output) algorithm: compile-time unmergeable,
/// so the pool must fall back sequentially and say why.
TaskSpec chained_spec() {
  TaskSpec s;
  s.name = "maxgap";
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kMax;
  s.algorithm = Algorithm::kMaxInterarrival;
  s.memory_buckets = 16384;
  s.rows = 1;
  return s;
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

// ---------------------------------------------------------------------------
// Ring semantics.
// ---------------------------------------------------------------------------

TEST(SpanRing, RecordsNestedSpansWithInjectedClock) {
  TraceGuard on;
  g_fake_ns.store(10'000, std::memory_order_relaxed);
  trace::set_clock(&fake_clock);

  {
    trace::Span outer("test.outer", 42);   // open @10us
    {
      trace::Span inner("test.inner");     // open @11us
    }                                      // close @12us
    trace::instant("test.mark", 7);        // @13us
  }                                        // close @14us

  const auto events = trace::SpanCollector::global().collect();
  ASSERT_EQ(events.size(), 3u);
  // collect() sorts by start time: outer(10us), inner(11us), mark(13us).
  EXPECT_STREQ(events[0].name, "test.outer");
  EXPECT_EQ(events[0].start_ns, 10'000u);
  EXPECT_EQ(events[0].dur_ns, 4000u);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[0].arg, 42u);
  EXPECT_EQ(events[0].gen, 0u);  // no ReconfigScope active
  EXPECT_STREQ(events[1].name, "test.inner");
  EXPECT_EQ(events[1].start_ns, 11'000u);
  EXPECT_EQ(events[1].dur_ns, 1000u);
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_STREQ(events[2].name, "test.mark");
  EXPECT_EQ(events[2].kind, trace::EventKind::kInstant);
  EXPECT_EQ(events[2].dur_ns, 0u);
  EXPECT_EQ(events[2].arg, 7u);

  const auto stats = trace::SpanCollector::global().stats();
  EXPECT_EQ(stats.emitted, 3u);
  EXPECT_EQ(stats.dropped, 0u);
  // Rings stay registered across clear(), so earlier tests in the same
  // process may have registered more threads.
  EXPECT_GE(stats.threads, 1u);
}

TEST(SpanRing, OverflowIsDropAccounted) {
  TraceGuard on;
  const std::size_t total = trace::kRingCapacity + 900;
  for (std::size_t i = 0; i < total; ++i) trace::instant("test.flood", i);

  const auto stats = trace::SpanCollector::global().stats();
  EXPECT_EQ(stats.emitted, total);
  EXPECT_EQ(stats.dropped, total - trace::kRingCapacity);

  const auto events = trace::SpanCollector::global().collect();
  // The survivors are the newest kRingCapacity events; the reader's
  // conservative wrap check may additionally discard the oldest slot (it
  // is the next cell the writer would claim).
  ASSERT_GE(events.size(), trace::kRingCapacity - 1);
  ASSERT_LE(events.size(), trace::kRingCapacity);
  std::uint64_t min_arg = ~0ull;
  for (const auto& e : events) min_arg = std::min(min_arg, e.arg);
  EXPECT_GE(min_arg, total - trace::kRingCapacity);
  EXPECT_LE(min_arg, total - trace::kRingCapacity + 1);
}

TEST(SpanRing, DisabledTracingRecordsNothing) {
  TraceGuard off(false);
  {
    trace::Span span("test.should_not_appear", 1);
    trace::instant("test.nor_this");
  }
  const auto stats = trace::SpanCollector::global().stats();
  EXPECT_EQ(stats.emitted, 0u);
  EXPECT_EQ(trace::SpanCollector::global().collect().size(), 0u);
  // The stage profiler's sampling decision is also inert while disabled.
  auto& prof = trace::StageProfiler::global();
  prof.set_enabled(false);
  prof.reset();
  EXPECT_FALSE(prof.sample_batch());
  EXPECT_EQ(prof.batches_seen(), 0u);
}

TEST(ReconfigTags, NestedScopesShareOneMonotonicTag) {
  TraceGuard on;
  const std::uint64_t before = trace::latest_reconfig();
  EXPECT_EQ(trace::current_reconfig(), 0u);
  {
    trace::ReconfigScope outer;
    EXPECT_EQ(outer.tag(), before + 1);
    EXPECT_EQ(trace::current_reconfig(), before + 1);
    {
      trace::ReconfigScope inner;  // nested: reuses the outer tag
      EXPECT_EQ(inner.tag(), outer.tag());
    }
    trace::Span span("test.tagged");
  }
  EXPECT_EQ(trace::current_reconfig(), 0u);
  EXPECT_EQ(trace::latest_reconfig(), before + 1);

  const auto events = trace::SpanCollector::global().collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].gen, before + 1);
}

// ---------------------------------------------------------------------------
// Chrome trace export.
// ---------------------------------------------------------------------------

TEST(ChromeExport, GoldenBytes) {
  std::vector<trace::SpanEvent> ev;
  using trace::EventKind;
  ev.push_back({"ctl.add_task", 1000, 5000, 1, 7, 0, 0, EventKind::kSpan});
  ev.push_back({"exec.compile", 2000, 1500, 1, 3, 0, 1, EventKind::kSpan});
  ev.push_back(
      {"exec.plan_published", 3500, 0, 1, 3, 0, 1, EventKind::kInstant});
  ev.push_back({"exec.chunk", 4000, 800, 0, 3, 1, 0, EventKind::kSpan});

  const std::string expected = R"({
  "displayTimeUnit": "ns",
  "traceEvents": [
    {"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"flymon threads"}},
    {"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"thread 0"}},
    {"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"thread 1"}},
    {"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"flymon reconfigurations"}},
    {"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"reconfig #1"}},
    {"name":"ctl.add_task","cat":"flymon","ph":"X","ts":1.000,"dur":5.000,"pid":1,"tid":0,"args":{"gen":1,"arg":7,"depth":0}},
    {"name":"ctl.add_task","cat":"flymon","ph":"X","ts":1.000,"dur":5.000,"pid":2,"tid":1,"args":{"gen":1,"arg":7,"depth":0}},
    {"name":"exec.compile","cat":"flymon","ph":"X","ts":2.000,"dur":1.500,"pid":1,"tid":0,"args":{"gen":1,"arg":3,"depth":1}},
    {"name":"exec.compile","cat":"flymon","ph":"X","ts":2.000,"dur":1.500,"pid":2,"tid":1,"args":{"gen":1,"arg":3,"depth":1}},
    {"name":"exec.plan_published","cat":"flymon","ph":"i","ts":3.500,"s":"t","pid":1,"tid":0,"args":{"gen":1,"arg":3,"depth":1}},
    {"name":"exec.plan_published","cat":"flymon","ph":"i","ts":3.500,"s":"t","pid":2,"tid":1,"args":{"gen":1,"arg":3,"depth":1}},
    {"name":"exec.chunk","cat":"flymon","ph":"X","ts":4.000,"dur":0.800,"pid":1,"tid":1,"args":{"gen":0,"arg":3,"depth":0}}
  ]
}
)";
  EXPECT_EQ(trace::to_chrome_trace_json(ev), expected);
}

TEST(ChromeExport, EmptyTimelineIsStillValidJson) {
  const std::string out = trace::to_chrome_trace_json({});
  EXPECT_NE(out.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_EQ(out.find(",\n  ]"), std::string::npos) << "trailing comma:\n"
                                                   << out;
}

// ---------------------------------------------------------------------------
// End-to-end: reconfiguration decomposition (the flymon_trace contract).
// ---------------------------------------------------------------------------

TEST(Decomposition, ChildSpansExplainTheDeployDelay) {
  TraceGuard on;
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);

  const auto r = ctl.add_task(cms_spec(16384));
  ASSERT_TRUE(r.ok) << r.error;
  const auto resized = ctl.resize_task(r.task_id, 32768);
  ASSERT_TRUE(resized.ok) << resized.error;

  const auto events = trace::SpanCollector::global().collect();
  std::size_t top_level = 0;
  for (const auto& e : events) {
    if (e.kind != trace::EventKind::kSpan || e.depth != 0 || e.gen == 0) {
      continue;
    }
    ++top_level;
    // Loose in-test bound; the flymon_trace CLI enforces the 95% contract
    // on the full traffic-under-load scenario.
    EXPECT_GE(trace::child_coverage(events, e), 0.5)
        << e.name << " gen " << e.gen << " is not decomposed by its children";
  }
  EXPECT_EQ(top_level, 2u);  // ctl.add_task + ctl.resize_task

  // Each reconfiguration compiled, gated and published once under its
  // tag; no dry-run planner runs on the way.
  const auto tagged_count = [&](const char* child) {
    std::size_t tagged = 0;
    for (const auto& e : events) {
      if (std::string(e.name) == child && e.gen != 0) ++tagged;
    }
    return tagged;
  };
  EXPECT_EQ(tagged_count("exec.compile"), 2u);
  EXPECT_EQ(tagged_count("ctl.verify_gate"), 2u);
  EXPECT_EQ(tagged_count("exec.publish"), 2u);
  EXPECT_EQ(tagged_count("ctl.plan"), 0u);
}

// ---------------------------------------------------------------------------
// Worker-pool attribution.
// ---------------------------------------------------------------------------

TEST(PoolTracing, ChunkSpansLandOnWorkerThreadTracks) {
  TraceGuard on;
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(cms_spec()).ok);
  dp.enable_parallel(4);

  const std::vector<Packet> trace = make_trace(512, 20'000, 11);
  const std::uint64_t gen = dp.plan_generation();
  for (int i = 0; i < 4; ++i) dp.process_batch(trace);
  // A reconfiguration with the pool live: the new plan merges every other
  // region like the old one, so its publish fence keeps the dirty shards'
  // deltas and folds nothing.  Rebinding telemetry republishes under a
  // fence that folds them, so a fence + merge pair appears too.
  ASSERT_TRUE(ctl.add_task(cms_spec(4096)).ok);
  dp.bind_telemetry(telemetry::Registry::global());
  dp.merge_shards();

  const auto events = trace::SpanCollector::global().collect();
  std::set<std::uint32_t> chunk_tids;
  std::size_t chunks = 0, fences = 0, merges = 0;
  for (const auto& e : events) {
    const std::string name = e.name;
    if (name == "exec.chunk") {
      ++chunks;
      chunk_tids.insert(e.tid);
      EXPECT_EQ(e.arg, gen);
    } else if (name == "exec.fence") {
      ++fences;
    } else if (name == "exec.merge_shards") {
      ++merges;
    }
  }
  EXPECT_GT(chunks, 4u);
  EXPECT_GE(chunk_tids.size(), 2u)
      << "all chunk spans on one thread: the pool did not fan out";
  EXPECT_EQ(fences, 2u);
  EXPECT_GE(merges, 1u);

  // The folding fence's merge nests inside it: same thread, within its
  // interval, one level deeper.  The scoped publish fence nests none.
  std::size_t folding_fences = 0;
  for (const auto& f : events) {
    if (std::string(f.name) != "exec.fence") continue;
    bool nested = false;
    for (const auto& m : events) {
      if (std::string(m.name) != "exec.merge_shards" || m.tid != f.tid) {
        continue;
      }
      if (m.start_ns >= f.start_ns &&
          m.start_ns + m.dur_ns <= f.start_ns + f.dur_ns &&
          m.depth > f.depth) {
        nested = true;
      }
    }
    folding_fences += nested ? 1 : 0;
  }
  EXPECT_EQ(folding_fences, 1u);
}

// Every controller query merges on demand.  With a dirty shard the query
// folds it and answers like the sequential run; once the shards are clean
// the merge is one acquire load: no lock, no span, no merge counted.
TEST(PoolTracing, QueriesOnCleanShardsSkipTheMerge) {
  TraceGuard on;
  FlyMonDataPlane ds(9), dp(9);
  control::Controller seq(ds), ctl(dp);
  const auto rs = seq.add_task(cms_spec());
  const auto rp = ctl.add_task(cms_spec());
  ASSERT_TRUE(rs.ok && rp.ok);
  dp.enable_parallel(3);

  const std::vector<Packet> trace = make_trace(256, 8000, 23);
  ds.process_batch(trace);
  dp.process_batch(trace);
  const auto merge_spans = [] {
    const auto events = trace::SpanCollector::global().collect();
    return std::count_if(events.begin(), events.end(), [](const auto& e) {
      return std::string(e.name) == "exec.merge_shards";
    });
  };
  const auto spans_before = merge_spans();
  const std::uint64_t merges_before = dp.parallel_stats().merges;
  EXPECT_EQ(ctl.query_value(rp.task_id, trace[0]),
            seq.query_value(rs.task_id, trace[0]));
  EXPECT_EQ(merge_spans(), spans_before + 1) << "the dirty query did not merge";
  const std::uint64_t merges_after = dp.parallel_stats().merges;
  EXPECT_EQ(merges_after, merges_before + 1);

  for (std::size_t i = 1; i < trace.size(); i += 97) {
    EXPECT_EQ(ctl.query_value(rp.task_id, trace[i]),
              seq.query_value(rs.task_id, trace[i]));
  }
  EXPECT_EQ(merge_spans(), spans_before + 1)
      << "queries on clean shards recorded exec.merge_shards spans";
  EXPECT_EQ(dp.parallel_stats().merges, merges_after);
}

// The interesting assertions fire under TSan: reconfiguration churn with
// tracing enabled while a collector thread snapshots the rings and a
// processing thread pumps the pool.
TEST(TracingChurn, ReconfigureAndCollectWhileProcessingIsRaceFree) {
  TraceGuard on;
  const std::uint64_t tags_before = trace::latest_reconfig();
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(cms_spec()).ok);
  dp.enable_parallel(3);
  const std::vector<Packet> trace = make_trace(256, 2048, 9);

  std::atomic<bool> stop{false};
  std::uint64_t batches = 0;
  std::thread proc([&] {
    while (true) {
      dp.process_batch(trace);
      ++batches;
      if (stop.load(std::memory_order_acquire) && batches >= 8) break;
    }
  });
  std::atomic<std::uint64_t> collected{0};
  std::thread collector([&] {
    while (!stop.load(std::memory_order_acquire)) {
      collected += trace::SpanCollector::global().collect().size();
    }
    // Final drain after the churn finished: everything emitted before the
    // stop release-store is visible now.
    collected += trace::SpanCollector::global().collect().size();
  });

  for (int i = 0; i < 20; ++i) {
    TaskSpec s;
    s.name = "churn";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 2048;
    s.rows = 1;
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(ctl.remove_task(r.task_id));
  }
  stop.store(true, std::memory_order_release);
  proc.join();
  collector.join();
  dp.merge_shards();

  EXPECT_GE(batches, 8u);
  EXPECT_GT(collected.load(), 0u);
  // 1 cms + 20 * (add + remove) top-level reconfigurations.
  EXPECT_EQ(trace::latest_reconfig() - tags_before, 41u);
}

// ---------------------------------------------------------------------------
// Stage profiler.
// ---------------------------------------------------------------------------

TEST(StageProfiler, ProfiledPathMatchesUnprofiledRegisters) {
  auto& prof = trace::StageProfiler::global();
  FlyMonDataPlane plain_dp(9), prof_dp(9);
  control::Controller plain_ctl(plain_dp), prof_ctl(prof_dp);
  ASSERT_TRUE(plain_ctl.add_task(cms_spec()).ok);
  ASSERT_TRUE(prof_ctl.add_task(cms_spec()).ok);

  const std::vector<Packet> trace = make_trace(300, 6000, 5);
  prof.set_enabled(false);
  plain_dp.process_batch(trace);

  prof.set_enabled(true);
  prof.set_sample_every(1);
  prof.reset();
  prof_dp.process_batch(trace);
  prof.set_enabled(false);

  expect_identical_registers(plain_dp, prof_dp, "profiled vs unprofiled");

  const auto stats = prof.snapshot();
  using trace::Stage;
  for (const Stage s : {Stage::kCompression, Stage::kFilter, Stage::kAddress,
                        Stage::kSalu}) {
    const auto& st = stats[static_cast<std::size_t>(s)];
    EXPECT_GT(st.cycles, 0u) << trace::to_string(s);
    EXPECT_GT(st.items, 0u) << trace::to_string(s);
    EXPECT_GT(st.samples, 0u) << trace::to_string(s);
  }
  // One compression pass per packet; filter/address run once per CMU visit.
  EXPECT_EQ(stats[static_cast<std::size_t>(Stage::kCompression)].items,
            trace.size());
  EXPECT_GE(stats[static_cast<std::size_t>(Stage::kFilter)].items,
            trace.size());
}

TEST(StageProfiler, SamplingRateGatesAttribution) {
  auto& prof = trace::StageProfiler::global();
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(cms_spec()).ok);
  // Fits one batch chunk, so each process_batch is one sampling decision.
  const std::vector<Packet> trace = make_trace(100, 200, 3);
  ASSERT_LE(trace.size(), exec::kBatchChunk);

  prof.set_enabled(true);
  prof.set_sample_every(4);
  prof.reset();
  for (int i = 0; i < 8; ++i) dp.process_batch(trace);
  prof.set_enabled(false);

  EXPECT_EQ(prof.batches_seen(), 8u);
  const auto stats = prof.snapshot();
  // Batches 0 and 4 were sampled: 2 samples, 2 batches' worth of packets.
  const auto& comp =
      stats[static_cast<std::size_t>(trace::Stage::kCompression)];
  EXPECT_EQ(comp.samples, 2u);
  EXPECT_EQ(comp.items, 2 * trace.size());
}

TEST(StageProfiler, ShardedPhasesAreAttributed) {
  auto& prof = trace::StageProfiler::global();
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(cms_spec()).ok);
  dp.enable_parallel(2);

  prof.set_enabled(true);
  prof.set_sample_every(1);
  prof.reset();
  dp.process_batch(make_trace(256, 8000, 17));
  dp.merge_shards();
  prof.set_enabled(false);

  const auto stats = prof.snapshot();
  using trace::Stage;
  for (const Stage s : {Stage::kClaim, Stage::kExecute, Stage::kMerge}) {
    EXPECT_GT(stats[static_cast<std::size_t>(s)].samples, 0u)
        << trace::to_string(s);
  }
  EXPECT_GT(stats[static_cast<std::size_t>(Stage::kExecute)].items, 0u);
}

// ---------------------------------------------------------------------------
// Telemetry wiring: fallback reasons, merge blockers, fence/merge timing.
// ---------------------------------------------------------------------------

TEST(FallbackTelemetry, UnmergeablePlanCountsReasonAndBlockerKind) {
  telemetry::set_enabled(true);
  telemetry::Registry registry;
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  dp.bind_telemetry(registry);
  ctl.bind_telemetry(registry);
  ASSERT_TRUE(ctl.add_task(chained_spec()).ok);
  dp.enable_parallel(2);

  ASSERT_NE(dp.current_plan(), nullptr);
  ASSERT_FALSE(dp.current_plan()->shard_mergeable());
  ASSERT_FALSE(dp.current_plan()->merge_blocker_kinds().empty());
  EXPECT_EQ(dp.current_plan()->merge_blocker_kinds().front(),
            exec::MergeBlockerKind::kChainOutput);

  dp.process_batch(make_trace(100, 1000, 19));

  const auto stats = dp.parallel_stats();
  EXPECT_EQ(stats.fallback_batches, 1u);
  EXPECT_EQ(registry
                .counter("flymon_sharded_fallback_total",
                         {{"reason", "unmergeable"}})
                .value(),
            1u);
  EXPECT_GE(registry
                .counter("flymon_sharded_merge_blocker_total",
                         {{"kind", "chain_output"}})
                .value(),
            1u);
  telemetry::set_enabled(false);
}

TEST(FallbackTelemetry, FenceWaitAndMergeTimesReachHistograms) {
  telemetry::set_enabled(true);
  telemetry::Registry registry;
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  dp.bind_telemetry(registry);
  ctl.bind_telemetry(registry);
  ASSERT_TRUE(ctl.add_task(cms_spec()).ok);
  dp.enable_parallel(2);

  dp.process_batch(make_trace(200, 4000, 23));
  // Republish with dirty shards: the Fence times its submit-lock wait and
  // the merge observes the shard-fold duration.
  ASSERT_TRUE(ctl.add_task(cms_spec(4096)).ok);
  dp.merge_shards();

  EXPECT_EQ(dp.parallel_stats().fallback_batches, 0u);
  EXPECT_GE(registry.histogram("flymon_fence_wait_us").snapshot().count, 1u);
  EXPECT_GE(registry.histogram("flymon_shard_merge_us").snapshot().count, 1u);
  telemetry::set_enabled(false);
}

TEST(SpanTelemetry, FlushedDurationsReachHistograms) {
  TraceGuard on;
  g_fake_ns.store(0, std::memory_order_relaxed);
  trace::set_clock(&fake_clock);
  { trace::Span span("test.flushed"); }
  trace::instant("test.not_a_span");
  trace::set_clock(nullptr);

  telemetry::set_enabled(true);
  telemetry::Registry registry;
  trace::SpanCollector::global().flush_to_registry(registry);
  EXPECT_EQ(registry.counter("flymon_trace_spans_total").value(), 1u);
  const auto snap =
      registry.histogram("flymon_span_duration_us", {{"span", "test.flushed"}})
          .snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.sum, 1.0);  // fake clock: 1000ns span -> 1us

  // A second flush is incremental: nothing new to report.
  trace::SpanCollector::global().flush_to_registry(registry);
  EXPECT_EQ(registry.counter("flymon_trace_spans_total").value(), 1u);
  telemetry::set_enabled(false);
}

// ---------------------------------------------------------------------------
// Overhead guard: compiled-in-but-disabled tracing must be free enough that
// enabling the flag (with no control-path spans in the loop) is
// indistinguishable.  The <2% criterion proper is enforced on
// BM_FullPipelineBatched baselines; this is the in-tree smoke version with
// a deliberately slack bound so it never flakes.
// ---------------------------------------------------------------------------

TEST(Overhead, EnabledFlagAloneDoesNotSlowTheBatchedPath) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(cms_spec()).ok);
  const std::vector<Packet> trace = make_trace(500, 10'000, 29);

  const auto time_batches = [&](int reps) {
    std::uint64_t best = ~0ull;
    for (int r = 0; r < reps; ++r) {
      const std::uint64_t t0 = trace::monotonic_now_ns();
      dp.process_batch(trace);
      const std::uint64_t t1 = trace::monotonic_now_ns();
      best = std::min(best, t1 - t0);
    }
    return best;
  };

  time_batches(2);  // warm up
  trace::set_enabled(false);
  const std::uint64_t off_ns = time_batches(5);
  trace::set_enabled(true);
  const std::uint64_t on_ns = time_batches(5);
  trace::set_enabled(false);
  trace::SpanCollector::global().clear();

  EXPECT_LT(static_cast<double>(on_ns), 2.0 * static_cast<double>(off_ns))
      << "tracing flag alone doubled the batched path: off=" << off_ns
      << "ns on=" << on_ns << "ns";
}

}  // namespace
}  // namespace flymon
