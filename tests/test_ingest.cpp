// Tests for the streaming ingest engine (src/ingest):
//   - source equivalence: TraceStream, GeneratorSource and materialize()
//     produce byte-identical packet sequences from one seeded definition;
//   - the shared pull loop: a live source that goes dry mid-stream loses
//     nothing, and a pump over a never-done dry source stops promptly;
//   - ring semantics: batch claim/commit, partial accept, wraparound and
//     occupancy on the shipped SPSC ring;
//   - golden streaming-vs-batch: drain(source) through the sharded hot
//     path leaves byte-identical registers and query answers vs
//     process_batch, including a mid-stream resize/deploy;
//   - epoch alignment: EpochRunner::run_stream produces identical epochs
//     for ANY chunking of the stream into pulls;
//   - drop accounting: a slow consumer yields exact, telemetry-visible
//     drop counts (produced == enqueued + dropped);
//   - churn: producer/consumer ring traffic while the controller
//     republishes plans and fences — TSan is the referee;
//   - file replay: pcap and FMTR round-trips through FileReplaySource, and
//     damaged captures (truncated records, an implausible length, a bad
//     magic) end the stream cleanly and count what they skip.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control/controller.hpp"
#include "control/epoch.hpp"
#include "control/shell.hpp"
#include "ingest/file_source.hpp"
#include "ingest/gen_source.hpp"
#include "ingest/packet_source.hpp"
#include "ingest/pump.hpp"
#include "ingest/ring.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/telemetry.hpp"

namespace flymon {
namespace {

struct EnabledGuard {
  explicit EnabledGuard(bool on) : prev_(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~EnabledGuard() { telemetry::set_enabled(prev_); }
  bool prev_;
};

/// A pipeline + controller bound to a private registry (same idiom as
/// test_sharded.cpp) so telemetry assertions are not polluted.
struct World {
  telemetry::Registry registry;
  FlyMonDataPlane dp{9};
  control::Controller ctl{dp};

  // noinline: keeps GCC 12 from issuing a spurious -Wdangling-pointer on
  // the label temporaries bind_telemetry hands to the registry once the
  // ctor is inlined into a test body that constructs two Worlds.
  [[gnu::noinline]] World() {
    dp.bind_telemetry(registry);
    ctl.bind_telemetry(registry);
  }
};

std::vector<Packet> make_trace(std::size_t flows, std::size_t pkts,
                               std::uint64_t seed = 7) {
  TraceConfig cfg;
  cfg.num_flows = flows;
  cfg.num_packets = pkts;
  cfg.zipf_alpha = 1.05;
  cfg.seed = seed;
  return TraceGenerator::generate(cfg);
}

void expect_same_packets(const std::vector<Packet>& a,
                         const std::vector<Packet>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].ft, b[i].ft) << what << ": ft differs at " << i;
    ASSERT_EQ(a[i].ts_ns, b[i].ts_ns) << what << ": ts differs at " << i;
    ASSERT_EQ(a[i].wire_bytes, b[i].wire_bytes) << what << " at " << i;
    ASSERT_EQ(a[i].queue_len, b[i].queue_len) << what << " at " << i;
    ASSERT_EQ(a[i].queue_delay_ns, b[i].queue_delay_ns) << what << " at " << i;
  }
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

/// Checksum of every register word — a compact register-state fingerprint
/// for the epoch-alignment test's readout records.
std::uint64_t register_checksum(const FlyMonDataPlane& dp) {
  std::uint64_t sum = 0;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      const auto& r = dp.group(g).cmu(c).reg();
      for (const std::uint32_t v : r.read_range(0, r.size())) {
        sum = sum * 1099511628211ull + v;
      }
    }
  }
  return sum;
}

/// Everything `source` yields, pulled through the shared loop `batch`
/// packets at a time.
std::vector<Packet> collect(ingest::PacketSource& source, std::size_t batch) {
  std::vector<Packet> got;
  std::vector<Packet> buf(batch);
  ingest::for_each_batch(source, buf, [&](std::span<const Packet> pkts) {
    got.insert(got.end(), pkts.begin(), pkts.end());
  }, {});
  return got;
}

/// A live test source over a materialised trace: each pull stops at the
/// next seam, and `dry_pulls` empty pulls (0 while !done()) precede every
/// non-empty one — a capture that keeps going dry mid-stream.
class SeamSource final : public ingest::PacketSource {
 public:
  SeamSource(std::span<const Packet> trace, std::vector<std::size_t> seams,
             unsigned dry_pulls)
      : trace_(trace),
        seams_(std::move(seams)),
        dry_pulls_(dry_pulls),
        dry_left_(dry_pulls) {}

  const char* name() const noexcept override { return "seams"; }

  std::size_t pull(std::span<Packet> out) override {
    if (done()) return 0;
    if (dry_left_ > 0) {
      --dry_left_;
      ++dry_served_;
      return 0;
    }
    dry_left_ = dry_pulls_;
    while (next_seam_ < seams_.size() && seams_[next_seam_] <= pos_) ++next_seam_;
    const std::size_t limit =
        next_seam_ < seams_.size() ? seams_[next_seam_] : trace_.size();
    const std::size_t n = std::min(out.size(), limit - pos_);
    std::copy_n(trace_.begin() + pos_, n, out.begin());
    pos_ += n;
    return n;
  }

  bool done() const override { return pos_ >= trace_.size(); }
  std::uint64_t produced() const override { return pos_; }
  unsigned dry_served() const { return dry_served_; }

 private:
  std::span<const Packet> trace_;
  std::vector<std::size_t> seams_;
  unsigned dry_pulls_;
  unsigned dry_left_;
  unsigned dry_served_ = 0;
  std::size_t next_seam_ = 0;
  std::size_t pos_ = 0;
};

/// A live source that never produces a packet and never finishes.
class NeverSource final : public ingest::PacketSource {
 public:
  const char* name() const noexcept override { return "never"; }
  std::size_t pull(std::span<Packet>) override { return 0; }
  bool done() const override { return false; }
  std::uint64_t produced() const override { return 0; }
};

// ---------------------------------------------------------------------------
// Source equivalence: one seeded workload definition, three consumers.
// ---------------------------------------------------------------------------

TEST(IngestSources, TraceStreamMatchesBatchGenerator) {
  TraceConfig cfg;
  cfg.num_flows = 500;
  cfg.num_packets = 20'000;
  cfg.seed = 42;
  const std::vector<Packet> batched = TraceGenerator::generate(cfg);

  TraceStream stream(cfg);
  std::vector<Packet> streamed;
  streamed.reserve(batched.size());
  while (!stream.done()) streamed.push_back(stream.next());

  expect_same_packets(batched, streamed, "TraceStream vs generate");
}

TEST(IngestSources, GeneratorSourceMatchesMaterialize) {
  // Two phases exercising every feature: multi-component timestamp merge,
  // a spike component, and a buffered DDoS injection.
  ingest::GeneratorConfig cfg;
  {
    ingest::GeneratorPhase p;
    p.t_begin_ns = 0;
    TraceConfig bg;
    bg.num_flows = 300;
    bg.num_packets = 5'000;
    bg.seed = 11;
    p.components.push_back(bg);
    cfg.phases.push_back(p);
  }
  {
    ingest::GeneratorPhase p;
    p.t_begin_ns = 1'000'000'000;
    TraceConfig bg;
    bg.num_flows = 300;
    bg.num_packets = 5'000;
    bg.seed = 12;
    TraceConfig spike;
    spike.num_flows = 900;
    spike.num_packets = 2'500;
    spike.seed = 13;
    spike.zipf_alpha = 0.2;
    p.components = {bg, spike};
    DdosConfig ddos;
    ddos.num_victims = 5;
    ddos.spreaders_per_victim = 200;
    p.ddos.push_back(ddos);
    p.ddos_duration_ns = 1'000'000'000;
    cfg.phases.push_back(p);
  }

  const std::vector<Packet> golden = ingest::materialize(cfg);
  ASSERT_FALSE(golden.empty());
  ASSERT_TRUE(std::is_sorted(
      golden.begin(), golden.end(),
      [](const Packet& a, const Packet& b) { return a.ts_ns < b.ts_ns; }));

  ingest::GeneratorSource source(cfg);
  EXPECT_EQ(source.total_packets(), golden.size());

  // Pull in a deliberately awkward batch size so batch seams never line up
  // with phase boundaries.
  std::vector<Packet> streamed;
  std::vector<Packet> buf(97);
  while (!source.done()) {
    const std::size_t n = source.pull(buf);
    ASSERT_GT(n, 0u) << "finite source went dry before done()";
    streamed.insert(streamed.end(), buf.begin(), buf.begin() + n);
  }
  EXPECT_EQ(source.produced(), golden.size());
  expect_same_packets(golden, streamed, "GeneratorSource vs materialize");

  // rewind() rebuilds the RNG state: the replay is byte-identical too.
  ASSERT_TRUE(source.rewind());
  expect_same_packets(golden, collect(source, 64), "GeneratorSource rewind");
}

TEST(IngestSources, Fig12bScenarioMatchesPerEpochMaterialize) {
  constexpr std::uint64_t kEpochNs = 1'000'000'000;
  constexpr unsigned kEpochs = 8;  // covers the epoch-6 spike onset

  std::vector<Packet> golden;
  for (unsigned e = 0; e < kEpochs; ++e) {
    ingest::GeneratorPhase phase = ingest::fig12b_epoch(e, kEpochNs);
    phase.t_begin_ns = static_cast<std::uint64_t>(e) * kEpochNs;
    const std::vector<Packet> epoch = ingest::materialize(phase);
    golden.insert(golden.end(), epoch.begin(), epoch.end());
  }

  ingest::GeneratorSource source(ingest::fig12b_scenario(kEpochs, kEpochNs));
  expect_same_packets(golden, collect(source, 256),
                      "fig12b scenario vs per-epoch");
}

TEST(IngestSources, MemorySourceRewindAndForEach) {
  const std::vector<Packet> trace = make_trace(100, 1'000);
  ingest::MemorySource source{trace};
  EXPECT_EQ(collect(source, 33).size(), trace.size());
  EXPECT_TRUE(source.done());
  EXPECT_TRUE(source.rewind());
  EXPECT_FALSE(source.done());
  EXPECT_EQ(source.produced(), 0u);
}

// The shared pull loop must treat a dry pull of a live source as "retry",
// never as "finished": every packet after each dry spell is delivered.
TEST(IngestSources, ForEachBatchRetriesDryLiveSource) {
  const std::vector<Packet> trace = make_trace(100, 1'000);
  SeamSource source(trace, {100, 250, 600}, 3);
  expect_same_packets(trace, collect(source, 64), "dry live source");
  EXPECT_GT(source.dry_served(), 3u) << "the source never went dry mid-stream";
}

// ---------------------------------------------------------------------------
// Ring semantics (single-threaded: the concurrent cases belong to the
// model checker, src/verify/concur/ring_model.cpp).
// ---------------------------------------------------------------------------

TEST(IngestRing, BatchPushPartialAcceptAndWraparound) {
  ingest::BasicSpscRing<common::StdSync, int> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_TRUE(ring.empty());

  std::vector<int> in(6);
  std::iota(in.begin(), in.end(), 0);
  EXPECT_EQ(ring.try_push(in), 6u);
  EXPECT_EQ(ring.occupancy(), 6u);

  // Only 2 slots free: the batch is partially accepted, tail dropped.
  EXPECT_EQ(ring.try_push(in), 2u);
  EXPECT_EQ(ring.occupancy(), 8u);
  EXPECT_EQ(ring.try_push(in), 0u);

  std::vector<int> out(5);
  EXPECT_EQ(ring.try_pop(out), 5u);
  EXPECT_EQ(out, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ring.occupancy(), 3u);

  // Drive the cursors around the buffer several times: FIFO order must
  // survive the index wrap (monotone u64 cursors, masked indexing).
  int next_push = 100;
  std::vector<int> got;
  const std::vector<int> expect_head{5, 0, 1};  // remaining from above
  for (int round = 0; round < 10; ++round) {
    std::vector<int> batch(3);
    std::iota(batch.begin(), batch.end(), next_push);
    next_push += 3;
    ASSERT_EQ(ring.try_push(batch), 3u);
    std::vector<int> popped(3);
    ASSERT_EQ(ring.try_pop(popped), 3u);
    got.insert(got.end(), popped.begin(), popped.end());
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(got[i], expect_head[i]);
  for (std::size_t i = 3; i < got.size(); ++i) {
    EXPECT_EQ(got[i], 100 + static_cast<int>(i) - 3);
  }
  std::vector<int> drain(8);
  EXPECT_EQ(ring.try_pop(drain), 3u);
  EXPECT_TRUE(ring.empty());
}

TEST(IngestPump, PaceDelayArithmetic) {
  using ingest::pace_delay_ns;
  EXPECT_EQ(pace_delay_ns(1000, 1000, 1.0), 0u);
  EXPECT_EQ(pace_delay_ns(1000, 500, 1.0), 0u);   // non-monotone input clamps
  EXPECT_EQ(pace_delay_ns(1000, 3000, 1.0), 2000u);
  EXPECT_EQ(pace_delay_ns(1000, 3000, 2.0), 1000u);  // 2x speed-up halves gaps
  EXPECT_EQ(pace_delay_ns(1000, 3000, 0.5), 4000u);  // slow-motion doubles
  EXPECT_EQ(pace_delay_ns(1000, 3000, 0.0), 0u);     // degenerate scale
}

TEST(IngestPump, StopIsPromptWhileSourceIsDry) {
  telemetry::Registry registry;
  NeverSource source;
  ingest::PumpConfig cfg;
  cfg.registry = &registry;
  ingest::IngestPump pump(source, cfg);
  pump.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pump.finished()) << "a dry source is not a finished one";

  const auto t0 = std::chrono::steady_clock::now();
  pump.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
  EXPECT_TRUE(pump.finished());
  EXPECT_EQ(pump.stats().produced, 0u);
}

// A capture whose timestamps jump forward must not hold stop() for the
// jump: the pacing wait ends when stop is requested.
TEST(IngestPump, StopIsPromptDuringAPacingSleep) {
  telemetry::Registry registry;
  std::vector<Packet> pkts(2);
  pkts[0].ts_ns = 0;
  pkts[1].ts_ns = 30'000'000'000;  // 30 s later
  ingest::MemorySource source{std::span<const Packet>(pkts)};
  ingest::PumpConfig cfg;
  cfg.registry = &registry;
  cfg.batch = 1;
  cfg.pace = ingest::PumpConfig::Pace::kReal;
  ingest::IngestPump pump(source, cfg);
  pump.start();
  // Wait until the first packet is through and the pump sleeps for the
  // second one.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pump.stats().produced < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(pump.stats().produced, 2u);

  const auto t0 = std::chrono::steady_clock::now();
  pump.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  EXPECT_TRUE(pump.finished());
  const ingest::PumpStats s = pump.stats();
  EXPECT_EQ(s.enqueued, 1u) << "the stopped pump never paced in the second "
                               "packet";
  EXPECT_EQ(s.dropped, 1u) << "the packet the stop cut off counts as dropped";
  EXPECT_EQ(s.produced, s.enqueued + s.dropped) << "conservation law";
}

// A stop while kBlock backpressure holds a batch: the pump returns at once,
// and the part of the batch the full ring never took counts as dropped.
TEST(IngestPump, StopDuringBackpressureCountsTheRestAsDropped) {
  EnabledGuard on(true);
  telemetry::Registry registry;
  const std::vector<Packet> trace = make_trace(64, 64, 2);
  ingest::MemorySource source{std::span<const Packet>(trace)};
  ingest::PumpConfig cfg;
  cfg.registry = &registry;
  cfg.ring_capacity = 8;
  cfg.batch = 12;  // the first batch overfills the ring by 4
  cfg.source_label = "blocked";
  ingest::IngestPump pump(source, cfg);
  pump.start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while ((pump.stats().produced < 12 || pump.stats().enqueued < 8) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(pump.stats().enqueued, 8u);

  const auto t0 = std::chrono::steady_clock::now();
  pump.stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  EXPECT_TRUE(pump.finished());
  const ingest::PumpStats s = pump.stats();
  EXPECT_EQ(s.produced, 12u);
  EXPECT_EQ(s.enqueued, 8u);
  EXPECT_EQ(s.dropped, 4u);
  EXPECT_EQ(s.produced, s.enqueued + s.dropped) << "conservation law";
  const telemetry::Labels labels{{"source", "blocked"}};
  EXPECT_EQ(registry.counter("flymon_ingest_drops", labels).value(), 4u);
}

// ---------------------------------------------------------------------------
// Golden equivalence: streaming drain vs batched process_batch.
// ---------------------------------------------------------------------------

struct MixIds {
  std::uint32_t cms = 0;
  std::uint32_t bloom = 0;
  std::uint32_t maxq = 0;
};

MixIds deploy_mix(control::Controller& ctl) {
  MixIds ids;
  {
    TaskSpec s;
    s.name = "cms";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 8192;
    s.rows = 3;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "cms: " << r.error;
    ids.cms = r.task_id;
  }
  {
    TaskSpec s;
    s.name = "bloom";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kExistence;
    s.memory_buckets = 8192;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "bloom: " << r.error;
    ids.bloom = r.task_id;
  }
  {
    TaskSpec s;
    s.name = "maxq";
    s.key = FlowKeySpec::ip_pair();
    s.attribute = AttributeKind::kMax;
    s.param = ParamSpec::metadata(MetaField::kQueueLen);
    s.memory_buckets = 4096;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    EXPECT_TRUE(r.ok) << "maxq: " << r.error;
    ids.maxq = r.task_id;
  }
  return ids;
}

void expect_identical_queries(World& a, World& b, const MixIds& aid,
                              const MixIds& bid,
                              const std::vector<Packet>& trace) {
  for (std::size_t i = 0; i < trace.size(); i += 997) {
    EXPECT_EQ(a.ctl.query_value(aid.cms, trace[i]),
              b.ctl.query_value(bid.cms, trace[i]))
        << "cms query differs at probe " << i;
    EXPECT_EQ(a.ctl.query_value(aid.maxq, trace[i]),
              b.ctl.query_value(bid.maxq, trace[i]))
        << "maxq query differs at probe " << i;
  }
}

TEST(IngestGolden, StreamedDrainMatchesBatchedSharded) {
  EnabledGuard on(true);
  const std::vector<Packet> trace = make_trace(2'000, 40'000);

  World batch, streamed;
  const MixIds bid = deploy_mix(batch.ctl);
  const MixIds sid = deploy_mix(streamed.ctl);

  // Batched reference: sequential chunks through the compiled path.
  for (std::size_t i = 0; i < trace.size(); i += 4096) {
    const std::size_t n = std::min<std::size_t>(4096, trace.size() - i);
    batch.dp.process_batch(std::span<const Packet>(trace.data() + i, n));
  }

  // Streamed: source -> pump thread -> ring -> sharded drain loop.
  streamed.dp.enable_parallel(4);
  ingest::MemorySource source{std::span<const Packet>(trace)};
  ingest::PumpConfig cfg;
  cfg.ring_capacity = 1 << 12;
  cfg.batch = 256;
  cfg.registry = &streamed.registry;
  ingest::IngestPump pump(source, cfg);
  pump.start();
  ingest::RingSource ring(pump);
  const auto stats = streamed.dp.drain(ring);
  pump.stop();
  streamed.dp.merge_shards();

  EXPECT_EQ(stats.packets, trace.size());
  const auto pstats = pump.stats();
  EXPECT_EQ(pstats.produced, trace.size());
  EXPECT_EQ(pstats.enqueued, trace.size());
  EXPECT_EQ(pstats.dropped, 0u) << "kBlock must never drop";

  expect_identical_registers(batch.dp, streamed.dp, "streamed vs batched");
  expect_identical_queries(batch, streamed, bid, sid, trace);
}

// Grow the CMS and deploy a brand-new task at the stream seam: the
// packets after the seam land in the new layout on both worlds.
void reconfigure_at_seam(control::Controller& ctl, MixIds& ids) {
  const auto r = ctl.resize_task(ids.cms, 16384);
  ASSERT_TRUE(r.ok) << r.error;
  ids.cms = r.task_id;
  TaskSpec s;
  s.name = "late";
  s.key = FlowKeySpec::dst_ip();
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  s.rows = 2;
  const auto d = ctl.add_task(s);
  ASSERT_TRUE(d.ok) << d.error;
}

void stream_segment(FlyMonDataPlane& dp, std::span<const Packet> seg) {
  ingest::MemorySource source{seg};
  ingest::PumpConfig cfg;
  cfg.ring_capacity = 1 << 10;
  cfg.batch = 128;
  ingest::IngestPump pump(source, cfg);
  pump.start();
  ingest::RingSource ring(pump);
  const auto stats = dp.drain(ring);
  pump.stop();
  EXPECT_EQ(stats.packets, seg.size());
}

TEST(IngestGolden, MidStreamResizeAndDeployStaysExact) {
  EnabledGuard on(false);
  const std::vector<Packet> trace = make_trace(2'000, 30'000, 21);
  const std::size_t split = trace.size() * 2 / 5;  // deterministic seam

  World batch, streamed;
  MixIds bid = deploy_mix(batch.ctl);
  MixIds sid = deploy_mix(streamed.ctl);
  streamed.dp.enable_parallel(4);

  const std::span<const Packet> head(trace.data(), split);
  const std::span<const Packet> tail(trace.data() + split,
                                     trace.size() - split);

  batch.dp.process_batch(head);
  stream_segment(streamed.dp, head);
  reconfigure_at_seam(batch.ctl, bid);
  reconfigure_at_seam(streamed.ctl, sid);
  batch.dp.process_batch(tail);
  stream_segment(streamed.dp, tail);
  streamed.dp.merge_shards();

  expect_identical_registers(batch.dp, streamed.dp, "mid-stream reconfig");
  expect_identical_queries(batch, streamed, bid, sid, trace);
}

// ---------------------------------------------------------------------------
// Epoch alignment: identical epochs for any split of the stream.
// ---------------------------------------------------------------------------

struct EpochRecord {
  unsigned epoch;
  std::size_t packets;
  std::uint64_t checksum;
  bool operator==(const EpochRecord&) const = default;
};

/// Run the trace through EpochRunner::run_stream, pulled `batch` packets
/// at a time and never across a seam.
std::vector<EpochRecord> epochs_for_splits(const std::vector<Packet>& trace,
                                           std::uint64_t epoch_ns,
                                           std::vector<std::size_t> seams,
                                           std::size_t batch) {
  World w;
  deploy_mix(w.ctl);
  control::EpochRunner runner(w.dp, epoch_ns);
  std::vector<EpochRecord> records;
  SeamSource source(trace, std::move(seams), 0);
  runner.run_stream(
      source,
      [&](unsigned e, std::span<const Packet> pkts) {
        records.push_back({e, pkts.size(), register_checksum(w.dp)});
      },
      batch);
  return records;
}

TEST(IngestEpochs, AlignmentIsSplitInvariant) {
  EnabledGuard on(false);
  TraceConfig cfg;
  cfg.num_flows = 500;
  cfg.num_packets = 20'000;
  cfg.seed = 5;
  cfg.duration_ns = 1'000'000'000;  // 10 epochs of 100 ms
  const std::vector<Packet> trace = TraceGenerator::generate(cfg);
  constexpr std::uint64_t kEpochNs = 100'000'000;

  const std::vector<EpochRecord> golden =  // one pull for everything
      epochs_for_splits(trace, kEpochNs, {}, trace.size());
  ASSERT_GE(golden.size(), 9u);

  const std::vector<std::vector<std::size_t>> split_sets = {
      {1},                                  // first packet alone
      {trace.size() - 1},                   // last packet alone
      {trace.size() / 2},                   // halves
      {7, 997, 5000, 5001, 19'000},         // many odd seams
  };
  for (const auto& seams : split_sets) {
    EXPECT_EQ(epochs_for_splits(trace, kEpochNs, seams, trace.size()), golden)
        << "epoch stream differs for a " << seams.size() << "-seam split";
  }

  // Packet-at-a-time: every possible seam at once.
  EXPECT_EQ(epochs_for_splits(trace, kEpochNs, {}, 1), golden)
      << "packet-at-a-time pulls diverged from a single pull";
}

TEST(IngestEpochs, GapsProduceEmptyEpochs) {
  EnabledGuard on(false);
  World w;
  deploy_mix(w.ctl);
  constexpr std::uint64_t kEpochNs = 100'000'000;

  // Two bursts 3 epochs apart: the silent windows must still be counted
  // (and read out as empty) so epoch indices stay wall-clock aligned.
  std::vector<Packet> trace = make_trace(100, 1'000, 3);
  const std::uint64_t span =
      trace.back().ts_ns - trace.front().ts_ns + 1;
  std::vector<Packet> burst2 = trace;
  for (Packet& p : burst2) p.ts_ns += ((span / kEpochNs) + 4) * kEpochNs;
  trace.insert(trace.end(), burst2.begin(), burst2.end());

  control::EpochRunner runner(w.dp, kEpochNs);
  ingest::MemorySource source{trace};
  std::vector<std::size_t> sizes;
  const unsigned epochs = runner.run_stream(
      source, [&](unsigned, std::span<const Packet> pkts) {
        sizes.push_back(pkts.size());
      });
  EXPECT_EQ(epochs, sizes.size());
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}),
            trace.size());
  EXPECT_GE(std::count(sizes.begin(), sizes.end(), std::size_t{0}), 2)
      << "the gap between bursts must surface as empty epochs";
}

// ---------------------------------------------------------------------------
// Drop accounting: exact counts, visible end to end in telemetry.
// ---------------------------------------------------------------------------

TEST(IngestDrops, SlowConsumerDropsAreExactAndObservable) {
  EnabledGuard on(true);
  telemetry::Registry registry;
  const std::vector<Packet> trace = make_trace(64, 64, 2);

  ingest::MemorySource source{std::span<const Packet>(trace)};
  ingest::PumpConfig cfg;
  cfg.ring_capacity = 8;
  cfg.batch = 8;
  cfg.on_full = ingest::PumpConfig::FullPolicy::kDrop;
  cfg.source_label = "slow";
  cfg.registry = &registry;
  ingest::IngestPump pump(source, cfg);

  // No consumer at all: the first batch fills the ring, every subsequent
  // batch is dropped whole.  64 produced = 8 enqueued + 56 dropped,
  // deterministically.
  pump.start();
  while (!pump.finished()) std::this_thread::yield();
  pump.stop();

  const auto s = pump.stats();
  EXPECT_EQ(s.produced, 64u);
  EXPECT_EQ(s.enqueued, 8u);
  EXPECT_EQ(s.dropped, 56u);
  EXPECT_EQ(s.produced, s.enqueued + s.dropped) << "conservation law";
  EXPECT_EQ(s.ring_occupancy, 8u);

  const telemetry::Labels labels{{"source", "slow"}};
  EXPECT_EQ(registry.counter("flymon_ingest_packets", labels).value(), 8u);
  EXPECT_EQ(registry.counter("flymon_ingest_drops", labels).value(), 56u);
  EXPECT_EQ(registry.gauge("flymon_ingest_ring_occupancy", labels).value(), 8.0);

  // The ring still holds the accepted prefix, in order.
  std::vector<Packet> out(8);
  ASSERT_EQ(pump.ring().try_pop(out), 8u);
  expect_same_packets(std::vector<Packet>(trace.begin(), trace.begin() + 8),
                      out, "accepted prefix");
}

TEST(IngestDrops, BlockingPumpNeverDropsUnderBackpressure) {
  EnabledGuard on(true);
  telemetry::Registry registry;
  const std::vector<Packet> trace = make_trace(500, 20'000, 4);

  ingest::MemorySource source{std::span<const Packet>(trace)};
  ingest::PumpConfig cfg;
  cfg.ring_capacity = 64;  // tiny: forces constant backpressure
  cfg.batch = 32;
  cfg.registry = &registry;
  ingest::IngestPump pump(source, cfg);
  pump.start();

  // A deliberately slow consumer: pop dribbles of 16.
  std::vector<Packet> got;
  std::vector<Packet> buf(16);
  ingest::RingSource ring(pump);
  while (!ring.done()) {
    const std::size_t n = ring.pull(buf);
    got.insert(got.end(), buf.begin(), buf.begin() + n);
    if (n == 0) std::this_thread::yield();
  }
  pump.stop();

  const auto s = pump.stats();
  EXPECT_EQ(s.produced, trace.size());
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.enqueued, trace.size());
  expect_same_packets(trace, got, "blocking pump FIFO");
  const telemetry::Labels labels{{"source", "memory"}};
  EXPECT_EQ(registry.counter("flymon_ingest_drops", labels).value(), 0u);
}

// ---------------------------------------------------------------------------
// A source that throws on the pump thread: the consumer processes every
// packet the source handed out, then raises the error where it would have
// seen the stream end.
// ---------------------------------------------------------------------------

class FailingSource final : public ingest::PacketSource {
 public:
  explicit FailingSource(std::span<const Packet> good) : good_(good) {}
  const char* name() const noexcept override { return "failing"; }
  std::size_t pull(std::span<Packet> out) override {
    if (good_.done()) throw std::runtime_error("capture device lost");
    return good_.pull(out);
  }
  bool done() const override { return false; }
  std::uint64_t produced() const override { return good_.produced(); }

 private:
  ingest::MemorySource good_;
};

TEST(IngestPump, SourceErrorReachesTheConsumerAfterItsPackets) {
  const std::vector<Packet> trace = make_trace(300, 3'000, 11);
  World streamed;
  const MixIds sid = deploy_mix(streamed.ctl);
  FailingSource source{std::span<const Packet>(trace)};
  ingest::PumpConfig cfg;
  cfg.ring_capacity = 256;  // the producer fails while the ring still holds packets
  cfg.batch = 64;
  cfg.registry = &streamed.registry;
  ingest::IngestPump pump(source, cfg);
  pump.start();
  ingest::RingSource ring(pump);
  try {
    streamed.dp.drain(ring);
    ADD_FAILURE() << "drain returned although the source threw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "capture device lost");
  }
  pump.stop();
  EXPECT_TRUE(ring.done());
  EXPECT_EQ(pump.stats().produced, trace.size());
  EXPECT_EQ(ring.produced(), trace.size());
  EXPECT_EQ(streamed.dp.packets_processed(), trace.size());

  World batched;
  const MixIds bid = deploy_mix(batched.ctl);
  batched.dp.process_batch(trace);
  expect_identical_queries(streamed, batched, sid, bid, trace);
}

// ---------------------------------------------------------------------------
// Churn: ring producer/consumer traffic during RCU republish + fence.
// TSan referees the interesting assertions (the CI tsan leg runs this).
// ---------------------------------------------------------------------------

TEST(IngestChurn, RingTrafficDuringRepublishAndFenceIsRaceFree) {
  EnabledGuard on(false);
  World w;
  deploy_mix(w.ctl);
  w.dp.enable_parallel(3);
  const std::vector<Packet> trace = make_trace(256, 30'000, 9);

  ingest::MemorySource source{std::span<const Packet>(trace)};
  ingest::PumpConfig cfg;
  cfg.ring_capacity = 1 << 9;  // small ring: drain overlaps the churn
  cfg.batch = 64;
  ingest::IngestPump pump(source, cfg);
  pump.start();

  // Controller thread: add/resize/remove loops, each an RCU republish
  // plus a fence, racing the drain loop below.
  std::thread churn([&] {
    for (int i = 0; i < 12; ++i) {
      TaskSpec s;
      s.name = "churn";
      s.key = FlowKeySpec::src_ip();
      s.attribute = AttributeKind::kFrequency;
      s.memory_buckets = 2048;
      s.rows = 1;
      const auto r = w.ctl.add_task(s);
      ASSERT_TRUE(r.ok) << r.error;
      const auto g = w.ctl.resize_task(r.task_id, 4096);
      ASSERT_TRUE(g.ok) << g.error;
      ASSERT_TRUE(w.ctl.remove_task(g.task_id));
    }
  });

  ingest::RingSource ring(pump);
  const auto stats = w.dp.drain(ring);
  churn.join();
  pump.stop();
  w.dp.merge_shards();

  EXPECT_EQ(stats.packets, trace.size());
  EXPECT_EQ(pump.stats().dropped, 0u);
  EXPECT_EQ(w.dp.packets_processed(), trace.size());
}

// ---------------------------------------------------------------------------
// File replay round-trips.
// ---------------------------------------------------------------------------

TEST(IngestFiles, FmtrRoundTrip) {
  const std::vector<Packet> trace = make_trace(200, 3'000, 6);
  const std::string path = testing::TempDir() + "ingest_roundtrip.fmtr";
  ingest::FileReplaySource::write_fmtr(path, trace);

  ingest::FileReplaySource source(path);
  EXPECT_EQ(source.format(), ingest::FileReplaySource::Format::kFmtr);
  expect_same_packets(trace, collect(source, 128), "FMTR round-trip");

  ASSERT_TRUE(source.rewind());
  expect_same_packets(trace, collect(source, 256), "FMTR rewind");
  std::remove(path.c_str());
}

TEST(IngestFiles, PcapRoundTrip) {
  const std::vector<Packet> trace = make_trace(200, 3'000, 8);
  const std::string path = testing::TempDir() + "ingest_roundtrip.pcap";
  ingest::FileReplaySource::write_pcap(path, trace, /*nanosecond=*/true);

  ingest::FileReplaySource source(path);
  EXPECT_EQ(source.format(), ingest::FileReplaySource::Format::kPcap);
  const std::vector<Packet> got = collect(source, 128);
  ASSERT_EQ(source.skipped(), 0u);

  // pcap carries the five-tuple, timestamp and wire length; the synthetic
  // queue metadata does not survive the wire format.
  ASSERT_EQ(got.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    ASSERT_EQ(got[i].ft, trace[i].ft) << "pcap ft differs at " << i;
    ASSERT_EQ(got[i].ts_ns, trace[i].ts_ns) << "pcap ts differs at " << i;
    ASSERT_EQ(got[i].wire_bytes, trace[i].wire_bytes) << "pcap len at " << i;
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Hostile captures: each damaged file yields its intact prefix, counts the
// damaged record in skipped() and ends the stream; only an unrecognised
// magic refuses the file.
// ---------------------------------------------------------------------------

/// Append `bytes` to the file at `path`.
void append_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Read `source` to the end: the packets, then one more pull that must
/// find it done and empty.
std::vector<Packet> drain_damaged(ingest::FileReplaySource& source) {
  std::vector<Packet> got = collect(source, 64);
  std::vector<Packet> more(8);
  EXPECT_TRUE(source.done());
  EXPECT_EQ(source.pull(more), 0u);
  return got;
}

TEST(IngestFiles, TruncatedFmtrTailStopsCleanly) {
  const std::vector<Packet> trace = make_trace(50, 5, 3);
  const std::string path = testing::TempDir() + "ingest_truncated.fmtr";
  ingest::FileReplaySource::write_fmtr(path, trace);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 10);

  ingest::FileReplaySource source(path);
  const std::vector<Packet> got = drain_damaged(source);
  EXPECT_EQ(got.size(), trace.size() - 1);
  EXPECT_EQ(source.skipped(), 1u);
  std::remove(path.c_str());
}

TEST(IngestFiles, TruncatedPcapRecordHeaderStopsCleanly) {
  const std::vector<Packet> trace = make_trace(50, 3, 4);
  const std::string path = testing::TempDir() + "ingest_short_header.pcap";
  ingest::FileReplaySource::write_pcap(path, trace);
  append_bytes(path, std::vector<std::uint8_t>(7, 0xAB));  // 7 of 16 bytes

  ingest::FileReplaySource source(path);
  EXPECT_EQ(drain_damaged(source).size(), trace.size());
  EXPECT_EQ(source.skipped(), 1u);
  std::remove(path.c_str());
}

TEST(IngestFiles, TruncatedPcapPayloadStopsCleanly) {
  const std::vector<Packet> trace = make_trace(50, 3, 5);
  const std::string path = testing::TempDir() + "ingest_short_payload.pcap";
  ingest::FileReplaySource::write_pcap(path, trace);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 5);

  ingest::FileReplaySource source(path);
  EXPECT_EQ(drain_damaged(source).size(), trace.size() - 1);
  EXPECT_EQ(source.skipped(), 1u);
  std::remove(path.c_str());
}

TEST(IngestFiles, ImplausiblePcapRecordLengthStopsCleanly) {
  const std::vector<Packet> trace = make_trace(50, 3, 6);
  const std::string path = testing::TempDir() + "ingest_huge_record.pcap";
  ingest::FileReplaySource::write_pcap(path, trace);
  // A record header claiming 64 MiB + 1 captured bytes (file byte order is
  // the writer's: little-endian), and no payload behind it.
  const std::uint32_t incl = (1u << 26) + 1;
  std::vector<std::uint8_t> hdr(16, 0);
  for (int i = 0; i < 4; ++i) {
    hdr[8 + i] = static_cast<std::uint8_t>(incl >> (8 * i));
    hdr[12 + i] = static_cast<std::uint8_t>(incl >> (8 * i));
  }
  append_bytes(path, hdr);

  ingest::FileReplaySource source(path);
  EXPECT_EQ(drain_damaged(source).size(), trace.size());
  EXPECT_EQ(source.skipped(), 1u);
  std::remove(path.c_str());
}

TEST(IngestFiles, BadMagicIsRefused) {
  const std::string path = testing::TempDir() + "ingest_bad_magic.bin";
  std::remove(path.c_str());
  append_bytes(path, std::vector<std::uint8_t>(64, 0x5A));
  EXPECT_THROW(ingest::FileReplaySource source(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Shell `ingest` command family smoke test.
// ---------------------------------------------------------------------------

TEST(IngestShell, AttachRunStats) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  control::Shell shell(ctl);

  EXPECT_NE(shell.execute("ingest").find("no source"), std::string::npos);
  EXPECT_NE(shell.execute("add key=SrcIP attr=Frequency mem=8192 rows=2")
                .find("deployed"),
            std::string::npos);
  const std::string attach =
      shell.execute("ingest attach gen flows=500 pkts=20000 seed=3");
  EXPECT_NE(attach.find("attached generator"), std::string::npos) << attach;

  const std::string start = shell.execute("ingest start ring=4096 batch=256");
  EXPECT_EQ(start.find("error"), std::string::npos) << start;
  // Let the session run to completion before stopping (stop mid-stream is
  // legal but leaves an unspecified tail unpulled).
  while (dp.packets_processed() < 20'000u) std::this_thread::yield();
  const std::string stop = shell.execute("ingest stop");
  EXPECT_NE(stop.find("drained 20000 packets"), std::string::npos) << stop;
  EXPECT_EQ(dp.packets_processed(), 20'000u)
      << "shell streaming session must process the whole source";

  const std::string stats = shell.execute("ingest stats");
  EXPECT_NE(stats.find("drained: 20000"), std::string::npos) << stats;
  EXPECT_NE(shell.execute("ingest detach").find("detached"), std::string::npos);
}

}  // namespace
}  // namespace flymon
