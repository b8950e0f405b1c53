#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <unistd.h>
#include <unordered_set>

#include "ingest/file_source.hpp"
#include "packet/exact.hpp"
#include "packet/trace_gen.hpp"

namespace flymon {
namespace {

// -------- trace generation --------

TEST(TraceGen, ProducesRequestedCounts) {
  TraceConfig cfg;
  cfg.num_flows = 100;
  cfg.num_packets = 5000;
  const auto trace = TraceGenerator::generate(cfg);
  EXPECT_EQ(trace.size(), 5000u);
  EXPECT_LE(ExactStats::cardinality(trace, FlowKeySpec::five_tuple()), 100u);
}

TEST(TraceGen, DeterministicBySeed) {
  TraceConfig cfg;
  cfg.num_flows = 50;
  cfg.num_packets = 500;
  const auto a = TraceGenerator::generate(cfg);
  const auto b = TraceGenerator::generate(cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ft, b[i].ft);
    EXPECT_EQ(a[i].ts_ns, b[i].ts_ns);
  }
}

TEST(TraceGen, SeedsChangeTrace) {
  TraceConfig cfg;
  cfg.num_flows = 50;
  cfg.num_packets = 500;
  const auto a = TraceGenerator::generate(cfg);
  cfg.seed = 999;
  const auto b = TraceGenerator::generate(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) any_diff |= !(a[i].ft == b[i].ft);
  EXPECT_TRUE(any_diff);
}

TEST(TraceGen, TimestampsNonDecreasing) {
  TraceConfig cfg;
  cfg.num_packets = 2000;
  const auto trace = TraceGenerator::generate(cfg);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LE(trace[i - 1].ts_ns, trace[i].ts_ns + cfg.duration_ns / cfg.num_packets);
  }
}

TEST(TraceGen, ZipfSkewProducesElephants) {
  TraceConfig cfg;
  cfg.num_flows = 1000;
  cfg.num_packets = 100'000;
  cfg.zipf_alpha = 1.2;
  const auto trace = TraceGenerator::generate(cfg);
  const FreqMap freq = ExactStats::frequency(trace, FlowKeySpec::five_tuple());
  std::uint64_t biggest = 0;
  for (const auto& [k, f] : freq) biggest = std::max(biggest, f);
  EXPECT_GT(biggest, 100'000u / 100) << "top flow should dominate under Zipf";
}

TEST(TraceGen, DdosInjectionCreatesVictims) {
  TraceConfig cfg;
  cfg.num_flows = 100;
  cfg.num_packets = 1000;
  auto trace = TraceGenerator::generate(cfg);
  DdosConfig ddos;
  ddos.num_victims = 3;
  ddos.spreaders_per_victim = 700;
  TraceGenerator::inject_ddos(trace, ddos, cfg.duration_ns);
  const FreqMap spread =
      ExactStats::distinct(trace, FlowKeySpec::dst_ip(), FlowKeySpec::src_ip());
  EXPECT_EQ(ExactStats::over_threshold(spread, 512).size(), 3u);
}

TEST(TraceGen, SpikeAddsFlowsInWindow) {
  TraceConfig cfg;
  cfg.num_flows = 100;
  cfg.num_packets = 1000;
  auto trace = TraceGenerator::generate(cfg);
  const auto before = ExactStats::cardinality(trace, FlowKeySpec::five_tuple());
  TraceGenerator::inject_spike(trace, 500, 100'000'000, 200'000'000, 5);
  const auto after = ExactStats::cardinality(trace, FlowKeySpec::five_tuple());
  EXPECT_GE(after, before + 400);
  // Spike packets live inside the window.
  for (const Packet& p : TraceGenerator::slice(trace, 200'000'000, cfg.duration_ns)) {
    EXPECT_NE((p.ft.src_ip >> 24), 0x2Du) << "spike flow outside its window";
  }
}

TEST(TraceGen, SliceBoundaries) {
  TraceConfig cfg;
  cfg.num_packets = 1000;
  cfg.duration_ns = 1'000'000;
  const auto trace = TraceGenerator::generate(cfg);
  const auto sl = TraceGenerator::slice(trace, 200'000, 400'000);
  for (const Packet& p : sl) {
    EXPECT_GE(p.ts_ns, 200'000u);
    EXPECT_LT(p.ts_ns, 400'000u);
  }
  EXPECT_FALSE(sl.empty());
}

// -------- exact statistics --------

Packet mk(std::uint32_t src, std::uint32_t dst, std::uint64_t ts = 0,
          std::uint32_t bytes = 100, std::uint32_t qlen = 0) {
  Packet p;
  p.ft.src_ip = src;
  p.ft.dst_ip = dst;
  p.ft.protocol = 6;
  p.ts_ns = ts;
  p.wire_bytes = bytes;
  p.queue_len = qlen;
  return p;
}

TEST(ExactStats, FrequencyCountsPackets) {
  std::vector<Packet> t = {mk(1, 9), mk(1, 9), mk(2, 9)};
  const FreqMap f = ExactStats::frequency(t, FlowKeySpec::src_ip());
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.at(extract_flow_key(t[0], FlowKeySpec::src_ip())), 2u);
}

TEST(ExactStats, FrequencySumsBytes) {
  std::vector<Packet> t = {mk(1, 9, 0, 100), mk(1, 9, 0, 250)};
  const FreqMap f = ExactStats::frequency(t, FlowKeySpec::src_ip(), MetaField::kWireBytes);
  EXPECT_EQ(f.at(extract_flow_key(t[0], FlowKeySpec::src_ip())), 350u);
}

TEST(ExactStats, DistinctCountsUniqueParams) {
  std::vector<Packet> t = {mk(1, 9), mk(2, 9), mk(2, 9), mk(3, 9), mk(1, 8)};
  const FreqMap d = ExactStats::distinct(t, FlowKeySpec::dst_ip(), FlowKeySpec::src_ip());
  EXPECT_EQ(d.at(extract_flow_key(t[0], FlowKeySpec::dst_ip())), 3u);
  EXPECT_EQ(d.at(extract_flow_key(t[4], FlowKeySpec::dst_ip())), 1u);
}

TEST(ExactStats, MaxValue) {
  std::vector<Packet> t = {mk(1, 9, 0, 100, 5), mk(1, 9, 0, 100, 42), mk(1, 9, 0, 100, 7)};
  const FreqMap m = ExactStats::max_value(t, FlowKeySpec::src_ip(), MetaField::kQueueLen);
  EXPECT_EQ(m.at(extract_flow_key(t[0], FlowKeySpec::src_ip())), 42u);
}

TEST(ExactStats, MaxInterarrival) {
  std::vector<Packet> t = {mk(1, 9, 1000), mk(1, 9, 5000), mk(1, 9, 6000), mk(2, 9, 0)};
  const FreqMap g = ExactStats::max_interarrival(t, FlowKeySpec::src_ip());
  EXPECT_EQ(g.at(extract_flow_key(t[0], FlowKeySpec::src_ip())), 4000u);
  EXPECT_EQ(g.at(extract_flow_key(t[3], FlowKeySpec::src_ip())), 0u);
}

TEST(ExactStats, Cardinality) {
  std::vector<Packet> t = {mk(1, 9), mk(1, 9), mk(2, 9), mk(3, 7)};
  EXPECT_EQ(ExactStats::cardinality(t, FlowKeySpec::src_ip()), 3u);
  EXPECT_EQ(ExactStats::cardinality(t, FlowKeySpec::dst_ip()), 2u);
}

TEST(ExactStats, SizeDistribution) {
  std::vector<Packet> t = {mk(1, 9), mk(1, 9), mk(2, 9), mk(3, 9)};
  const auto dist =
      ExactStats::size_distribution(ExactStats::frequency(t, FlowKeySpec::src_ip()));
  EXPECT_EQ(dist.at(1), 2u);  // two flows of size 1
  EXPECT_EQ(dist.at(2), 1u);  // one flow of size 2
}

TEST(ExactStats, EntropyUniformFlows) {
  // Four flows of equal size: H = ln(4).
  std::vector<Packet> t = {mk(1, 9), mk(2, 9), mk(3, 9), mk(4, 9)};
  const double h = ExactStats::flow_entropy(ExactStats::frequency(t, FlowKeySpec::src_ip()));
  EXPECT_NEAR(h, std::log(4.0), 1e-9);
}

TEST(ExactStats, EntropySingleFlowIsZero) {
  std::vector<Packet> t = {mk(1, 9), mk(1, 9), mk(1, 9)};
  EXPECT_NEAR(ExactStats::flow_entropy(ExactStats::frequency(t, FlowKeySpec::src_ip())),
              0.0, 1e-12);
}

// -------- trace persistence --------

class TraceIoTest : public ::testing::Test {
 protected:
  // One file per test: ctest runs the cases of this fixture in parallel.
  std::string path_ =
      ::testing::TempDir() + "flymon_trace_io_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin";
  void TearDown() override { std::remove(path_.c_str()); }

  /// Every packet `source` yields.
  static std::vector<Packet> replay(ingest::FileReplaySource& source) {
    std::vector<Packet> out;
    std::vector<Packet> buf(64);
    while (const std::size_t n = source.pull(buf)) {
      out.insert(out.end(), buf.begin(), buf.begin() + n);
    }
    return out;
  }
};

TEST_F(TraceIoTest, RoundTrip) {
  TraceConfig cfg;
  cfg.num_flows = 50;
  cfg.num_packets = 500;
  const auto original = TraceGenerator::generate(cfg);
  ingest::FileReplaySource::write_fmtr(path_, original);
  ingest::FileReplaySource source(path_, ingest::FileReplaySource::Format::kFmtr);
  const auto loaded = replay(source);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded[i].ft, original[i].ft);
    EXPECT_EQ(loaded[i].ts_ns, original[i].ts_ns);
    EXPECT_EQ(loaded[i].wire_bytes, original[i].wire_bytes);
    EXPECT_EQ(loaded[i].queue_len, original[i].queue_len);
    EXPECT_EQ(loaded[i].queue_delay_ns, original[i].queue_delay_ns);
  }
  EXPECT_EQ(source.skipped(), 0u);
}

TEST_F(TraceIoTest, EmptyTrace) {
  ingest::FileReplaySource::write_fmtr(path_, {});
  ingest::FileReplaySource source(path_, ingest::FileReplaySource::Format::kFmtr);
  EXPECT_TRUE(source.done());
  EXPECT_TRUE(replay(source).empty());
}

TEST_F(TraceIoTest, MissingFileThrows) {
  EXPECT_THROW(ingest::FileReplaySource("/nonexistent/nope.bin",
                                        ingest::FileReplaySource::Format::kFmtr),
               std::runtime_error);
}

TEST_F(TraceIoTest, BadMagicRejected) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[32] = "definitely not a trace file....";
  std::fwrite(junk, 1, sizeof junk, f);
  std::fclose(f);
  EXPECT_THROW(ingest::FileReplaySource(path_, ingest::FileReplaySource::Format::kFmtr),
               std::runtime_error);
}

// A capture cut mid-record yields its whole records and counts the torn
// tail as one skipped record instead of failing.
TEST_F(TraceIoTest, TruncatedFileRejected) {
  TraceConfig cfg;
  cfg.num_flows = 10;
  cfg.num_packets = 100;
  const auto original = TraceGenerator::generate(cfg);
  ingest::FileReplaySource::write_fmtr(path_, original);
  // Truncate in the middle of the records: one whole 33-byte record and 17
  // bytes of the next.
  ASSERT_EQ(truncate(path_.c_str(), 16 + 50), 0);
  ingest::FileReplaySource source(path_, ingest::FileReplaySource::Format::kFmtr);
  const auto loaded = replay(source);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].ft, original[0].ft);
  EXPECT_EQ(loaded[0].ts_ns, original[0].ts_ns);
  EXPECT_EQ(source.skipped(), 1u);
  EXPECT_TRUE(source.done());
}

TEST(ExactStats, OverThreshold) {
  std::vector<Packet> t = {mk(1, 9), mk(1, 9), mk(1, 9), mk(2, 9)};
  const FreqMap f = ExactStats::frequency(t, FlowKeySpec::src_ip());
  EXPECT_EQ(ExactStats::over_threshold(f, 3).size(), 1u);
  EXPECT_EQ(ExactStats::over_threshold(f, 1).size(), 2u);
  EXPECT_EQ(ExactStats::over_threshold(f, 99).size(), 0u);
}

}  // namespace
}  // namespace flymon
