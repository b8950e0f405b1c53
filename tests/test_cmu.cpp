// Tests for the CMU per-packet pipeline: task-entry matching, key
// selection, address translation, parameter preparation, stateful
// operations, chaining, probabilistic execution.
#include <gtest/gtest.h>

#include "core/cmu.hpp"
#include "core/cmu_group.hpp"

namespace flymon {
namespace {

using dataplane::StatefulOp;

Packet pkt(std::uint32_t src, std::uint32_t dst = 0xC0A80001, std::uint64_t ts = 0) {
  Packet p;
  p.ft.src_ip = src;
  p.ft.dst_ip = dst;
  p.ft.protocol = 6;
  p.ts_ns = ts;
  p.wire_bytes = 500;
  return p;
}

/// Small fixture: one compression stage configured for SrcIP + DstIP, and a
/// CMU with a 4096-bucket register.
struct CmuFixture {
  CompressionStage comp{3, 0};
  Cmu cmu{4096};

  CmuFixture() {
    comp.configure(0, FlowKeySpec::src_ip());
    comp.configure(1, FlowKeySpec::dst_ip());
  }

  CompressionStage::UnitKeys keys(const Packet& p) const {
    return comp.compute(serialize_candidate_key(p));
  }

  static CmuTaskEntry freq_entry(std::uint32_t id, MemoryPartition part) {
    CmuTaskEntry e;
    e.task_id = id;
    e.key_sel = {0, -1};
    e.key_slice = {0, 12};
    e.partition = part;
    e.p1 = ParamSelect::constant(1);
    e.p2 = ParamSelect::constant(0xFFFF'FFFFu);
    e.op = StatefulOp::kCondAdd;
    return e;
  }
};

TEST(Cmu, InstallValidation) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  f.cmu.install(e);
  EXPECT_THROW(f.cmu.install(e), std::invalid_argument) << "duplicate id";
  auto bad = CmuFixture::freq_entry(2, {4096, 4096});
  EXPECT_THROW(f.cmu.install(bad), std::invalid_argument) << "partition out of range";
  auto nokey = CmuFixture::freq_entry(3, {0, 1024});
  nokey.key_sel = {};
  EXPECT_THROW(f.cmu.install(nokey), std::invalid_argument) << "no key selected";
}

TEST(Cmu, IntersectingFiltersRejectedWithoutSampling) {
  CmuFixture f;
  auto a = CmuFixture::freq_entry(1, {0, 1024});
  a.filter = TaskFilter::src(0x0A000000, 8);
  f.cmu.install(a);
  auto b = CmuFixture::freq_entry(2, {1024, 1024});
  b.filter = TaskFilter::src(0x0A010000, 16);  // subset of a
  EXPECT_THROW(f.cmu.install(b), std::invalid_argument);
  b.sample_probability = 0.5;  // probabilistic execution makes it legal
  EXPECT_NO_THROW(f.cmu.install(b));
}

TEST(Cmu, RemoveTask) {
  CmuFixture f;
  f.cmu.install(CmuFixture::freq_entry(1, {0, 1024}));
  EXPECT_NE(f.cmu.find(1), nullptr);
  EXPECT_TRUE(f.cmu.remove(1));
  EXPECT_EQ(f.cmu.find(1), nullptr);
  EXPECT_FALSE(f.cmu.remove(1));
}

TEST(Cmu, CondAddCountsPerKey) {
  CmuFixture f;
  f.cmu.install(CmuFixture::freq_entry(1, {0, 4096}));
  PhvContext ctx;
  const Packet a = pkt(0x0A000001), b = pkt(0x0A000002);
  for (int i = 0; i < 5; ++i) f.cmu.process(a, f.keys(a), ctx);
  for (int i = 0; i < 3; ++i) f.cmu.process(b, f.keys(b), ctx);
  const auto* e = f.cmu.find(1);
  EXPECT_EQ(f.cmu.reg().read(f.cmu.probe_address(*e, f.keys(a))), 5u);
  EXPECT_EQ(f.cmu.reg().read(f.cmu.probe_address(*e, f.keys(b))), 3u);
}

TEST(Cmu, NonMatchingPacketIgnored) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.filter = TaskFilter::src(0x0A000000, 8);
  f.cmu.install(e);
  PhvContext ctx;
  const Packet other = pkt(0x0B000001);
  EXPECT_FALSE(f.cmu.process(other, f.keys(other), ctx).has_value());
}

TEST(Cmu, PriorityOrdersEntries) {
  CmuFixture f;
  auto low = CmuFixture::freq_entry(1, {0, 1024});
  low.filter = TaskFilter::src(0x0A000000, 8);
  low.priority = 10;
  auto high = CmuFixture::freq_entry(2, {1024, 1024});
  high.filter = TaskFilter::src(0x0A010000, 16);
  high.priority = 1;
  high.sample_probability = 0.999999;  // permit intersection
  f.cmu.install(low);
  f.cmu.install(high);
  PhvContext ctx;
  const Packet p = pkt(0x0A010001);
  f.cmu.process(p, f.keys(p), ctx);
  // The higher-priority (more specific) entry should have executed.
  const auto* he = f.cmu.find(2);
  EXPECT_GE(f.cmu.reg().read(f.cmu.probe_address(*he, f.keys(p))), 1u);
}

TEST(Cmu, AddressStaysInPartition) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {1024, 1024});
  f.cmu.install(e);
  for (std::uint32_t s = 0; s < 500; ++s) {
    const Packet p = pkt(0x0A000000 + s * 7919);
    const std::uint32_t addr = f.cmu.probe_address(*f.cmu.find(1), f.keys(p));
    EXPECT_GE(addr, 1024u);
    EXPECT_LT(addr, 2048u);
  }
}

TEST(Cmu, MaxOperation) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.op = StatefulOp::kMax;
  e.p1 = ParamSelect::metadata(MetaField::kQueueLen);
  f.cmu.install(e);
  PhvContext ctx;
  Packet p = pkt(0x0A000001);
  p.queue_len = 42;
  f.cmu.process(p, f.keys(p), ctx);
  p.queue_len = 17;
  f.cmu.process(p, f.keys(p), ctx);
  EXPECT_EQ(f.cmu.reg().read(f.cmu.probe_address(*f.cmu.find(1), f.keys(p))), 42u);
}

TEST(Cmu, BitSelectOneHotSetsSingleBit) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.op = StatefulOp::kAndOr;
  e.prep = PrepFn::kBitSelectOneHot;
  e.p1 = ParamSelect::compressed({0, -1}, KeySlice{16, 5});
  f.cmu.install(e);
  PhvContext ctx;
  const Packet p = pkt(0x0A000001);
  f.cmu.process(p, f.keys(p), ctx);
  const std::uint32_t v =
      f.cmu.reg().read(f.cmu.probe_address(*f.cmu.find(1), f.keys(p)));
  EXPECT_EQ(std::popcount(v), 1) << "exactly one bit set";
}

TEST(Cmu, CouponOneHotAbortsOrSetsBit) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.op = StatefulOp::kAndOr;
  e.prep = PrepFn::kCouponOneHot;
  e.coupon = CouponPrep{8, 1.0 / 64};
  e.p1 = ParamSelect::compressed({1, -1}, KeySlice{0, 32});
  f.cmu.install(e);
  PhvContext ctx;
  unsigned updates = 0;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const Packet p = pkt(0x0A000001, 0xC0A80000 + i);
    if (f.cmu.process(p, f.keys(p), ctx)) ++updates;
  }
  // Draw probability is 8/64 = 12.5%: expect ~250 of 2000 updates.
  EXPECT_NEAR(updates, 250, 100);
  const std::uint32_t bitmap =
      f.cmu.reg().read(f.cmu.probe_address(*f.cmu.find(1), f.keys(pkt(0x0A000001))));
  EXPECT_LE(std::popcount(bitmap), 8);
  EXPECT_GT(std::popcount(bitmap), 0);
}

TEST(Cmu, ChainPublishesResult) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.chain_out = 5;
  f.cmu.install(e);
  PhvContext ctx;
  const Packet p = pkt(0x0A000001);
  f.cmu.process(p, f.keys(p), ctx);
  EXPECT_EQ(ctx.get(5), 1u);
  f.cmu.process(p, f.keys(p), ctx);
  EXPECT_EQ(ctx.get(5), 2u);
}

TEST(Cmu, ChainFallbackPublishesP2OnZeroResult) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.p2 = ParamSelect::constant(3);  // counter saturates at 3
  e.chain_out = 9;
  e.chain_fallback = true;
  f.cmu.install(e);
  PhvContext ctx;
  const Packet p = pkt(0x0A000001);
  for (int i = 0; i < 3; ++i) f.cmu.process(p, f.keys(p), ctx);
  EXPECT_EQ(ctx.get(9), 3u);
  f.cmu.process(p, f.keys(p), ctx);  // Cond-ADD returns 0 now
  EXPECT_EQ(ctx.get(9), 3u) << "fallback must republish p2 (the old min)";
}

TEST(Cmu, OutputOldValue) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.op = StatefulOp::kMax;
  e.p1 = ParamSelect::metadata(MetaField::kTimestamp);
  e.output_old_value = true;
  e.chain_out = 2;
  f.cmu.install(e);
  PhvContext ctx;
  f.cmu.process(pkt(0x0A000001, 1, 5000 << kTsShift), f.keys(pkt(0x0A000001)), ctx);
  EXPECT_EQ(ctx.get(2), 0u) << "first packet sees old value 0";
  f.cmu.process(pkt(0x0A000001, 1, 9000ull << kTsShift), f.keys(pkt(0x0A000001)), ctx);
  EXPECT_EQ(ctx.get(2), 5000u) << "second packet sees the previous timestamp";
}

TEST(Cmu, KeepOnChainZeroGatesP1) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.prep = PrepFn::kKeepOnChainZero;
  e.chain_gate = 4;
  f.cmu.install(e);
  PhvContext ctx;
  ctx.chain[4] = 1;  // non-zero: p1 suppressed
  const Packet p = pkt(0x0A000001);
  f.cmu.process(p, f.keys(p), ctx);
  EXPECT_EQ(f.cmu.reg().read(f.cmu.probe_address(*f.cmu.find(1), f.keys(p))), 0u);
  ctx.chain[4] = 0;  // zero: p1 passes
  f.cmu.process(p, f.keys(p), ctx);
  EXPECT_EQ(f.cmu.reg().read(f.cmu.probe_address(*f.cmu.find(1), f.keys(p))), 1u);
}

TEST(Cmu, SubtractGated) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.op = StatefulOp::kMax;
  e.prep = PrepFn::kSubtractGated;
  e.chain_gate = 7;                       // gate: flow already seen?
  e.p1 = ParamSelect::metadata(MetaField::kTimestamp);
  e.p2 = ParamSelect::chain(8);           // previous timestamp
  f.cmu.install(e);
  PhvContext ctx;
  const Packet p = pkt(0x0A000001, 1, 9000ull << kTsShift);
  ctx.chain[7] = 0;  // new flow: interval forced to 0
  f.cmu.process(p, f.keys(p), ctx);
  EXPECT_EQ(f.cmu.reg().read(f.cmu.probe_address(*f.cmu.find(1), f.keys(p))), 0u);
  ctx.chain[7] = 1;
  ctx.chain[8] = 2000;
  f.cmu.process(p, f.keys(p), ctx);
  EXPECT_EQ(f.cmu.reg().read(f.cmu.probe_address(*f.cmu.find(1), f.keys(p))), 7000u);
}

TEST(Cmu, SamplingRoughlyHonorsProbability) {
  CmuFixture f;
  auto e = CmuFixture::freq_entry(1, {0, 4096});
  e.sample_probability = 0.25;
  f.cmu.install(e);
  PhvContext ctx;
  unsigned executed = 0;
  for (std::uint32_t i = 0; i < 4000; ++i) {
    const Packet p = pkt(0x0A000001, 2, i * 1'000'000);  // varying timestamps
    if (f.cmu.process(p, f.keys(p), ctx)) ++executed;
  }
  EXPECT_NEAR(executed, 1000, 150);
}

// -------- CMU Group --------

TEST(CmuGroup, StageDemandsMatchPaperFig8) {
  const auto d = CmuGroup::stage_demands();
  using dataplane::Resource;
  // Compression: 50% of 6 hash units.
  EXPECT_EQ(d[0][Resource::kHashUnit], 3u);
  // Initialization: 25% of 32 VLIW slots, 12.5% of 24 TCAM blocks.
  EXPECT_EQ(d[1][Resource::kVliwSlot], 8u);
  EXPECT_EQ(d[1][Resource::kTcamBlock], 3u);
  // Preparation: 50% of TCAM.
  EXPECT_EQ(d[2][Resource::kTcamBlock], 12u);
  // Operation: 75% of 4 SALUs, 50% of hash.
  EXPECT_EQ(d[3][Resource::kSalu], 3u);
  EXPECT_EQ(d[3][Resource::kHashUnit], 3u);
}

TEST(CmuGroup, ProcessRunsAllCmus) {
  CmuGroup g(0);
  g.compression().configure(0, FlowKeySpec::src_ip());
  for (unsigned c = 0; c < 3; ++c) {
    CmuTaskEntry e;
    e.task_id = 10 + c;
    e.key_sel = {0, -1};
    e.key_slice = {static_cast<std::uint8_t>(8 * c), 16};
    e.partition = {0, g.config().register_buckets};
    e.op = StatefulOp::kCondAdd;
    e.p1 = ParamSelect::constant(1);
    e.p2 = ParamSelect::constant(0xFFFF'FFFFu);
    g.cmu(c).install(e);
  }
  PhvContext ctx;
  const Packet p = pkt(0x0A000001);
  g.process(p, ctx);
  for (unsigned c = 0; c < 3; ++c) {
    const auto* e = g.cmu(c).find(10 + c);
    const auto keys = g.compute_keys(serialize_candidate_key(p));
    EXPECT_EQ(g.cmu(c).reg().read(g.cmu(c).probe_address(*e, keys)), 1u);
  }
}

TEST(CmuGroup, PhvBitsAccounting) {
  EXPECT_EQ(CmuGroup::phv_bits(), 3u * 32 + 3u * 32 + 16);
}

TEST(CmuGroup, GroupsUseDistinctHashFunctions) {
  CmuGroup g0(0), g1(1);
  g0.compression().configure(0, FlowKeySpec::src_ip());
  g1.compression().configure(0, FlowKeySpec::src_ip());
  const Packet p = pkt(0x0A000001);
  const auto k0 = g0.compute_keys(serialize_candidate_key(p));
  const auto k1 = g1.compute_keys(serialize_candidate_key(p));
  EXPECT_NE(k0[0], k1[0]);
}

}  // namespace
}  // namespace flymon
