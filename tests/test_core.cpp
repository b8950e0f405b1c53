// Tests for core building blocks: compression stage, address translation,
// buddy memory allocator, task filters.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "core/address_translation.hpp"
#include "core/compression.hpp"
#include "core/memory_partition.hpp"
#include "core/task.hpp"

namespace flymon {
namespace {

Packet sample_packet() {
  Packet p;
  p.ft = FiveTuple{0x0A010203, 0xC0A80102, 443, 51000, 6};
  return p;
}

// -------- spec algebra --------

TEST(SpecAlgebra, Disjoint) {
  EXPECT_TRUE(specs_disjoint(FlowKeySpec::src_ip(), FlowKeySpec::dst_ip()));
  EXPECT_FALSE(specs_disjoint(FlowKeySpec::src_ip(), FlowKeySpec::src_ip(24)));
  EXPECT_TRUE(specs_disjoint(FlowKeySpec::src_port(), FlowKeySpec::dst_port()));
}

TEST(SpecAlgebra, Union) {
  EXPECT_EQ(specs_union(FlowKeySpec::src_ip(), FlowKeySpec::dst_ip()),
            FlowKeySpec::ip_pair());
}

// -------- compression stage --------

TEST(Compression, ConfigureAndCompute) {
  CompressionStage cs(3, 0);
  cs.configure(0, FlowKeySpec::src_ip());
  cs.configure(1, FlowKeySpec::dst_ip());
  const auto keys = cs.compute(serialize_candidate_key(sample_packet()));
  EXPECT_NE(keys[0], keys[1]);
  EXPECT_EQ(keys[2], 0u) << "unconfigured unit computes nothing";
  for (std::size_t i = 3; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], 0u) << "absent unit " << i << " computes nothing";
  }
}

TEST(Compression, FreeUnitTracking) {
  CompressionStage cs(2, 0);
  EXPECT_EQ(cs.free_unit(), 0u);
  cs.configure(0, FlowKeySpec::src_ip());
  EXPECT_EQ(cs.free_unit(), 1u);
  cs.configure(1, FlowKeySpec::dst_ip());
  EXPECT_FALSE(cs.free_unit().has_value());
  cs.clear_unit(0);
  EXPECT_EQ(cs.free_unit(), 0u);
}

TEST(Compression, FindSelectorDirect) {
  CompressionStage cs(3, 0);
  cs.configure(1, FlowKeySpec::src_ip());
  const auto sel = cs.find_selector(FlowKeySpec::src_ip());
  ASSERT_TRUE(sel.has_value());
  EXPECT_EQ(sel->unit_a, 1);
  EXPECT_EQ(sel->unit_b, -1);
}

TEST(Compression, FindSelectorViaXor) {
  CompressionStage cs(3, 0);
  cs.configure(0, FlowKeySpec::src_ip());
  cs.configure(1, FlowKeySpec::dst_ip());
  const auto sel = cs.find_selector(FlowKeySpec::ip_pair());
  ASSERT_TRUE(sel.has_value());
  EXPECT_GE(sel->unit_b, 0) << "IP-pair must come from an XOR of two units";
}

TEST(Compression, SelectorNotFound) {
  CompressionStage cs(3, 0);
  cs.configure(0, FlowKeySpec::src_ip());
  EXPECT_FALSE(cs.find_selector(FlowKeySpec::five_tuple()).has_value());
}

TEST(Compression, XorKeyDistinguishesPairs) {
  CompressionStage cs(2, 0);
  cs.configure(0, FlowKeySpec::src_ip());
  cs.configure(1, FlowKeySpec::dst_ip());
  const auto sel = *cs.find_selector(FlowKeySpec::ip_pair());

  Packet a = sample_packet();
  Packet b = sample_packet();
  b.ft.dst_ip ^= 0x1111;
  const auto ka = CompressionStage::select(cs.compute(serialize_candidate_key(a)), sel);
  const auto kb = CompressionStage::select(cs.compute(serialize_candidate_key(b)), sel);
  EXPECT_NE(ka, kb);
}

TEST(KeySlice, Apply) {
  const KeySlice s{8, 16};
  EXPECT_EQ(s.apply(0xAABB'CCDDu), 0xBBCCu);
  const KeySlice full{0, 32};
  EXPECT_EQ(full.apply(0xAABB'CCDDu), 0xAABB'CCDDu);
}

// -------- address translation --------

TEST(AddrTranslation, IdentityOnFullRange) {
  const MemoryPartition part{0, 65536};
  EXPECT_EQ(translate_address(1234, 16, part), 1234u);
}

TEST(AddrTranslation, ShiftsIntoSubRange) {
  const MemoryPartition part{32768, 16384};  // [m/2, 3m/4)
  for (std::uint32_t k : {0u, 999u, 65535u}) {
    const std::uint32_t a = translate_address(k, 16, part);
    EXPECT_GE(a, part.base);
    EXPECT_LT(a, part.end());
  }
}

TEST(AddrTranslation, CoversWholePartition) {
  const MemoryPartition part{16384, 16384};
  std::set<std::uint32_t> seen;
  for (std::uint32_t k = 0; k < 65536; ++k) seen.insert(translate_address(k, 16, part));
  EXPECT_EQ(seen.size(), 16384u);
  EXPECT_EQ(*seen.begin(), 16384u);
  EXPECT_EQ(*seen.rbegin(), 32767u);
}

TEST(AddrTranslation, NarrowSliceStaysInside) {
  const MemoryPartition part{1024, 4096};
  EXPECT_LT(translate_address(0xFF, 8, part), part.end());
  EXPECT_GE(translate_address(0, 8, part), part.base);
}

TEST(AddrTranslation, TcamCostMatchesPaperExample) {
  // Fig 9: mapping to a quarter-size partition needs 3 entries + default.
  const auto c = translation_cost(TranslationStrategy::kTcam, 65536,
                                  MemoryPartition{32768, 16384});
  EXPECT_EQ(c.tcam_entries, 4u);
}

TEST(AddrTranslation, CostsGrowWithPartitions) {
  unsigned prev_tcam = 0, prev_phv = 0;
  for (unsigned parts : {2u, 4u, 8u, 16u, 32u}) {
    const auto t = translation_cost_for_partitions(TranslationStrategy::kTcam, 65536, parts);
    const auto s = translation_cost_for_partitions(TranslationStrategy::kShift, 65536, parts);
    EXPECT_GT(t.tcam_entries, prev_tcam);
    EXPECT_GE(s.phv_bits, prev_phv);
    prev_tcam = t.tcam_entries;
    prev_phv = s.phv_bits;
  }
}

TEST(AddrTranslation, ShiftUsesNoTcam) {
  const auto c = translation_cost(TranslationStrategy::kShift, 65536,
                                  MemoryPartition{0, 2048});
  EXPECT_EQ(c.tcam_entries, 0u);
  EXPECT_GT(c.phv_bits, 0u);
}

// -------- memory partitions / buddy allocator --------

TEST(Quantize, AccurateRoundsUp) {
  EXPECT_EQ(quantize_buckets(1000, AllocMode::kAccurate), 1024u);
  EXPECT_EQ(quantize_buckets(1024, AllocMode::kAccurate), 1024u);
  EXPECT_EQ(quantize_buckets(1025, AllocMode::kAccurate), 2048u);
}

TEST(Quantize, EfficientRoundsToNearest) {
  EXPECT_EQ(quantize_buckets(1100, AllocMode::kEfficient), 1024u);
  EXPECT_EQ(quantize_buckets(1900, AllocMode::kEfficient), 2048u);
  EXPECT_EQ(quantize_buckets(1536, AllocMode::kEfficient), 1024u) << "tie goes down";
}

TEST(Buddy, RejectsNonPow2Total) {
  EXPECT_THROW(BuddyAllocator(1000), std::invalid_argument);
}

TEST(Buddy, AllocateAndExhaust) {
  BuddyAllocator b(1024);
  std::vector<MemoryPartition> parts;
  for (int i = 0; i < 4; ++i) {
    const auto p = b.allocate(256);
    ASSERT_TRUE(p.has_value());
    parts.push_back(*p);
  }
  EXPECT_EQ(b.free_buckets(), 0u);
  EXPECT_FALSE(b.allocate(256).has_value());
  EXPECT_FALSE(b.allocate(1).has_value());
  // All four partitions are disjoint and cover [0,1024).
  std::set<std::uint32_t> bases;
  for (const auto& p : parts) bases.insert(p.base);
  EXPECT_EQ(bases.size(), 4u);
}

TEST(Buddy, ReleaseMergesBuddies) {
  BuddyAllocator b(1024);
  const auto p1 = *b.allocate(512);
  const auto p2 = *b.allocate(512);
  b.release(p1);
  b.release(p2);
  EXPECT_TRUE(b.allocate(1024).has_value());
}

TEST(Buddy, MixedSizes) {
  BuddyAllocator b(1024);
  const auto a = b.allocate(256);
  const auto c = b.allocate(512);
  const auto d = b.allocate(256);
  EXPECT_TRUE(a && c && d);
  EXPECT_EQ(b.free_buckets(), 0u);
  b.release(*c);
  EXPECT_EQ(b.free_buckets(), 512u);
  EXPECT_TRUE(b.allocate(512).has_value());
}

TEST(Buddy, MinBlockEnforced) {
  BuddyAllocator b(1024, 64);
  const auto p = b.allocate(1);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->size, 64u) << "requests round up to min_block";
}

TEST(Buddy, NonPow2RequestRejected) {
  BuddyAllocator b(1024);
  EXPECT_FALSE(b.allocate(300).has_value());
  EXPECT_FALSE(b.allocate(0).has_value());
  EXPECT_FALSE(b.allocate(2048).has_value());
}

TEST(Buddy, DoubleReleaseDetected) {
  BuddyAllocator b(1024);
  const auto p = *b.allocate(256);
  b.release(p);
  EXPECT_THROW(b.release(p), std::logic_error);
  // Releasing a block inside an already-free larger block is also caught.
  const auto q = *b.allocate(256);
  const auto r = *b.allocate(256);
  b.release(q);
  b.release(r);  // buddies coalesce into 512
  EXPECT_THROW(b.release(q), std::logic_error);
}

TEST(Buddy, RandomChurnInvariant) {
  BuddyAllocator b(4096);
  Rng rng(77);
  std::vector<MemoryPartition> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.next_bool(0.55)) {
      const std::uint32_t size = 1u << rng.next_below(8);  // 1..128
      if (const auto p = b.allocate(size)) {
        // No overlap with any live partition.
        for (const auto& q : live) {
          EXPECT_TRUE(p->end() <= q.base || q.end() <= p->base)
              << "overlap: [" << p->base << "," << p->end() << ") vs [" << q.base
              << "," << q.end() << ")";
        }
        live.push_back(*p);
      }
    } else {
      const std::size_t i = rng.next_below(live.size());
      b.release(live[i]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (const auto& p : live) b.release(p);
  EXPECT_EQ(b.free_buckets(), 4096u);
  EXPECT_TRUE(b.live_partitions().empty());
  EXPECT_TRUE(b.allocate(4096).has_value()) << "full coalescing after all releases";
}

// -------- task filters --------

TEST(TaskFilter, WildcardMatchesEverything) {
  const TaskFilter f = TaskFilter::any();
  EXPECT_TRUE(f.matches(FiveTuple{1, 2, 3, 4, 5}));
  EXPECT_TRUE(f.is_wildcard());
}

TEST(TaskFilter, SrcPrefix) {
  const TaskFilter f = TaskFilter::src(0x0A000000, 8);
  EXPECT_TRUE(f.matches(FiveTuple{0x0A123456, 0, 0, 0, 0}));
  EXPECT_FALSE(f.matches(FiveTuple{0x0B123456, 0, 0, 0, 0}));
}

TEST(TaskFilter, CombinedSrcDst) {
  TaskFilter f;
  f.src_ip = 0x0A000000;
  f.src_len = 8;
  f.dst_ip = 0xC0A80000;
  f.dst_len = 16;
  EXPECT_TRUE(f.matches(FiveTuple{0x0A000001, 0xC0A80505, 0, 0, 0}));
  EXPECT_FALSE(f.matches(FiveTuple{0x0A000001, 0xC0A90505, 0, 0, 0}));
}

TEST(TaskFilter, IntersectionRules) {
  const auto a = TaskFilter::src(0x0A000000, 8);
  const auto b = TaskFilter::src(0x0B000000, 8);
  const auto sub = TaskFilter::src(0x0A400000, 10);
  EXPECT_FALSE(a.intersects(b));
  EXPECT_TRUE(a.intersects(sub)) << "containment intersects";
  EXPECT_TRUE(a.intersects(TaskFilter::any()));
  EXPECT_TRUE(TaskFilter::any().intersects(a));
  // Different dimensions always may intersect.
  EXPECT_TRUE(a.intersects(TaskFilter::dst(0xC0A80000, 16)));
}

TEST(TaskFilter, IntersectionIsSymmetric) {
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    TaskFilter a, b;
    a.src_ip = rng.next_u32();
    a.src_len = static_cast<std::uint8_t>(rng.next_below(33));
    b.src_ip = rng.next_u32();
    b.src_len = static_cast<std::uint8_t>(rng.next_below(33));
    EXPECT_EQ(a.intersects(b), b.intersects(a));
    EXPECT_TRUE(a.intersects(a));
  }
}

}  // namespace
}  // namespace flymon
