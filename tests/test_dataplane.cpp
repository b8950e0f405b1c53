#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <set>

#include "common/rng.hpp"
#include "dataplane/hash_unit.hpp"
#include "dataplane/mau_stage.hpp"
#include "dataplane/pipeline.hpp"
#include "dataplane/salu.hpp"
#include "dataplane/tcam.hpp"
#include "packet/flowkey.hpp"

namespace flymon::dataplane {
namespace {

Packet sample_packet() {
  Packet p;
  p.ft = FiveTuple{0x0A010203, 0xC0A80102, 443, 51000, 6};
  p.ts_ns = 5'000'000;
  return p;
}

// -------- hash units --------

TEST(HashUnit, UnconfiguredHashesNothing) {
  HashUnit u(0);
  const CandidateKey a = serialize_candidate_key(sample_packet());
  Packet other = sample_packet();
  other.ft.src_ip ^= 0xFFFF;
  const CandidateKey b = serialize_candidate_key(other);
  EXPECT_EQ(u.compute(a), u.compute(b)) << "all input masked off => constant";
}

TEST(HashUnit, MaskSelectsFields) {
  HashUnit u(0);
  u.set_mask(FlowKeySpec::src_ip().mask());
  Packet p1 = sample_packet();
  Packet p2 = sample_packet();
  p2.ft.dst_ip ^= 0xFF;  // not part of the key
  p2.ft.src_port ^= 1;
  EXPECT_EQ(u.compute(serialize_candidate_key(p1)), u.compute(serialize_candidate_key(p2)));
  p2.ft.src_ip ^= 1;  // part of the key
  EXPECT_NE(u.compute(serialize_candidate_key(p1)), u.compute(serialize_candidate_key(p2)));
}

TEST(HashUnit, ReconfigurableAtRuntime) {
  HashUnit u(0);
  u.set_mask(FlowKeySpec::src_ip().mask());
  const CandidateKey k = serialize_candidate_key(sample_packet());
  const std::uint32_t h1 = u.compute(k);
  u.set_mask(FlowKeySpec::dst_ip().mask());
  EXPECT_NE(u.compute(k), h1);
  u.clear_mask();
  EXPECT_FALSE(u.configured());
}

TEST(HashUnit, DistinctUnitsAreIndependent) {
  HashUnit a(0), b(1), c(2);
  for (auto* u : {&a, &b, &c}) u->set_mask(FlowKeySpec::five_tuple().mask());
  const CandidateKey k = serialize_candidate_key(sample_packet());
  std::set<std::uint32_t> vals = {a.compute(k), b.compute(k), c.compute(k)};
  EXPECT_EQ(vals.size(), 3u);
}

// -------- register / SALU --------

TEST(RegisterArray, RejectsBadGeometry) {
  EXPECT_THROW(RegisterArray(0), std::invalid_argument);
  EXPECT_THROW(RegisterArray(8, 0), std::invalid_argument);
  EXPECT_THROW(RegisterArray(8, 33), std::invalid_argument);
}

TEST(RegisterArray, WidthMasksWrites) {
  RegisterArray r(4, 8);
  r.write(0, 0x1FF);
  EXPECT_EQ(r.read(0), 0xFFu);
}

TEST(RegisterArray, RangeOps) {
  RegisterArray r(8);
  for (std::uint32_t i = 0; i < 8; ++i) r.write(i, i + 1);
  const auto mid = r.read_range(2, 5);
  EXPECT_EQ(mid, (std::vector<std::uint32_t>{3, 4, 5}));
  r.clear_range(2, 5);
  EXPECT_EQ(r.read(2), 0u);
  EXPECT_EQ(r.read(5), 6u);
  EXPECT_THROW(r.read_range(5, 2), std::out_of_range);
  EXPECT_THROW(r.read_range(0, 9), std::out_of_range);
}

TEST(RegisterArray, FreshBankReadsAllZeros) {
  for (const std::uint32_t n : {1u, 1000u, 65536u}) {
    const RegisterArray r(n);
    const std::vector<std::uint32_t> cells = r.read_range(0, n);
    EXPECT_EQ(std::count(cells.begin(), cells.end(), 0u),
              static_cast<std::ptrdiff_t>(n))
        << n << "-cell bank";
  }
}

// Each bank ends flush against an inaccessible guard page, so an overrun
// by one cell faults in every build, sanitizer or not.
TEST(RegisterArrayDeathTest, TouchingOnePastTheEndFaults) {
  for (const std::uint32_t n : {1u, 65536u}) {
    RegisterArray r(n);
    EXPECT_DEATH(
        static_cast<void>(r.data()[r.size()].load(std::memory_order_relaxed)),
        "")
        << "read past a " << n << "-cell bank";
    EXPECT_DEATH(r.store_relaxed(r.size(), 1), "")
        << "write past a " << n << "-cell bank";
  }
}

TEST(Salu, PreloadLimitIsFour) {
  RegisterArray r(4);
  Salu s(r);
  s.preload(StatefulOp::kCondAdd);
  s.preload(StatefulOp::kMax);
  s.preload(StatefulOp::kAndOr);
  s.preload(StatefulOp::kNop);
  EXPECT_EQ(s.loaded_ops(), 4u);
  s.preload(StatefulOp::kCondAdd);  // duplicate is a no-op
  EXPECT_EQ(s.loaded_ops(), 4u);
}

TEST(Salu, ExecuteRequiresPreload) {
  RegisterArray r(4);
  Salu s(r);
  EXPECT_THROW(s.execute(StatefulOp::kMax, 0, 1, 0), std::runtime_error);
}

// Appendix A semantics.
TEST(Salu, CondAddAddsBelowThreshold) {
  RegisterArray r(4);
  Salu s(r);
  s.preload(StatefulOp::kCondAdd);
  EXPECT_EQ(s.execute(StatefulOp::kCondAdd, 0, 5, 100), 5u);
  EXPECT_EQ(s.execute(StatefulOp::kCondAdd, 0, 5, 100), 10u);
  EXPECT_EQ(r.read(0), 10u);
}

TEST(Salu, CondAddReturnsZeroAtOrAboveThreshold) {
  RegisterArray r(4);
  Salu s(r);
  s.preload(StatefulOp::kCondAdd);
  r.write(0, 100);
  EXPECT_EQ(s.execute(StatefulOp::kCondAdd, 0, 5, 100), 0u);
  EXPECT_EQ(r.read(0), 100u) << "no update when register >= p2";
}

TEST(Salu, CondAddSaturatesAtWidth) {
  RegisterArray r(4, 16);
  Salu s(r);
  s.preload(StatefulOp::kCondAdd);
  r.write(0, 0xFFFE);
  s.execute(StatefulOp::kCondAdd, 0, 100, 0xFFFF'FFFF);
  EXPECT_EQ(r.read(0), 0xFFFFu);
}

TEST(Salu, MaxUpdatesAndReturns) {
  RegisterArray r(4);
  Salu s(r);
  s.preload(StatefulOp::kMax);
  EXPECT_EQ(s.execute(StatefulOp::kMax, 1, 42, 0), 42u);
  EXPECT_EQ(s.execute(StatefulOp::kMax, 1, 7, 0), 0u) << "no update => returns 0";
  EXPECT_EQ(r.read(1), 42u);
}

TEST(Salu, AndOrSelectsByP2) {
  RegisterArray r(4);
  Salu s(r);
  s.preload(StatefulOp::kAndOr);
  EXPECT_EQ(s.execute(StatefulOp::kAndOr, 2, 0b1010, 1), 0b1010u);  // OR
  EXPECT_EQ(s.execute(StatefulOp::kAndOr, 2, 0b0110, 1), 0b1110u);  // OR
  EXPECT_EQ(s.execute(StatefulOp::kAndOr, 2, 0b0110, 0), 0b0110u);  // AND
}

TEST(Salu, NopReadsWithoutWriting) {
  RegisterArray r(4);
  Salu s(r);
  s.preload(StatefulOp::kNop);
  r.write(3, 99);
  EXPECT_EQ(s.execute(StatefulOp::kNop, 3, 1, 1), 99u);
  EXPECT_EQ(r.read(3), 99u);
}

// -------- TCAM --------

TEST(Tcam, ExactAndWildcardMatch) {
  TcamTable<int> t;
  t.install({0x10, 0xFF}, 1, 100);
  t.install({0x00, 0x00}, 9, 200);  // match-anything, lower priority
  EXPECT_EQ(*t.lookup(0x10), 100);
  EXPECT_EQ(*t.lookup(0x55), 200);
}

TEST(Tcam, PriorityWins) {
  TcamTable<int> t;
  t.install({0x10, 0xF0}, 5, 1);
  t.install({0x12, 0xFF}, 2, 2);
  EXPECT_EQ(*t.lookup(0x12), 2) << "more specific entry has higher priority";
  EXPECT_EQ(*t.lookup(0x15), 1);
}

TEST(Tcam, NoMatchReturnsNull) {
  TcamTable<int> t;
  t.install({0x10, 0xFF}, 1, 1);
  EXPECT_EQ(t.lookup(0x11), nullptr);
}

TEST(Tcam, RemoveIf) {
  TcamTable<int> t;
  t.install({1, 0xFF}, 1, 10);
  t.install({2, 0xFF}, 1, 20);
  EXPECT_EQ(t.remove_if([](int a) { return a == 10; }), 1u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(1), nullptr);
}

TEST(Tcam, RangeExpansionAlignedBlockIsOneEntry) {
  EXPECT_EQ(range_to_ternary(0, 65535, 16).size(), 1u);
  EXPECT_EQ(range_to_ternary(16384, 32767, 16).size(), 1u);
  EXPECT_EQ(range_to_ternary(0, 32767, 16).size(), 1u);
}

TEST(Tcam, RangeExpansionWorstCase) {
  // [1, 2^16-2] is the classic worst case: 2*(w-1) entries.
  const auto v = range_to_ternary(1, 65534, 16);
  EXPECT_EQ(v.size(), 30u);
}

TEST(Tcam, RangeExpansionRejectsBadInput) {
  EXPECT_THROW(range_to_ternary(5, 4, 16), std::invalid_argument);
  EXPECT_THROW(range_to_ternary(0, 70000, 16), std::invalid_argument);
  EXPECT_THROW(range_to_ternary(0, 1, 0), std::invalid_argument);
}

TEST(Tcam, BlocksFor) {
  EXPECT_EQ(tcam_blocks_for(1, 16), 1u);
  EXPECT_EQ(tcam_blocks_for(512, 16), 1u);
  EXPECT_EQ(tcam_blocks_for(513, 16), 2u);
  EXPECT_EQ(tcam_blocks_for(1, 45), 2u) << "wide keys gang blocks";
}

struct RangeCase {
  std::uint64_t lo, hi;
  unsigned width;
};

class RangeExpansionProperty : public ::testing::TestWithParam<RangeCase> {};

TEST_P(RangeExpansionProperty, CoversExactlyTheRange) {
  const auto [lo, hi, width] = GetParam();
  const auto patterns = range_to_ternary(lo, hi, width);
  const std::uint64_t max_key = width == 64 ? ~0ull : (1ull << width) - 1;
  // Check membership densely for small widths, sampled for large ones.
  Rng rng(1234);
  auto matches_any = [&](std::uint64_t key) {
    for (const auto& p : patterns) {
      if (p.matches(key)) return true;
    }
    return false;
  };
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t key = width <= 12 ? static_cast<std::uint64_t>(i) % (max_key + 1)
                                          : rng.next() & max_key;
    EXPECT_EQ(matches_any(key), key >= lo && key <= hi) << "key=" << key;
  }
  // Boundary keys must behave exactly.
  EXPECT_TRUE(matches_any(lo));
  EXPECT_TRUE(matches_any(hi));
  if (lo > 0) {
    EXPECT_FALSE(matches_any(lo - 1));
  }
  if (hi < max_key) {
    EXPECT_FALSE(matches_any(hi + 1));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, RangeExpansionProperty,
    ::testing::Values(RangeCase{0, 0, 8}, RangeCase{255, 255, 8}, RangeCase{3, 200, 8},
                      RangeCase{1, 254, 8}, RangeCase{0, 4095, 12},
                      RangeCase{100, 3000, 12}, RangeCase{4000, 4095, 12},
                      RangeCase{12345, 54321, 16}, RangeCase{0, 0xFFFF'FFFF, 32},
                      RangeCase{1, 0xFFFF'FFFE, 32},
                      RangeCase{0x1234'5678, 0x9ABC'DEF0, 32}));

// -------- MAU stage / pipeline --------

TEST(MauStage, AllocateRespectsCapacity) {
  MauStage st;
  StageDemand d;
  d.add(Resource::kSalu, 3);
  EXPECT_TRUE(st.allocate(d));
  EXPECT_EQ(st.used(Resource::kSalu), 3u);
  StageDemand d2;
  d2.add(Resource::kSalu, 2);
  EXPECT_FALSE(st.allocate(d2)) << "4 SALUs per stage";
  EXPECT_EQ(st.used(Resource::kSalu), 3u) << "failed allocation must not leak";
}

TEST(MauStage, ReleaseClampsAtZero) {
  MauStage st;
  StageDemand d;
  d.add(Resource::kHashUnit, 2);
  st.allocate(d);
  st.release(d);
  st.release(d);
  EXPECT_EQ(st.used(Resource::kHashUnit), 0u);
}

TEST(MauStage, Utilization) {
  MauStage st;
  StageDemand d;
  d.add(Resource::kHashUnit, 3);
  st.allocate(d);
  EXPECT_DOUBLE_EQ(st.utilization(Resource::kHashUnit), 0.5);
}

TEST(Pipeline, PhvBudget) {
  Pipeline p(12, 100);
  EXPECT_TRUE(p.allocate_phv(60));
  EXPECT_FALSE(p.allocate_phv(50));
  EXPECT_TRUE(p.allocate_phv(40));
  EXPECT_DOUBLE_EQ(p.phv_utilization(), 1.0);
  p.release_phv(100);
  EXPECT_DOUBLE_EQ(p.phv_utilization(), 0.0);
}

TEST(Pipeline, AggregateUtilization) {
  Pipeline p(2);
  StageDemand d;
  d.add(Resource::kSalu, 4);
  p.stage(0).allocate(d);
  EXPECT_DOUBLE_EQ(p.utilization(Resource::kSalu), 0.5);
  EXPECT_EQ(p.total_used(Resource::kSalu), 4u);
  EXPECT_EQ(p.total_capacity(Resource::kSalu), 8u);
}

}  // namespace
}  // namespace flymon::dataplane
