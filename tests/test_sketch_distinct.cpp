// Tests for the distinct-count baselines: HyperLogLog, BeauCoup, UnivMon.
#include <gtest/gtest.h>

#include <cmath>
#include <unordered_set>

#include "common/rng.hpp"
#include "packet/flowkey.hpp"
#include "sketch/beaucoup.hpp"
#include "sketch/hyperloglog.hpp"
#include "sketch/univmon.hpp"

namespace flymon::sketch {
namespace {

std::vector<std::uint8_t> key(std::uint64_t id) {
  std::vector<std::uint8_t> k(8);
  for (int i = 0; i < 8; ++i) k[i] = static_cast<std::uint8_t>(id >> (8 * i));
  return k;
}

// -------- HyperLogLog --------

TEST(Hll, RejectsBadPrecision) {
  EXPECT_THROW(HyperLogLog(1), std::invalid_argument);
  EXPECT_THROW(HyperLogLog(21), std::invalid_argument);
}

TEST(Hll, SmallRangeCorrection) {
  HyperLogLog h(10);
  for (std::uint64_t i = 0; i < 100; ++i) h.insert(key(i));
  EXPECT_NEAR(h.estimate(), 100.0, 15.0);
}

TEST(Hll, DuplicatesDoNotInflate) {
  HyperLogLog h(12);
  for (int rep = 0; rep < 10; ++rep) {
    for (std::uint64_t i = 0; i < 1000; ++i) h.insert(key(i));
  }
  EXPECT_NEAR(h.estimate(), 1000.0, 100.0);
}

class HllPrecisionSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(HllPrecisionSweep, ErrorScalesWithPrecision) {
  const unsigned b = GetParam();
  HyperLogLog h(b);
  const std::uint64_t n = 200'000;
  for (std::uint64_t i = 0; i < n; ++i) h.insert(key(i));
  // Standard error ~ 1.04/sqrt(2^b); allow 5 sigma.
  const double sigma = 1.04 / std::sqrt(double(1u << b));
  EXPECT_NEAR(h.estimate(), double(n), 5 * sigma * double(n)) << "b=" << b;
}

INSTANTIATE_TEST_SUITE_P(Precisions, HllPrecisionSweep, ::testing::Values(6u, 8u, 10u, 12u, 14u));

// -------- BeauCoup --------

TEST(CouponConfig, ExpectedItemsMonotone) {
  const auto cfg = CouponConfig::for_threshold(500, 32, 24);
  double prev = 0;
  for (unsigned j = 1; j <= 32; ++j) {
    const double e = cfg.expected_items_to_collect(j);
    EXPECT_GT(e, prev);
    prev = e;
  }
}

TEST(CouponConfig, ThresholdCalibration) {
  const auto cfg = CouponConfig::for_threshold(512, 32, 24);
  EXPECT_NEAR(cfg.expected_items_to_collect(cfg.collect_threshold), 512.0, 1.0);
}

TEST(CouponConfig, RejectsBadArgs) {
  EXPECT_THROW(CouponConfig::for_threshold(0.5, 32, 24), std::invalid_argument);
  EXPECT_THROW(CouponConfig::for_threshold(100, 40, 24), std::invalid_argument);
  EXPECT_THROW(CouponConfig::for_threshold(100, 32, 40), std::invalid_argument);
}

TEST(BeauCoup, ReportsHeavySpreaderOnly) {
  const auto cfg = CouponConfig::for_threshold(256, 32, 24);
  BeauCoup bc(1, 4096, cfg);
  const auto heavy = key(1), light = key(2);
  for (std::uint64_t i = 0; i < 2000; ++i) bc.update(heavy, key(100000 + i));
  for (std::uint64_t i = 0; i < 20; ++i) bc.update(light, key(200000 + i));
  EXPECT_TRUE(bc.reported(heavy));
  EXPECT_FALSE(bc.reported(light));
}

TEST(BeauCoup, DuplicateAttributesDrawSameCoupon) {
  const auto cfg = CouponConfig::for_threshold(64, 32, 24);
  BeauCoupTable t(1024, cfg, 0);
  for (int rep = 0; rep < 1000; ++rep) t.update(key(1), key(42));
  EXPECT_LE(t.coupons(key(1)), 1u) << "one distinct value collects at most one coupon";
}

TEST(BeauCoup, EstimateTracksDistinctCount) {
  const auto cfg = CouponConfig::for_threshold(512, 32, 24);
  BeauCoup bc(3, 4096, cfg);
  for (std::uint64_t i = 0; i < 500; ++i) bc.update(key(9), key(7000 + i));
  EXPECT_NEAR(bc.estimate(key(9)), 500.0, 300.0);
}

TEST(BeauCoup, ChecksumDropsCollidingKeys) {
  const auto cfg = CouponConfig::for_threshold(64, 32, 24);
  BeauCoupTable t(1, cfg, 0);  // single slot: everything collides
  for (std::uint64_t i = 0; i < 200; ++i) t.update(key(1), key(5000 + i));
  for (std::uint64_t i = 0; i < 200; ++i) t.update(key(2), key(6000 + i));
  // key(2) lost the slot to key(1): its checksum mismatches -> 0 coupons.
  EXPECT_GT(t.coupons(key(1)), 0u);
  EXPECT_EQ(t.coupons(key(2)), 0u);
}

TEST(BeauCoup, MemoryAccounting) {
  const auto cfg = CouponConfig::for_threshold(64, 32, 24);
  BeauCoup bc(3, 1024, cfg, true);
  EXPECT_EQ(bc.memory_bytes(), 3u * 1024 * 8);
  BeauCoup nc(3, 1024, cfg, false);
  EXPECT_EQ(nc.memory_bytes(), 3u * 1024 * 4);
}

// -------- UnivMon --------

FlowKeyValue fkv(std::uint32_t id) {
  Packet p;
  p.ft.src_ip = id;
  return extract_flow_key(p, FlowKeySpec::src_ip());
}

TEST(UnivMon, CardinalityEstimate) {
  auto um = UnivMon::with_memory(256 * 1024);
  for (std::uint32_t i = 1; i <= 5000; ++i) um.update(fkv(i));
  EXPECT_NEAR(um.estimate_cardinality(), 5000.0, 1500.0);
}

TEST(UnivMon, EntropyOnSkewedStream) {
  auto um = UnivMon::with_memory(512 * 1024);
  Rng rng(21);
  std::unordered_map<std::uint32_t, std::uint64_t> truth;
  for (int i = 0; i < 100'000; ++i) {
    // Heavy-tailed: flow id ~ geometric-ish
    std::uint32_t id = 1;
    while (rng.next_bool(0.55) && id < 4096) id *= 2;
    id += static_cast<std::uint32_t>(rng.next_below(id));
    truth[id] += 1;
    um.update(fkv(id));
  }
  double n = 0, h = 0;
  for (const auto& [id, c] : truth) n += static_cast<double>(c);
  for (const auto& [id, c] : truth) {
    const double p = static_cast<double>(c) / n;
    h -= p * std::log(p);
  }
  EXPECT_NEAR(um.estimate_entropy(), h, 0.35 * h);
}

TEST(UnivMon, HeavyHittersFound) {
  auto um = UnivMon::with_memory(256 * 1024);
  for (int rep = 0; rep < 5000; ++rep) um.update(fkv(42));
  for (std::uint32_t i = 100; i < 2000; ++i) um.update(fkv(i));
  const auto hh = um.heavy_hitters(2500);
  ASSERT_FALSE(hh.empty());
  bool found = false;
  for (const auto& [k, est] : hh) found |= (k == fkv(42));
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace flymon::sketch
