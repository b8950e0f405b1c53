#include <gtest/gtest.h>

#include "common/bits.hpp"

namespace flymon {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
  EXPECT_TRUE(is_pow2(1ull << 63));
}

TEST(Bits, Log2Floor) {
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(2), 1u);
  EXPECT_EQ(log2_floor(3), 1u);
  EXPECT_EQ(log2_floor(4), 2u);
  EXPECT_EQ(log2_floor(65536), 16u);
  EXPECT_EQ(log2_floor(~0ull), 63u);
}

TEST(Bits, Log2Ceil) {
  EXPECT_EQ(log2_ceil(1), 0u);
  EXPECT_EQ(log2_ceil(2), 1u);
  EXPECT_EQ(log2_ceil(3), 2u);
  EXPECT_EQ(log2_ceil(4), 2u);
  EXPECT_EQ(log2_ceil(5), 3u);
  EXPECT_EQ(log2_ceil(65537), 17u);
}

TEST(Bits, Pow2Ceil) {
  EXPECT_EQ(pow2_ceil(1), 1ull);
  EXPECT_EQ(pow2_ceil(2), 2ull);
  EXPECT_EQ(pow2_ceil(3), 4ull);
  EXPECT_EQ(pow2_ceil(1000), 1024ull);
  EXPECT_EQ(pow2_ceil(1024), 1024ull);
}

TEST(Bits, Pow2Floor) {
  EXPECT_EQ(pow2_floor(1), 1ull);
  EXPECT_EQ(pow2_floor(3), 2ull);
  EXPECT_EQ(pow2_floor(1000), 512ull);
  EXPECT_EQ(pow2_floor(1024), 1024ull);
}

TEST(Bits, LowMask32) {
  EXPECT_EQ(low_mask32(0), 0u);
  EXPECT_EQ(low_mask32(1), 1u);
  EXPECT_EQ(low_mask32(8), 0xFFu);
  EXPECT_EQ(low_mask32(32), 0xFFFF'FFFFu);
  EXPECT_EQ(low_mask32(33), 0xFFFF'FFFFu);
}

class Pow2Property : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Pow2Property, CeilFloorBracketValue) {
  const std::uint64_t v = GetParam();
  EXPECT_LE(pow2_floor(v), v);
  EXPECT_GE(pow2_ceil(v), v);
  EXPECT_TRUE(is_pow2(pow2_floor(v)));
  EXPECT_TRUE(is_pow2(pow2_ceil(v)));
  EXPECT_LE(pow2_ceil(v), 2 * pow2_floor(v));
  EXPECT_EQ(log2_floor(pow2_floor(v)), log2_floor(v));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Pow2Property,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 17, 100, 255, 256, 257,
                                           1023, 1024, 1025, 65535, 65536, 1u << 30));

}  // namespace
}  // namespace flymon
