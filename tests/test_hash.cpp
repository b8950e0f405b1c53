#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>

#include "common/crc_kernels.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/zipf.hpp"

namespace flymon {
namespace {

std::span<const std::uint8_t> bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// CRC-32 through the kernel registry the hash units use.
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t poly = 0xEDB88320u,
                    std::uint32_t init = 0xFFFFFFFFu) {
  return crc_kernel_for(poly).compute(data, init);
}

TEST(Crc32, KnownVector) {
  // The canonical CRC-32 (IEEE) check value.
  EXPECT_EQ(crc32(bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, Crc32cKnownVector) {
  // CRC-32C (Castagnoli) check value.
  EXPECT_EQ(crc32(bytes("123456789"), 0x82F63B78u), 0xE3069283u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32({}), 0u);  // init ^ final-xor with no data
}

TEST(Crc32, Deterministic) {
  const std::string s = "flymon";
  EXPECT_EQ(crc32(bytes(s)), crc32(bytes(s)));
}

TEST(Crc32, PolynomialsDiffer) {
  const std::string s = "same input";
  std::set<std::uint32_t> values;
  for (unsigned i = 0; i < 8; ++i) values.insert(crc32(bytes(s), crc_polynomial(i)));
  EXPECT_EQ(values.size(), 8u) << "polynomials must give distinct hashes";
}

TEST(Crc32, SensitiveToEveryByte) {
  std::array<std::uint8_t, 8> data{};
  const std::uint32_t base = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    auto mutated = data;
    mutated[i] ^= 1;
    EXPECT_NE(crc32(mutated), base) << "byte " << i;
  }
}

TEST(Hash64, SeedChangesOutput) {
  const std::string s = "abc";
  EXPECT_NE(hash64(bytes(s), 1), hash64(bytes(s), 2));
}

TEST(Hash64, ValueHelperMatchesBytes) {
  const std::uint32_t v = 0xDEADBEEF;
  EXPECT_EQ(hash64_value(v, 7),
            hash64({reinterpret_cast<const std::uint8_t*>(&v), sizeof v}, 7));
}

TEST(Hash64, RoughlyUniformLowBit) {
  unsigned ones = 0;
  for (std::uint32_t i = 0; i < 4096; ++i) ones += hash64_value(i, 3) & 1;
  EXPECT_NEAR(ones, 2048, 200);
}

TEST(Mix64, InjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(Rng, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BoolProbability) {
  Rng rng(11);
  unsigned trues = 0;
  for (int i = 0; i < 10000; ++i) trues += rng.next_bool(0.25);
  EXPECT_NEAR(trues, 2500, 250);
}

TEST(Zipf, RejectsBadArgs) {
  EXPECT_THROW(ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfSampler(10, -1.0), std::invalid_argument);
}

TEST(Zipf, ProbabilitiesSumToOne) {
  ZipfSampler z(100, 1.2);
  double sum = 0;
  for (std::size_t i = 0; i < z.size(); ++i) sum += z.probability(i);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, ProbabilitiesMonotone) {
  ZipfSampler z(50, 0.9);
  for (std::size_t i = 1; i < z.size(); ++i) {
    EXPECT_GE(z.probability(i - 1), z.probability(i));
  }
}

TEST(Zipf, AlphaZeroIsUniform) {
  ZipfSampler z(10, 0.0);
  for (std::size_t i = 0; i < z.size(); ++i) EXPECT_NEAR(z.probability(i), 0.1, 1e-9);
}

TEST(Zipf, SamplingMatchesProbabilities) {
  ZipfSampler z(20, 1.0);
  Rng rng(5);
  std::array<unsigned, 20> counts{};
  constexpr unsigned kDraws = 100'000;
  for (unsigned i = 0; i < kDraws; ++i) ++counts[z.sample(rng)];
  for (std::size_t r = 0; r < 5; ++r) {
    EXPECT_NEAR(counts[r] / static_cast<double>(kDraws), z.probability(r), 0.01);
  }
}

class ZipfAlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ZipfAlphaSweep, HeadMassGrowsWithAlpha) {
  ZipfSampler z(1000, GetParam());
  // The top rank's share must be at least the uniform share.
  EXPECT_GE(z.probability(0), 1.0 / 1000 - 1e-12);
  // And all ranks sampleable.
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_LT(z.sample(rng), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Alphas, ZipfAlphaSweep,
                         ::testing::Values(0.0, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0));

}  // namespace
}  // namespace flymon
