// Tests for the batch CRC kernel module (common/crc_kernels.hpp):
//   - exhaustive scalar-vs-vectorized equivalence over all 8 unit
//     polynomials x lengths 0..64 x random seeds, against an independent
//     bitwise CRC (no tables) as ground truth;
//   - fixed-length kernels (17-byte candidate key, fused masked-17) vs the
//     generic kernel at every dispatch level;
//   - the derived PCLMUL folding/Barrett constants against the published
//     Intel values for the IEEE polynomial;
//   - dispatch-level clamping and the registry's descriptor stability;
//   - golden register/counter equality of a forced-scalar batched run vs
//     the dispatched one, mirroring test_exec's 3-way equivalence.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/crc_kernels.hpp"
#include "common/hash.hpp"
#include "control/controller.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/telemetry.hpp"

namespace flymon {
namespace {

/// Independent ground truth: bit-at-a-time reflected CRC, no tables, no
/// shared code with the kernel module.
std::uint32_t naive_crc(std::span<const std::uint8_t> data, std::uint32_t poly,
                        std::uint32_t init) {
  std::uint32_t c = init;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? poly ^ (c >> 1) : (c >> 1);
  }
  return c ^ 0xFFFFFFFFu;
}

/// Force a dispatch level for one scope, restoring the CPU default on exit.
struct ImplGuard {
  explicit ImplGuard(CrcImpl impl) { crc_set_impl_override(impl); }
  ~ImplGuard() { crc_set_impl_override(crc_supported_impl()); }
};

const CrcImpl kLevels[] = {CrcImpl::kScalar, CrcImpl::kSlice8,
                           CrcImpl::kPclmul};

TEST(CrcKernelEquiv, AllPolynomialsAllLengthsMatchNaive) {
  std::mt19937_64 rng(0xC5C5ull);
  for (unsigned u = 0; u < 8; ++u) {
    const std::uint32_t poly = crc_polynomial(u);
    const CrcKernel& kernel = crc_kernel_for(poly);
    ASSERT_EQ(kernel.poly(), poly);
    for (std::size_t len = 0; len <= 64; ++len) {
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<std::uint8_t> buf(len);
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
        const auto init = static_cast<std::uint32_t>(rng());
        const std::span<const std::uint8_t> view(buf.data(), buf.size());
        const std::uint32_t want = naive_crc(view, poly, init);
        for (const CrcImpl level : kLevels) {
          ImplGuard guard(level);
          ASSERT_EQ(kernel.compute(view, init), want)
              << "poly=" << std::hex << poly << " len=" << std::dec << len
              << " level=" << to_string(crc_active_impl());
        }
      }
    }
  }
}

TEST(CrcKernelEquiv, FixedLengthKernelsMatchGeneric) {
  std::mt19937_64 rng(0xF1F1ull);
  for (unsigned u = 0; u < 8; ++u) {
    const std::uint32_t poly = crc_polynomial(u);
    const CrcKernel& kernel = crc_kernel_for(poly);
    for (int trial = 0; trial < 64; ++trial) {
      std::uint8_t buf[17], mask[17], masked[17];
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
      for (auto& m : mask) m = static_cast<std::uint8_t>(rng());
      for (int i = 0; i < 17; ++i) {
        masked[i] = static_cast<std::uint8_t>(buf[i] & mask[i]);
      }
      const auto init = static_cast<std::uint32_t>(rng());
      const std::uint32_t want17 = naive_crc({buf, 17}, poly, init);
      const std::uint32_t want_masked = naive_crc({masked, 17}, poly, init);
      for (const CrcImpl level : kLevels) {
        ImplGuard guard(level);
        EXPECT_EQ(kernel.update_fixed17(buf, init) ^ 0xFFFFFFFFu, want17)
            << "level=" << to_string(crc_active_impl());
        EXPECT_EQ(kernel.compute_masked17(buf, mask, init), want_masked)
            << "level=" << to_string(crc_active_impl());
      }
    }
  }
}

// The folding and Barrett constants for CRC-32 (IEEE) are published in
// Intel's "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ"
// (and hard-coded in zlib/Chromium's crc32_simd).  Our GF(2) derivation
// must land on exactly those values — this pins the arithmetic even on
// machines whose dispatch never runs the PCLMUL kernel.
TEST(CrcKernelConstants, MatchPublishedIeeeValues) {
  const CrcKernel& k = crc_kernel_for(0xEDB88320u);
  EXPECT_EQ(k.k_fold1_hi(), 0x1'7519'97d0ull);   // x^(128+32) mod P, reflected
  EXPECT_EQ(k.k_fold1_lo(), 0x0'ccaa'009eull);   // x^(128-32) mod P, reflected
  EXPECT_EQ(k.k_fold_width(), 0x1'63cd'6124ull); // x^64 mod P, reflected
  EXPECT_EQ(k.barrett_poly(), 0x1'DB71'0641ull); // (P' << 1) | 1
  EXPECT_EQ(k.barrett_mu(), 0x1'F701'1641ull);   // (x^64 / P, reflected) << 1 | 1
}

TEST(CrcKernelDispatch, OverrideClampsToSupportedTier) {
  const CrcImpl supported = crc_supported_impl();
  EXPECT_GE(supported, CrcImpl::kScalar);
  {
    ImplGuard guard(CrcImpl::kScalar);
    EXPECT_EQ(crc_active_impl(), CrcImpl::kScalar);
  }
  {
    // Requesting more than the CPU (or a FLYMON_DISABLE_SIMD build) allows
    // must clamp, never dispatch into an unsupported kernel.
    ImplGuard guard(CrcImpl::kPclmul);
    EXPECT_LE(crc_active_impl(), supported);
  }
  EXPECT_EQ(crc_active_impl(), supported);
  EXPECT_STRNE(to_string(supported), "?");
#if defined(FLYMON_DISABLE_SIMD)
  EXPECT_LE(supported, CrcImpl::kSlice8);
#endif
}

TEST(CrcKernelRegistry, DescriptorsAreStableAndDeduplicated) {
  // Same polynomial resolves to the same descriptor (HashUnits hold raw
  // pointers across plan snapshots), distinct polynomials to distinct ones.
  const CrcKernel& a = crc_kernel_for(0xEDB88320u);
  const CrcKernel& b = crc_kernel_for(0xEDB88320u);
  const CrcKernel& c = crc_kernel_for(0x82F63B78u);
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  // Check-value sanity against the classic "123456789" vectors.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(a.compute({digits, 9}, 0xFFFFFFFFu), 0xCBF43926u);
  EXPECT_EQ(c.compute({digits, 9}, 0xFFFFFFFFu), 0xE3069283u);
}

// ---------------------------------------------------------------------------
// Golden equivalence across dispatch levels, mirroring test_exec.cpp: the
// forced-scalar batched run must leave registers byte-identical to the
// dispatched batched run and the interpreted run — so any machine proves
// both arms of the CRC dispatch with one binary.
// ---------------------------------------------------------------------------

struct World {
  telemetry::Registry registry;
  FlyMonDataPlane dp{9};
  control::Controller ctl{dp};

  World() {
    dp.bind_telemetry(registry);
    ctl.bind_telemetry(registry);
  }
};

void deploy_mix(control::Controller& ctl) {
  const auto add = [&](TaskSpec s) {
    const auto r = ctl.add_task(s);
    ASSERT_TRUE(r.ok) << s.name << ": " << r.error;
  };
  {
    TaskSpec s;
    s.name = "cms";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 8192;
    s.rows = 3;
    add(s);
  }
  {
    TaskSpec s;
    s.name = "bloom";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kExistence;
    s.memory_buckets = 8192;
    s.rows = 2;
    add(s);
  }
  {
    TaskSpec s;
    s.name = "beaucoup";
    s.key = FlowKeySpec::dst_ip();
    s.attribute = AttributeKind::kDistinct;
    s.param = ParamSpec::compressed(FlowKeySpec::src_ip());
    s.algorithm = Algorithm::kBeauCoup;
    s.report_threshold = 100;
    s.memory_buckets = 8192;
    s.rows = 2;
    add(s);
  }
  {
    TaskSpec s;
    s.name = "sampled";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 4096;
    s.rows = 1;
    s.sample_probability = 0.5;
    add(s);
  }
  {
    TaskSpec s;
    s.name = "filtered";
    s.filter = TaskFilter::src(0x0A000000, 8);
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 4096;
    s.rows = 1;
    add(s);
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

TEST(CrcKernelGolden, ForcedScalarBatchMatchesDispatchedByteForByte) {
  TraceConfig cfg;
  cfg.num_flows = 1500;
  cfg.num_packets = 30'000;
  cfg.zipf_alpha = 1.05;
  cfg.seed = 7;
  const std::vector<Packet> trace = TraceGenerator::generate(cfg);

  World wi, wd, ws;
  ASSERT_NO_FATAL_FAILURE(deploy_mix(wi.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_mix(wd.ctl));
  ASSERT_NO_FATAL_FAILURE(deploy_mix(ws.ctl));

  // The interpreted referee, CPU-default dispatch.
  wi.dp.interpret_batch(trace);

  // Compiled + batched, CPU-default dispatch.
  ASSERT_GT(wd.dp.process_batch(trace), 0u);

  // Compiled + batched, every CRC forced through the scalar byte loop.
  {
    ImplGuard guard(CrcImpl::kScalar);
    ASSERT_GT(ws.dp.process_batch(trace), 0u);
  }

  expect_identical_registers(wi.dp, wd.dp, "interpreted vs dispatched");
  expect_identical_registers(wd.dp, ws.dp, "dispatched vs forced-scalar");
}

}  // namespace
}  // namespace flymon
