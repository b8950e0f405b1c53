// Property-based suites: cross-module invariants checked over parameter
// sweeps and randomized operation sequences.
#include <gtest/gtest.h>

#include <set>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "control/controller.hpp"
#include "dataplane/tcam.hpp"
#include "packet/trace_gen.hpp"
#include "sketch/count_min.hpp"

namespace flymon {
namespace {

// -------- SALU operation algebra --------

TEST(SaluProperty, CondAddRegisterIsMonotone) {
  dataplane::RegisterArray reg(8);
  dataplane::Salu salu(reg);
  salu.preload(dataplane::StatefulOp::kCondAdd);
  Rng rng(1);
  std::uint32_t prev = 0;
  for (int i = 0; i < 2000; ++i) {
    salu.execute(dataplane::StatefulOp::kCondAdd, 3,
                 static_cast<std::uint32_t>(rng.next_below(100)),
                 static_cast<std::uint32_t>(rng.next_below(100000)));
    const std::uint32_t cur = reg.read(3);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

TEST(SaluProperty, MaxIsIdempotentAndMonotone) {
  dataplane::RegisterArray reg(8);
  dataplane::Salu salu(reg);
  salu.preload(dataplane::StatefulOp::kMax);
  Rng rng(2);
  std::uint32_t prev = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.next_below(1 << 20));
    salu.execute(dataplane::StatefulOp::kMax, 0, v, 0);
    const std::uint32_t once = reg.read(0);
    salu.execute(dataplane::StatefulOp::kMax, 0, v, 0);
    EXPECT_EQ(reg.read(0), once) << "re-applying the same value is a no-op";
    EXPECT_GE(once, prev);
    prev = once;
  }
}

TEST(SaluProperty, OrOnlyAddsBitsAndOnlyRemoves) {
  dataplane::RegisterArray reg(8);
  dataplane::Salu salu(reg);
  salu.preload(dataplane::StatefulOp::kAndOr);
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t before = reg.read(1);
    const auto v = rng.next_u32();
    salu.execute(dataplane::StatefulOp::kAndOr, 1, v, 1);  // OR
    EXPECT_EQ(reg.read(1) & before, before) << "OR never clears bits";
  }
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t before = reg.read(1);
    const auto v = rng.next_u32();
    salu.execute(dataplane::StatefulOp::kAndOr, 1, v, 0);  // AND
    EXPECT_EQ(reg.read(1) | before, before) << "AND never sets bits";
  }
}

TEST(SaluProperty, XorIsInvolutive) {
  dataplane::RegisterArray reg(8);
  dataplane::Salu salu(reg);
  salu.preload(dataplane::StatefulOp::kXor);
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t before = reg.read(2);
    const auto v = rng.next_u32();
    salu.execute(dataplane::StatefulOp::kXor, 2, v, 0);
    salu.execute(dataplane::StatefulOp::kXor, 2, v, 0);
    EXPECT_EQ(reg.read(2), before);
  }
}

// -------- address translation --------

class TranslationProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(TranslationProperty, BijectiveOntoPartition) {
  const std::uint32_t size = GetParam();
  const unsigned slice_width = log2_floor(size);
  for (std::uint32_t base : {0u, size, 4 * size}) {
    const MemoryPartition part{base, size};
    std::set<std::uint32_t> seen;
    for (std::uint32_t key = 0; key < size; ++key) {
      const std::uint32_t addr = translate_address(key, slice_width, part);
      EXPECT_GE(addr, base);
      EXPECT_LT(addr, base + size);
      seen.insert(addr);
    }
    EXPECT_EQ(seen.size(), size) << "width-matched slices map 1:1";
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TranslationProperty,
                         ::testing::Values(2u, 8u, 64u, 256u, 2048u));

// -------- TCAM range expansion bounds --------

TEST(TcamProperty, ExpansionNeverExceedsTwoW) {
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const unsigned width = 4 + static_cast<unsigned>(rng.next_below(28));
    const std::uint64_t max_key = (1ull << width) - 1;
    std::uint64_t lo = rng.next() & max_key;
    std::uint64_t hi = rng.next() & max_key;
    if (lo > hi) std::swap(lo, hi);
    const auto patterns = dataplane::range_to_ternary(lo, hi, width);
    EXPECT_LE(patterns.size(), 2 * width) << "classic prefix-expansion bound";
    EXPECT_GE(patterns.size(), 1u);
  }
}

// -------- buddy allocator alignment --------

TEST(BuddyProperty, BlocksAreSizeAligned) {
  BuddyAllocator b(1 << 16);
  Rng rng(6);
  std::vector<MemoryPartition> live;
  for (int i = 0; i < 500; ++i) {
    const std::uint32_t size = 1u << rng.next_below(12);
    if (const auto p = b.allocate(size)) {
      EXPECT_EQ(p->base % p->size, 0u) << "buddy blocks are naturally aligned";
      live.push_back(*p);
    } else if (!live.empty()) {
      b.release(live.back());
      live.pop_back();
    }
  }
}

// -------- flow-key masking --------

TEST(FlowKeyProperty, MaskingIsIdempotent) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    Packet p;
    p.ft.src_ip = rng.next_u32();
    p.ft.dst_ip = rng.next_u32();
    p.ft.src_port = static_cast<std::uint16_t>(rng.next());
    p.ft.dst_port = static_cast<std::uint16_t>(rng.next());
    p.ft.protocol = static_cast<std::uint8_t>(rng.next());
    const FlowKeySpec spec{static_cast<std::uint8_t>(rng.next_below(33)),
                           static_cast<std::uint8_t>(rng.next_below(33)),
                           static_cast<std::uint8_t>(rng.next_below(17)),
                           0,
                           0,
                           0};
    const FlowKeyValue once = extract_flow_key(p, spec);
    const FlowKeyValue twice = mask_candidate_key(once.bytes, spec);
    EXPECT_EQ(once, twice);
  }
}

TEST(FlowKeyProperty, NarrowerPrefixIsCoarser) {
  // If two packets agree under /n they agree under every /m with m <= n.
  Rng rng(8);
  for (int i = 0; i < 300; ++i) {
    Packet a, b;
    a.ft.src_ip = rng.next_u32();
    b.ft.src_ip = a.ft.src_ip ^ static_cast<std::uint32_t>(rng.next_below(1 << 12));
    for (std::uint8_t n = 32; n > 0; --n) {
      if (extract_flow_key(a, FlowKeySpec::src_ip(n)) ==
          extract_flow_key(b, FlowKeySpec::src_ip(n))) {
        for (std::uint8_t m = 0; m < n; ++m) {
          EXPECT_EQ(extract_flow_key(a, FlowKeySpec::src_ip(m)),
                    extract_flow_key(b, FlowKeySpec::src_ip(m)));
        }
        break;
      }
    }
  }
}

// -------- sketch monotonicity --------

TEST(SketchProperty, CmsEstimatesMonotoneInTraffic) {
  sketch::CountMin cms(3, 512);
  Rng rng(9);
  std::vector<std::uint8_t> probe = {1, 2, 3, 4};
  std::uint32_t prev = 0;
  for (int i = 0; i < 3000; ++i) {
    std::uint8_t k[4] = {static_cast<std::uint8_t>(rng.next()), 2, 3, 4};
    cms.update(std::span<const std::uint8_t>(k, 4));
    const std::uint32_t est = cms.query(probe);
    EXPECT_GE(est, prev) << "more traffic can only raise CMS estimates";
    prev = est;
  }
}

TEST(SketchProperty, HllUnionEqualsRegisterMax) {
  // Three identical HyperLogLog deployments: one sees trace A, one B, one
  // A then B.  The register-wise max of the first two is exactly the third.
  TaskSpec s;
  s.attribute = AttributeKind::kDistinct;
  s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  s.algorithm = Algorithm::kHyperLogLog;
  s.memory_buckets = 1024;
  FlyMonDataPlane da(1), db(1), du(1);
  control::Controller ca(da), cb(db), cu(du);
  const std::uint32_t id = ca.add_task(s).task_id;
  ASSERT_NE(id, 0u);
  ASSERT_EQ(cb.add_task(s).task_id, id);
  ASSERT_EQ(cu.add_task(s).task_id, id);

  TraceConfig cfg;
  cfg.num_flows = 4000;
  cfg.num_packets = 8000;
  cfg.seed = 1;
  const auto a = TraceGenerator::generate(cfg);
  cfg.seed = 2;
  const auto b = TraceGenerator::generate(cfg);
  da.process_batch(a);
  db.process_batch(b);
  du.process_batch(a);
  du.process_batch(b);

  const control::UnitPlacement& up = ca.task(id)->rows.at(0).units.at(0);
  auto& merged = da.group(up.group).cmu(up.cmu).reg();
  const auto& rb = db.group(up.group).cmu(up.cmu).reg();
  const auto& ru = du.group(up.group).cmu(up.cmu).reg();
  for (std::uint32_t i = up.partition.base; i < up.partition.end(); ++i) {
    merged.write(i, std::max(merged.read(i), rb.read(i)));
    ASSERT_EQ(merged.read(i), ru.read(i)) << "cell " << i;
  }
  EXPECT_DOUBLE_EQ(ca.estimate_cardinality(id), cu.estimate_cardinality(id))
      << "register-wise max is exactly the union sketch";
}

// -------- controller resource conservation --------

TEST(ControllerProperty, ChurnConservesResources) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  Rng rng(10);
  std::vector<std::uint32_t> live;
  for (int step = 0; step < 120; ++step) {
    if (live.size() < 8 && rng.next_bool(0.6)) {
      TaskSpec s;
      s.filter = TaskFilter::src(0x0A000000 | (rng.next_u32() & 0x00FF0000), 16);
      s.key = rng.next_bool(0.5) ? FlowKeySpec::five_tuple() : FlowKeySpec::src_ip();
      s.attribute = AttributeKind::kFrequency;
      s.memory_buckets = 1u << (11 + rng.next_below(4));
      s.rows = 1 + static_cast<unsigned>(rng.next_below(3));
      const auto r = ctl.add_task(s);
      if (r.ok) live.push_back(r.task_id);
    } else if (!live.empty()) {
      const std::size_t i = rng.next_below(live.size());
      EXPECT_TRUE(ctl.remove_task(live[i]));
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (std::uint32_t id : live) ctl.remove_task(id);
  // Every bucket everywhere must be free again, and every hash unit clear.
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      EXPECT_EQ(ctl.free_buckets(g, c), dp.group(g).config().register_buckets)
          << "group " << g << " cmu " << c;
      EXPECT_TRUE(dp.group(g).cmu(c).entries().empty());
    }
    for (unsigned u = 0; u < dp.group(g).compression().num_units(); ++u) {
      EXPECT_FALSE(dp.group(g).compression().spec_of(u).has_value());
    }
  }
}

// -------- end-to-end determinism --------

TEST(SystemProperty, IdenticalDataplanesStayIdentical) {
  auto build = []() {
    auto dp = std::make_unique<FlyMonDataPlane>(3);
    auto ctl = std::make_unique<control::Controller>(*dp);
    TaskSpec s;
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 8192;
    s.rows = 3;
    ctl->add_task(s);
    return std::make_pair(std::move(dp), std::move(ctl));
  };
  auto [dp1, ctl1] = build();
  auto [dp2, ctl2] = build();

  TraceConfig cfg;
  cfg.num_flows = 500;
  cfg.num_packets = 20'000;
  const auto trace = TraceGenerator::generate(cfg);
  dp1->process_batch(trace);
  dp2->process_batch(trace);

  for (unsigned g = 0; g < 3; ++g) {
    for (unsigned c = 0; c < 3; ++c) {
      const auto& r1 = dp1->group(g).cmu(c).reg();
      const auto& r2 = dp2->group(g).cmu(c).reg();
      ASSERT_EQ(r1.size(), r2.size());
      for (std::uint32_t i = 0; i < r1.size(); i += 97) {
        ASSERT_EQ(r1.read(i), r2.read(i)) << "g" << g << " c" << c << " @" << i;
      }
    }
  }
}

// -------- BeauCoup coupon monotonicity --------

TEST(SystemProperty, CouponBitmapsOnlyGrow) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  TaskSpec s;
  s.key = FlowKeySpec::dst_ip();
  s.attribute = AttributeKind::kDistinct;
  s.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  s.report_threshold = 128;
  s.memory_buckets = 8192;
  s.rows = 3;
  const auto r = ctl.add_task(s);
  ASSERT_TRUE(r.ok);

  Packet probe;
  probe.ft.dst_ip = 0xC0A80001;
  Rng rng(11);
  double prev = 0;
  for (int i = 0; i < 3000; ++i) {
    Packet p;
    p.ft.dst_ip = 0xC0A80001;
    p.ft.src_ip = rng.next_u32();
    dp.process(p);
    const double est = ctl.estimate_distinct(r.task_id, probe);
    EXPECT_GE(est, prev);
    prev = est;
  }
}

}  // namespace
}  // namespace flymon
