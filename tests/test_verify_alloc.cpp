// Heap-allocation budget of one clean paranoid gate run.  The verifier
// formats sites and messages only when a check fails, so a passing
// verify_deployment over a small deployment makes a few hundred
// allocations, not thousands.  This binary counts them with a replacement
// global operator new; counts are deterministic, so the bound cannot
// flake on a noisy machine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "control/controller.hpp"
#include "core/flymon_dataplane.hpp"
#include "exec/exec_plan.hpp"
#include "verify/verifier.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
// The nothrow forms too (std::stable_sort's buffer uses them): every form
// that can reach the replaced deletes must come from malloc.
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace flymon {
namespace {

/// The churn mix: three long-lived tasks, one per exact-merge op kind
/// (Cond-ADD, OR, MAX), plus one idle churn task on 11.0.0.0/8.
std::vector<TaskSpec> churn_mix() {
  std::vector<TaskSpec> v(4);
  v[0].name = "cms";
  v[0].key = FlowKeySpec::five_tuple();
  v[0].attribute = AttributeKind::kFrequency;
  v[0].memory_buckets = 8192;
  v[0].rows = 3;
  v[1].name = "bloom";
  v[1].key = FlowKeySpec::src_ip();
  v[1].attribute = AttributeKind::kExistence;
  v[1].param = ParamSpec::compressed(FlowKeySpec::src_ip());
  v[1].memory_buckets = 8192;
  v[1].rows = 2;
  v[2].name = "maxq";
  v[2].key = FlowKeySpec::ip_pair();
  v[2].attribute = AttributeKind::kMax;
  v[2].param = ParamSpec::metadata(MetaField::kQueueLen);
  v[2].memory_buckets = 4096;
  v[2].rows = 2;
  v[3].name = "churn-src";
  v[3].filter = TaskFilter::src(0x0B00'0000, 8);
  v[3].key = FlowKeySpec::src_ip();
  v[3].attribute = AttributeKind::kFrequency;
  v[3].memory_buckets = 4096;
  v[3].rows = 1;
  return v;
}

TEST(VerifyAllocations, CleanGateOnTheChurnMixStaysUnderBudget) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  for (const TaskSpec& s : churn_mix()) ASSERT_TRUE(ctl.add_task(s).ok) << s.name;
  const auto plan = dp.current_plan();

  g_allocations = 0;
  g_counting = true;
  const verify::VerifyReport report =
      verify::verify_deployment(ctl, nullptr, plan.get());
  g_counting = false;
  const std::size_t allocations = g_allocations;

  std::printf("clean gate: %zu heap allocations, %zu diagnostics\n", allocations,
              report.diagnostics().size());
  EXPECT_TRUE(report.empty()) << report.format();
  EXPECT_EQ(report.analyzers_run.size(), 10u);
  // The gate made ~3,200 allocations when every check formatted its site
  // and message up front; the bound is a fifth of that.
  EXPECT_LE(allocations, 640u);
}

}  // namespace
}  // namespace flymon
