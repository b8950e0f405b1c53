// Self-tests of the benchmark itself: the percentile helper, and that a
// seeded one-cell register corruption makes every workload's referee fail
// while the same pass without it passes.
#include <cmath>
#include <cstdio>
#include <string>

#include "workloads.hpp"

namespace perfbench {
namespace {

int check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  return ok ? 0 : 1;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

int percentile_tests() {
  int failures = 0;
  {
    const Tail t = tail_percentile(ramp(1000), 99);
    failures += check(t.percentile == 99 && t.value == 990 && t.count == 1000,
                      "p99 of 1..1000 is 990 over 1000 samples");
  }
  {
    // 100 samples support p90 at most: ten samples lie beyond it.
    const Tail t = tail_percentile(ramp(100), 99);
    failures += check(std::fabs(t.percentile - 90) < 1e-9 && t.value == 90 &&
                          t.count == 100,
                      "p99 of 100 samples falls back to p90 = 90");
  }
  {
    const Tail t = tail_percentile(ramp(250), 99);
    std::size_t beyond = 0;
    for (double v : ramp(250)) beyond += v > t.value ? 1 : 0;
    failures += check(beyond == 10 && std::fabs(t.percentile - 96) < 1e-9,
                      "p99 of 250 samples reports p96 with 10 samples beyond");
  }
  {
    const Tail t = tail_percentile(ramp(12), 99);
    failures += check(t.percentile == 50 && t.value == 6 && t.count == 12,
                      "a sample too small for any tail reports the median");
  }
  {
    const Tail t = tail_percentile({}, 99);
    failures += check(t.count == 0 && t.value == 0, "an empty sample reports 0");
  }
  failures += check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
                    "median of odd and even samples");
  return failures;
}

int referee_tests() {
  int failures = 0;
  for (const char* name : {"fig12b_stream", "full27_64k", "churn_paranoid"}) {
    RunConfig cfg;
    cfg.seed = 7;
    cfg.seconds = 0;
    RunResult clean;
    run_workload(name, cfg, clean);
    failures += check(clean.correct && clean.failed == 0,
                      std::string(name) + ": clean pass matches its referee");
    cfg.corrupt = true;
    RunResult corrupted;
    run_workload(name, cfg, corrupted);
    bool flagged = false;
    for (const std::string& n : corrupted.notes) {
      flagged = flagged || n.rfind("referee mismatch", 0) == 0;
    }
    failures += check(!corrupted.correct && flagged,
                      std::string(name) + ": one corrupted cell fails the referee");
  }
  return failures;
}

}  // namespace

int run_selftests() { return percentile_tests() + referee_tests(); }

}  // namespace perfbench
