// The benchmark's workloads.  Each one generates its inputs from the seed
// before any timing, runs a sequential referee over the same inputs, then
// repeats timed passes through the program's public entry points until
// its time is up, checking every pass against the referee.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Report per-layer metrics from a traced run instead of end-to-end ones.
  bool trace = false;
  /// Referee self-test: flip one register cell (seeded) before the referee
  /// compares, and run a single checked pass.
  bool corrupt = false;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< packets + controller operations
  std::uint64_t failed = 0;     ///< dropped packets + failed operations
  Metrics metrics;
  std::vector<std::string> notes;  ///< human-readable detail lines
};

/// Run the workload `name` (fig12b_stream, full27_64k, churn_paranoid);
/// returns false for an unknown name.
bool run_workload(const std::string& name, const RunConfig& cfg,
                  RunResult& out);

/// Benchmark self-tests (percentile helper, referee corruption); prints
/// one line per case and returns the number of failures.
int run_selftests();

}  // namespace perfbench
