// flymon_perfbench: one run of one benchmark workload.
//
//   flymon_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    [--commit ID]
//   flymon_perfbench --selftest
//
// Prints detail lines starting with '#', one {"env": ...} line recording
// the machine and build the numbers came from, and as its last line the
// result object {"correct", "attempted", "failed", "metrics"}.  Exits 1
// when the run's outputs disagree with the referee.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/crc_kernels.hpp"
#include "exec/exec_plan.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: flymon_perfbench --workload "
               "fig12b_stream|full27_64k|churn_paranoid --seed N --seconds S "
               "--trace 0|1 [--commit ID]\n"
               "       flymon_perfbench --selftest\n");
  return 2;
}

/// Threads a run keeps busy: the executors of enable_parallel(2), the
/// ingest pump and the controller thread.
constexpr unsigned kThreadsUsed = 4;

std::string env_json(const std::string& commit) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int allowed =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
  const unsigned hw = std::thread::hardware_concurrency();
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"env\": {\"nproc\": %d, \"hardware_threads\": %u, "
                "\"threads_used\": %u, \"oversubscribed\": %s, "
                "\"crc_active_impl\": \"%s\", \"avx2_soa_active\": %s, "
                "\"build_type\": \"%s\", \"commit\": \"%s\"}}",
                allowed, hw, kThreadsUsed,
                static_cast<unsigned>(allowed) < kThreadsUsed ? "true" : "false",
                flymon::to_string(flymon::crc_active_impl()),
                flymon::exec::avx2_soa_active() ? "true" : "false",
                FLYMON_PERFBENCH_BUILD_TYPE, commit.c_str());
  if (static_cast<unsigned>(allowed) < kThreadsUsed) {
    std::fprintf(stderr,
                 "warning: %d CPUs available for %u busy threads; the numbers "
                 "measure oversubscription\n",
                 allowed, kThreadsUsed);
  }
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // Fixed allocator thresholds: large blocks (register banks, shards, the
  // ring) are always fresh mappings returned on free.  glibc otherwise
  // raises the thresholds as blocks are freed, so whether a pass's set-up
  // pays its page faults, and how much of its memory stays resident,
  // would depend on what earlier passes happened to free.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);

  std::string workload;
  std::string commit = "unknown";
  perfbench::RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    if (arg == "--selftest") {
      const int failures = perfbench::run_selftests();
      std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
      return failures == 0 ? 0 : 1;
    } else if (arg == "--workload" && has_next) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_next) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_next) {
      cfg.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = cfg.seconds >= 0;
    } else if (arg == "--trace" && has_next) {
      const std::string v = argv[++i];
      cfg.trace = v == "1";
      have_trace = v == "0" || v == "1";
    } else if (arg == "--commit" && has_next) {
      commit = argv[++i];
    } else {
      return usage();
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }

  const std::string env = env_json(commit);
  perfbench::RunResult r;
  if (!perfbench::run_workload(workload, cfg, r)) {
    std::fprintf(stderr, "error: unknown workload '%s'\n", workload.c_str());
    return usage();
  }
  for (const std::string& note : r.notes) std::printf("# %s\n", note.c_str());
  std::printf("%s\n", env.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              r.metrics.to_json().c_str());
  return r.correct ? 0 : 1;
}
