// Sampled per-stage hot-path profiler: 1-in-N batches run a
// cycle-instrumented variant of the compiled path (and the sharded pool
// records its claim/execute/merge phases), attributing cycles to the
// pipeline stages the SIMD/vectorisation roadmap items need to optimise:
//
//   compiled path:  compression | filter | address | salu
//   sharded path:   claim | execute | merge
//
// The profiler is off by default and out of the per-packet path:
// ExecPlan::run_batch checks one relaxed atomic per *batch* (not per
// packet); a sampled batch laps each batch-wide stage once and the SALU
// walk once per (CMU, batch), so the clock is never read per packet and
// the stage sum reconciles with the unprofiled wall clock.  Per-stage cycles/items accumulate in process-wide atomics,
// surface as a snapshot() for `micro_throughput --json` (the `stages`
// row) and flow through the telemetry exporters via flush_to_registry().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#else
#include "trace/span.hpp"  // monotonic_now_ns fallback
#endif

namespace flymon::telemetry {
class Registry;
}  // namespace flymon::telemetry

namespace flymon::trace {

enum class Stage : std::uint8_t {
  kCompression = 0,  ///< batched key serialisation + hash lanes
  kFilter,           ///< TCAM-filter match (batched SoA pass)
  kAddress,          ///< key slice + address translation (batched SoA pass)
  kSalu,             ///< per-CMU walk: sampling coin, preps, SALU op, chains
  kClaim,            ///< sharded: work-queue chunk claim overhead
  kExecute,          ///< sharded: per-chunk plan execution
  kMerge,            ///< sharded: folding dirty shards into live registers
  kIngest,           ///< streaming: capture loop (source pull / ring pop)
  kCount
};

inline constexpr std::size_t kNumStages =
    static_cast<std::size_t>(Stage::kCount);

const char* to_string(Stage s) noexcept;

/// Serialising-free cycle counter: rdtsc where available, steady_clock
/// nanoseconds otherwise (the breakdown is relative, so the unit only
/// needs to be uniform within a run).
inline std::uint64_t now_cycles() noexcept {
#if defined(__x86_64__) || defined(_M_X64)
  return __rdtsc();
#else
  return monotonic_now_ns();
#endif
}

/// Per-batch scratch the profiled path accumulates into; flushed once per
/// sampled batch so the shared atomics are touched O(stages) per batch.
struct BatchStageSample {
  std::array<std::uint64_t, kNumStages> cycles{};
  std::array<std::uint64_t, kNumStages> items{};

  void add(Stage s, std::uint64_t c, std::uint64_t n) noexcept {
    cycles[static_cast<std::size_t>(s)] += c;
    items[static_cast<std::size_t>(s)] += n;
  }
};

class StageProfiler {
 public:
  static StageProfiler& global();

  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  /// Profile one in every `n` batches (n clamped to >= 1; default 16).
  void set_sample_every(std::uint32_t n) noexcept {
    every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }
  std::uint32_t sample_every() const noexcept {
    return every_.load(std::memory_order_relaxed);
  }

  /// Per-batch sampling decision: false (one relaxed load) when disabled.
  bool sample_batch() noexcept {
    if (!enabled()) return false;
    return (batches_.fetch_add(1, std::memory_order_relaxed) %
            every_.load(std::memory_order_relaxed)) == 0;
  }

  /// Fold one sampled batch's stage times into the process-wide totals.
  void record_batch(const BatchStageSample& s) noexcept;
  /// Record one phase observation directly (sharded claim/execute/merge).
  void record(Stage s, std::uint64_t cycles, std::uint64_t items) noexcept;

  struct StageStats {
    std::uint64_t cycles = 0;
    std::uint64_t items = 0;
    std::uint64_t samples = 0;  ///< sampled batches / phase observations
    double cycles_per_item() const noexcept {
      return items == 0 ? 0.0
                        : static_cast<double>(cycles) /
                              static_cast<double>(items);
    }
  };
  std::array<StageStats, kNumStages> snapshot() const;

  /// Batches seen by sample_batch() since construction or reset().
  std::uint64_t batches_seen() const noexcept {
    return batches_.load(std::memory_order_relaxed);
  }

  void reset() noexcept;

  /// Publish the current snapshot as gauges
  /// (`flymon_stage_cycles_per_item{stage=...}`,
  /// `flymon_stage_cycles_total{stage=...}`) so the breakdown flows
  /// through the JSON/Prometheus exporters.
  void flush_to_registry(telemetry::Registry& registry) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint32_t> every_{16};
  std::atomic<std::uint64_t> batches_{0};
  struct Cell {
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> samples{0};
  };
  std::array<Cell, kNumStages> cells_{};
};

}  // namespace flymon::trace
