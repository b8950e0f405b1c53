// Shared machinery of the FlyMon end-to-end benchmark: clocks, the
// percentile helper, process CPU/RSS probes, register digests for the
// referees, and the timing PacketSource wrapper the ring workloads pull
// through.  Everything here is benchmark-side: it times calls into the
// program's public entry points and reads counters the program already
// exposes, and adds no instrumentation to src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "core/flymon_dataplane.hpp"
#include "ingest/packet_source.hpp"
#include "ingest/pump.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// ---- statistics ----

double median(std::vector<double> v);

/// A tail percentile the sample supports: the requested percentile, or
/// the highest one with at least ten samples beyond it when the sample is
/// too small for the request (never below the median).
struct Tail {
  double percentile = 0;  ///< percentile actually reported
  double value = 0;
  std::size_t count = 0;  ///< samples it was taken over
};
Tail tail_percentile(std::vector<double> v, double wanted);

/// Process CPU (user + system) seconds since start.
double cpu_seconds();
/// Resident set size of this process now, in MiB.
double rss_mib();
/// Return freed heap memory to the system, then report rss_mib(): the
/// baseline later peaks are measured against.
double baseline_rss_mib();

// ---- referee helpers ----

/// 64-bit FNV-1a over every CMU register cell of every group, in order.
std::uint64_t register_digest(const flymon::FlyMonDataPlane& dp);

/// Seeded one-cell corruption of a live register bank (referee self-test):
/// flips the low bit of one cell of a CMU whose bank holds data.
void corrupt_one_cell(flymon::FlyMonDataPlane& dp, std::uint64_t seed);

// ---- metrics ----

/// Named metric values in the order they were set.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// {"name": {"value": v, "unit": u}, ...}
  std::string to_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Per-layer span durations gathered from the trace::SpanCollector, keyed
/// by span name (microseconds).
using SpanDurations = std::map<std::string, std::vector<double>>;
/// Collect the spans recorded since the last clear into `out`, then
/// clear the collector.  Call only when no other thread records spans.
void harvest_spans(SpanDurations& out);

// ---- timing source wrapper ----

/// A PacketSource that forwards to another one and times the consumer:
/// the gap from one non-empty pull's return to the next pull is the
/// service time of that batch.  A batch during which mark_boundary() was
/// called is also recorded as an epoch-close sample.  With `detailed`,
/// it also times each pull itself and samples the ring's occupancy.
class TimedSource final : public flymon::ingest::PacketSource {
 public:
  TimedSource(flymon::ingest::PacketSource& inner,
              const flymon::ingest::PacketRing* ring, bool detailed)
      : inner_(inner), ring_(ring), detailed_(detailed) {}

  const char* name() const noexcept override { return "timed"; }
  std::size_t pull(std::span<flymon::Packet> out) override;
  bool done() const override { return inner_.done(); }
  std::uint64_t produced() const override { return inner_.produced(); }

  /// Called from inside the batch being processed (an epoch readout).
  void mark_boundary() noexcept { boundary_ = true; }

  /// Hook run at the start of each pull (the churn schedule uses it).
  void set_on_pull(std::function<void()> fn) { on_pull_ = std::move(fn); }

  std::uint64_t first_packet_ns() const noexcept { return first_packet_ns_; }

  std::vector<double> batch_us;     ///< per non-empty batch
  std::vector<double> boundary_us;  ///< batches that closed an epoch
  std::uint64_t batch_packets = 0;  ///< packets in timed batches
  std::uint64_t pulls = 0;
  std::uint64_t empty_pulls = 0;
  std::uint64_t packets = 0;
  // detailed only
  std::uint64_t pull_ns = 0;
  double occupancy_sum = 0;

 private:
  flymon::ingest::PacketSource& inner_;
  const flymon::ingest::PacketRing* ring_;
  bool detailed_;
  bool boundary_ = false;
  std::size_t last_n_ = 0;
  std::uint64_t last_return_ns_ = 0;
  std::uint64_t first_packet_ns_ = 0;
  std::function<void()> on_pull_;
};

}  // namespace perfbench
