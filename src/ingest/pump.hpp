// The ingest pump: a producer thread that pulls batches from a
// PacketSource, optionally paces them against the capture timestamps, and
// publishes them into a lock-free SPSC PacketRing for the measurement
// plane to drain.  This is the seam where "serve this traffic" meets
// "process this vector": the pump owns the wire side (pacing, drops,
// backpressure), the dataplane's drain loop owns the sketch side, and the
// ring between them is the only shared state.
//
// Drop semantics (DESIGN.md §16): when the ring is full the pump either
//   - kBlock: backpressures — spins/yields until the consumer recycles
//     slots; nothing is ever lost (the default, used by golden tests and
//     the CI soak where zero drops are asserted), or
//   - kDrop: counts the overflow tail as dropped and moves on — the
//     behaviour of a real capture port with a slow consumer.
// A stop() that cuts a batch short (during a pacing wait or kBlock
// backpressure) counts the packets it leaves behind as dropped.  So the
// conservation law  produced == enqueued + dropped  holds exactly at all
// times the producer is quiescent, stopped early or not, and all three
// counts are exported as telemetry (flymon_ingest_packets / _drops /
// _ring_occupancy, labelled by source).
//
// Real-time pacing sleeps until each batch's first packet is due, but never
// for more than kMaxPaceGapNs past the previous batch: a longer forward
// jump in the timestamps re-bases the pacing origin instead.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <limits>
#include <stop_token>
#include <string>
#include <thread>

#include "ingest/packet_source.hpp"
#include "ingest/ring.hpp"
#include "telemetry/telemetry.hpp"

namespace flymon::ingest {

/// The production packet ring (see ring.hpp for the template).
using PacketRing = BasicSpscRing<common::StdSync, Packet>;

struct PumpConfig {
  std::size_t ring_capacity = 1 << 16;  ///< slots; power of two
  std::size_t batch = 256;              ///< producer pull/push granularity

  enum class Pace {
    kAsap,  ///< as fast as the consumer allows
    kReal,  ///< honour inter-packet gaps from the capture timestamps
  };
  Pace pace = Pace::kAsap;
  /// Real pacing speed-up: 2.0 replays a 10 s capture in 5 s of wall time.
  double time_scale = 1.0;

  enum class FullPolicy { kBlock, kDrop };
  FullPolicy on_full = FullPolicy::kBlock;

  /// Telemetry label; defaults to the source's name().
  std::string source_label;
  /// Registry the pump's metrics live in (tests use private registries).
  telemetry::Registry* registry = nullptr;  // nullptr = Registry::global()
};

struct PumpStats {
  std::uint64_t produced = 0;   ///< pulled from the source
  std::uint64_t enqueued = 0;   ///< accepted by the ring
  std::uint64_t dropped = 0;    ///< full ring (kDrop), or cut off by stop()
  std::size_t ring_occupancy = 0;
  bool running = false;         ///< producer thread alive
  bool finished = false;        ///< source drained (or stop() requested)
};

/// Wall-clock delay (ns) at which a packet with capture timestamp `ts_ns`
/// is due, relative to the pacing origin's timestamp, under `time_scale`.
/// Saturates at UINT64_MAX when the scaled gap does not fit.  Pure so the
/// pacing arithmetic is unit-testable without sleeping.
constexpr std::uint64_t pace_delay_ns(std::uint64_t origin_ts_ns,
                                      std::uint64_t ts_ns,
                                      double time_scale) noexcept {
  if (ts_ns <= origin_ts_ns || !(time_scale > 0.0)) return 0;
  const double delay = static_cast<double>(ts_ns - origin_ts_ns) / time_scale;
  // 2^64, the first double a uint64_t cannot hold (the cast would be UB).
  if (delay >= 18446744073709551616.0) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(delay);
}

/// A batch due more than this much wall time after the previous one marks
/// a jump in the capture's timestamps, not a gap to sleep through: the
/// pump re-bases its pacing origin at that batch and counts the jump in
/// flymon_ingest_pace_jumps_total.
inline constexpr std::uint64_t kMaxPaceGapNs = 1'000'000'000;

class IngestPump {
 public:
  /// The pump borrows `source`; the caller keeps it alive until the pump
  /// is destroyed (the shell owns both, in that order).
  explicit IngestPump(PacketSource& source, PumpConfig cfg = {});
  ~IngestPump();  ///< stop() + join

  IngestPump(const IngestPump&) = delete;
  IngestPump& operator=(const IngestPump&) = delete;

  /// Spawn the producer thread.  Idempotent while running.
  void start();
  /// Ask the producer to stop and join it — promptly, even while the
  /// source is dry.  Packets already published to the ring stay poppable.
  void stop();

  /// True once the producer thread has exited (source drained, stop, or
  /// the source threw).
  bool finished() const noexcept {
    return finished_.load(std::memory_order_acquire);
  }

  /// What the source's pull threw on the producer thread, or null.  Valid
  /// once finished() returned true (stored before that flag is released).
  std::exception_ptr error() const noexcept {
    return finished() ? error_ : nullptr;
  }

  PacketRing& ring() noexcept { return ring_; }
  const std::string& label() const noexcept { return label_; }
  PumpStats stats() const;

 private:
  void run(std::stop_token stop);

  PacketSource& source_;
  PumpConfig cfg_;
  std::string label_;
  PacketRing ring_;
  std::jthread thread_;

  std::atomic<bool> finished_{false};
  std::exception_ptr error_;
  bool started_ = false;
  std::atomic<std::uint64_t> produced_{0};
  std::atomic<std::uint64_t> enqueued_{0};
  std::atomic<std::uint64_t> dropped_{0};

  telemetry::Counter* packets_ctr_ = nullptr;
  telemetry::Counter* drops_ctr_ = nullptr;
  telemetry::Counter* pace_jumps_ctr_ = nullptr;
  telemetry::Gauge* occupancy_gauge_ = nullptr;
};

/// The consumer side of a pump, as a PacketSource: drain() and
/// EpochRunner::run_stream pull from this exactly as they would from a
/// file or generator, so "source -> ring -> sketch" and "source -> sketch"
/// share one consumption path.  done() only turns true after the producer
/// has finished AND the ring is empty; a dry-but-live ring returns 0 from
/// pull (temporarily dry), which for_each_batch treats as "yield, don't
/// exit".  When the producer's source threw, pull rethrows that exception
/// where it would otherwise report done(): every packet pulled before the
/// failure has been handed out first.
class RingSource final : public PacketSource {
 public:
  explicit RingSource(IngestPump& pump) : pump_(pump) {}

  const char* name() const noexcept override { return "ring"; }

  std::size_t pull(std::span<Packet> out) override {
    const std::size_t n = pump_.ring().try_pop(out);
    popped_ += n;
    if (n == 0 && done()) {
      if (const std::exception_ptr error = pump_.error()) std::rethrow_exception(error);
    }
    return n;
  }

  bool done() const override {
    return pump_.finished() && pump_.ring().empty();
  }

  std::uint64_t produced() const override { return popped_; }

 private:
  IngestPump& pump_;
  std::uint64_t popped_ = 0;
};

}  // namespace flymon::ingest
