// Epoch-based measurement driver: slices a time-sorted packet stream into
// fixed windows, processes each through the data plane, hands the frozen
// state to a readout callback, then clears registers for the next window —
// the standard sketch measurement loop (paper §5: "measurement epoch").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "control/controller.hpp"
#include "core/flymon_dataplane.hpp"
#include "ingest/packet_source.hpp"
#include "packet/packet.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/span.hpp"

namespace flymon::control {

class EpochRunner {
 public:
  EpochRunner(FlyMonDataPlane& dp, std::uint64_t epoch_ns)
      : dp_(&dp), epoch_ns_(epoch_ns) {}

  std::uint64_t epoch_ns() const noexcept { return epoch_ns_; }

  /// Record per-epoch metrics into `registry`: epoch count, packets-per-
  /// epoch histogram, the boundary's wall time (merge + readout + clear)
  /// and — when a controller is given — every task's bucket saturation and
  /// its epoch-over-epoch delta, observed against the frozen registers just
  /// before they are cleared.
  void bind_telemetry(telemetry::Registry& registry,
                      const Controller* controller = nullptr) {
    registry_ = &registry;
    controller_ = controller;
    epochs_counter_ = &registry.counter("flymon_epochs_total");
    epoch_packets_ = &registry.histogram("flymon_epoch_packets");
    // 0.25us .. ~4s, the spacing of the pool's merge/fence histograms.
    boundary_us_ = &registry.histogram(
        "flymon_epoch_boundary_us", {},
        telemetry::Histogram::exponential_bounds(0.25, 4.0, 17));
    prev_saturation_.clear();
  }

  /// Per-epoch readout: `readout(epoch_index, packets_of_epoch)` runs
  /// against the frozen registers just before they are cleared.
  using Readout = std::function<void(unsigned, std::span<const Packet>)>;

  /// The epoch loop: pull `source` in `batch`-sized chunks through the
  /// shared ingest::for_each_batch loop until it is done, closing an epoch
  /// (merge, readout, clear) at every window boundary, then flush the
  /// final (possibly empty) epoch.  Windows are aligned to the FIRST packet
  /// of the stream (rounded down to a whole window), latched once, so the
  /// boundaries, readouts and register state are identical however the
  /// stream is chunked — the split-invariance test pulls it at every seam.
  /// Returns the stream's epoch count; a source that never yields a packet
  /// has zero epochs.
  unsigned run_stream(ingest::PacketSource& source, Readout readout,
                      std::size_t batch = 4096) {
    readout_ = std::move(readout);
    have_origin_ = false;
    origin_ = 0;
    epoch_ = 0;
    epoch_buf_.clear();
    std::vector<Packet> buf(batch == 0 ? 1 : batch);
    ingest::for_each_batch(
        source, buf, [this](std::span<const Packet> pkts) { feed(pkts); }, {});
    if (have_origin_) finish_epoch();
    readout_ = nullptr;
    return epoch_;
  }

 private:
  /// Process the next time-sorted chunk (fanning out across the worker
  /// pool when one is enabled); an epoch boundary fires as soon as a
  /// packet beyond the window shows up, wherever the chunk seams fall.
  void feed(std::span<const Packet> pkts) {
    while (!pkts.empty()) {
      if (!have_origin_) {
        origin_ = (pkts.front().ts_ns / epoch_ns_) * epoch_ns_;
        have_origin_ = true;
      }
      const std::uint64_t window_end =
          origin_ + (static_cast<std::uint64_t>(epoch_) + 1) * epoch_ns_;
      std::size_t end = 0;
      while (end < pkts.size() && pkts[end].ts_ns < window_end) ++end;
      if (end > 0) {
        trace::Span process("epoch.process", end);
        dp_->process_batch(pkts.first(end));
        epoch_buf_.insert(epoch_buf_.end(), pkts.begin(), pkts.begin() + end);
        pkts = pkts.subspan(end);
      }
      // A remaining packet lies beyond the window: the epoch is complete.
      if (!pkts.empty()) finish_epoch();
    }
  }

  /// Close the current epoch: merge shard deltas so the readout sees
  /// exactly the registers a sequential run would have produced, record
  /// metrics, run the readout, clear registers for the next window.
  void finish_epoch() {
    const std::uint64_t t0 = trace::monotonic_now_ns();
    dp_->merge_shards();
    record_epoch(epoch_buf_.size());
    {
      trace::Span read("epoch.readout", epoch_);
      if (readout_) readout_(epoch_, std::span<const Packet>(epoch_buf_));
    }
    dp_->clear_registers();
    if (boundary_us_ != nullptr) {
      boundary_us_->observe(
          static_cast<double>(trace::monotonic_now_ns() - t0) / 1000.0);
    }
    trace::instant("epoch.boundary", epoch_);
    epoch_buf_.clear();
    ++epoch_;
  }

  void record_epoch(std::size_t packets) {
    if (registry_ == nullptr) return;
    epochs_counter_->inc();
    epoch_packets_->observe(static_cast<double>(packets));
    if (controller_ == nullptr || !telemetry::enabled()) return;
    for (const TaskHealth& h : controller_->health()) {
      const std::string id = std::to_string(h.task_id);
      registry_->gauge("flymon_epoch_task_saturation", {{"task", id}})
          .set(h.max_saturation);
      const auto it = prev_saturation_.find(h.task_id);
      if (it != prev_saturation_.end()) {
        registry_->gauge("flymon_epoch_task_saturation_delta", {{"task", id}})
            .set(h.max_saturation - it->second);
      }
      prev_saturation_[h.task_id] = h.max_saturation;
    }
  }

  FlyMonDataPlane* dp_;
  std::uint64_t epoch_ns_;
  // Streaming state (run_stream/feed).
  Readout readout_;
  bool have_origin_ = false;
  std::uint64_t origin_ = 0;
  unsigned epoch_ = 0;
  std::vector<Packet> epoch_buf_;  ///< current epoch's packets, for readout
  telemetry::Registry* registry_ = nullptr;
  const Controller* controller_ = nullptr;
  telemetry::Counter* epochs_counter_ = nullptr;
  telemetry::Histogram* epoch_packets_ = nullptr;
  telemetry::Histogram* boundary_us_ = nullptr;
  std::map<std::uint32_t, double> prev_saturation_;
};

}  // namespace flymon::control
