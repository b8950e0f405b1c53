#include "ingest/pump.hpp"

#include <algorithm>
#include <condition_variable>
#include <mutex>
#include <vector>

namespace flymon::ingest {

IngestPump::IngestPump(PacketSource& source, PumpConfig cfg)
    : source_(source),
      cfg_(cfg),
      label_(cfg.source_label.empty() ? source.name() : cfg.source_label),
      ring_(cfg.ring_capacity) {
  telemetry::Registry& reg =
      cfg_.registry != nullptr ? *cfg_.registry : telemetry::Registry::global();
  const telemetry::Labels labels{{"source", label_}};
  packets_ctr_ = &reg.counter("flymon_ingest_packets", labels);
  drops_ctr_ = &reg.counter("flymon_ingest_drops", labels);
  pace_jumps_ctr_ = &reg.counter("flymon_ingest_pace_jumps_total", labels);
  occupancy_gauge_ = &reg.gauge("flymon_ingest_ring_occupancy", labels);
}

IngestPump::~IngestPump() { stop(); }

void IngestPump::start() {
  if (started_) return;
  started_ = true;
  error_ = nullptr;
  finished_.store(false, std::memory_order_relaxed);
  thread_ = std::jthread([this](std::stop_token stop) { run(stop); });
}

void IngestPump::stop() {
  thread_.request_stop();
  if (thread_.joinable()) thread_.join();
  started_ = false;
}

PumpStats IngestPump::stats() const {
  PumpStats s;
  s.produced = produced_.load(std::memory_order_relaxed);
  s.enqueued = enqueued_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.ring_occupancy = ring_.occupancy();
  s.finished = finished_.load(std::memory_order_acquire);
  s.running = started_ && !s.finished;
  return s;
}

void IngestPump::run(std::stop_token stop) {
  std::vector<Packet> buf(cfg_.batch == 0 ? 1 : cfg_.batch);
  // Pacing origin: the wall time and capture timestamp every due time is
  // measured from.  It starts at the first batch and moves to a batch due
  // more than kMaxPaceGapNs after the latest due time so far (last_due_ns).
  auto origin_wall = std::chrono::steady_clock::now();
  std::uint64_t origin_ts = 0;
  std::uint64_t last_due_ns = 0;
  bool have_origin = false;

  // Packets the pump pulled but will not enqueue: a full ring under kDrop,
  // or a stop that cuts a batch short.
  const auto drop = [&](std::size_t n) {
    dropped_.fetch_add(n, std::memory_order_relaxed);
    drops_ctr_->inc(n);
  };
  // A source that throws ends the stream: the consumer rethrows the error
  // once it has drained what the ring already holds.
  try {
    for_each_batch(source_, buf, [&](std::span<const Packet> batch) {
      produced_.fetch_add(batch.size(), std::memory_order_relaxed);

      if (cfg_.pace == PumpConfig::Pace::kReal) {
        const std::uint64_t ts = batch[0].ts_ns;
        if (!have_origin) {
          origin_ts = ts;
          have_origin = true;
        }
        // Pace the batch by its first packet: sleep until that packet is
        // due on the (scaled) wall clock.  Batch-granular pacing bounds
        // the error at one batch of inter-packet gaps.
        std::uint64_t due_ns = pace_delay_ns(origin_ts, ts, cfg_.time_scale);
        if (due_ns > last_due_ns && due_ns - last_due_ns > kMaxPaceGapNs) {
          origin_wall = std::chrono::steady_clock::now();
          origin_ts = ts;
          due_ns = last_due_ns = 0;
          pace_jumps_ctr_->inc();
        }
        last_due_ns = std::max(last_due_ns, due_ns);
        const auto due = origin_wall + std::chrono::nanoseconds(due_ns);
        // Wait on the stop token, not a plain sleep: stop() must not wait
        // out a pacing gap.
        std::mutex mu;
        std::unique_lock lock(mu);
        std::condition_variable_any().wait_until(lock, stop, due,
                                                 [] { return false; });
        if (stop.stop_requested()) {
          drop(batch.size());
          return;
        }
      }

      std::span<const Packet> rest = batch;
      while (!rest.empty()) {
        const std::size_t pushed = ring_.try_push(rest);
        if (pushed != 0) {
          enqueued_.fetch_add(pushed, std::memory_order_relaxed);
          packets_ctr_->inc(pushed);
          rest = rest.subspan(pushed);
          continue;
        }
        // kDrop sheds the tail; a stop unblocks stop() and sheds it too.
        if (cfg_.on_full == PumpConfig::FullPolicy::kDrop ||
            stop.stop_requested()) {
          drop(rest.size());
          break;
        }
        std::this_thread::yield();  // backpressure: wait for the consumer
      }
      occupancy_gauge_->set(static_cast<double>(ring_.occupancy()));
    }, stop);
  } catch (...) {
    error_ = std::current_exception();
  }
  occupancy_gauge_->set(static_cast<double>(ring_.occupancy()));
  finished_.store(true, std::memory_order_release);
}

}  // namespace flymon::ingest
