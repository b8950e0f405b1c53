// The pluggable packet-source abstraction: where the measurement plane's
// traffic comes from.  A source is PULLED — the consumer (ingest pump,
// dataplane drain loop, epoch runner, replay CLI) asks for the next batch
// through the one shared loop, for_each_batch() — and every implementation
// produces packets in non-decreasing timestamp order so epoch windows and
// pacing are well defined downstream.
//
// Implementations shipped here and in sibling headers:
//   - MemorySource      replay of a materialised trace (golden tests);
//   - GeneratorSource   on-the-fly seeded synthetic workload, phased
//                       (skew/spike/DDoS) — gen_source.hpp;
//   - FileReplaySource  pcap / FMTR file replay — file_source.hpp.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stop_token>
#include <thread>

#include "packet/packet.hpp"
#include "trace/stage_profiler.hpp"

namespace flymon::ingest {

/// Pull interface.  Sources are single-threaded: one puller at a time
/// (the ingest pump owns the source while attached).
class PacketSource {
 public:
  virtual ~PacketSource() = default;

  /// Implementation name for telemetry labels / shell output.
  virtual const char* name() const noexcept = 0;

  /// Fill up to out.size() packets; returns how many were produced.
  /// Returning 0 while !done() means "temporarily dry" (a live source may
  /// produce more later); after done() it always returns 0.
  virtual std::size_t pull(std::span<Packet> out) = 0;

  /// True once the source will never produce another packet.
  virtual bool done() const = 0;

  /// Total packets handed out so far.
  virtual std::uint64_t produced() const = 0;

  /// Rewind to the beginning if the source supports it (file and memory
  /// replay do; a live generator rebuilds its RNG state).  Returns false
  /// when unsupported.
  virtual bool rewind() { return false; }
};

/// The source-pull loop — the only one: pull up to `buf.size()` packets
/// at a time (buf must be non-empty) and hand each non-empty batch to
/// `on_batch(std::span<const Packet>)` until the source is done.  A live
/// source that is temporarily dry (0 while !done()) is yielded to and
/// retried, never taken for finished.  `stop` ends the loop early; it is
/// checked before every pull, so a caller can stop a source that stays
/// dry.  Every pull is lapped into the stage profiler's `ingest` stage.
template <class OnBatch>
void for_each_batch(PacketSource& source, std::span<Packet> buf,
                    OnBatch&& on_batch, std::stop_token stop) {
  trace::StageProfiler& prof = trace::StageProfiler::global();
  while (!stop.stop_requested()) {
    const std::uint64_t c0 = trace::now_cycles();
    const std::size_t n = source.pull(buf);
    if (prof.enabled()) {
      prof.record(trace::Stage::kIngest, trace::now_cycles() - c0, n);
    }
    if (n == 0) {
      if (source.done()) return;
      std::this_thread::yield();
      continue;
    }
    on_batch(std::span<const Packet>(buf.data(), n));
  }
}

/// Replay of an in-memory trace.  Borrows the storage: the caller keeps
/// the trace alive (tests hand it the golden vector they also feed
/// process_batch).
class MemorySource final : public PacketSource {
 public:
  explicit MemorySource(std::span<const Packet> trace) : trace_(trace) {}

  const char* name() const noexcept override { return "memory"; }

  std::size_t pull(std::span<Packet> out) override {
    const std::size_t n = std::min(out.size(), trace_.size() - pos_);
    for (std::size_t i = 0; i < n; ++i) out[i] = trace_[pos_ + i];
    pos_ += n;
    return n;
  }

  bool done() const override { return pos_ >= trace_.size(); }
  std::uint64_t produced() const override { return pos_; }
  bool rewind() override {
    pos_ = 0;
    return true;
  }

 private:
  std::span<const Packet> trace_;
  std::size_t pos_ = 0;
};

}  // namespace flymon::ingest
