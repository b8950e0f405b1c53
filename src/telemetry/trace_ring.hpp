// Sampled packet tracing: a fixed-size ring buffer of per-packet PHV
// transformation records.  The data plane claims a record for 1-in-N packets
// and the CMU pipeline appends what it did to that packet — compressed keys,
// the dynamic key each CMU selected, the translated register address, the
// stateful op and its result.  Dumpable as JSON to debug composite chains
// (SuMax, CounterBraids, MaxInterarrival) without a debugger.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/annotated_mutex.hpp"
#include "common/thread_annotations.hpp"
#include "packet/packet.hpp"

namespace flymon::telemetry {

/// What one CMU did to a traced packet.
struct CmuTraceStep {
  unsigned group = 0;
  unsigned cmu = 0;
  std::uint32_t task_id = 0;       ///< physical task id of the matched entry
  std::uint32_t selected_key = 0;  ///< compressed key after selector (pre-slice)
  std::uint32_t sliced_key = 0;    ///< key slice used for addressing
  std::uint32_t address = 0;       ///< translated register address
  const char* op = "";             ///< stateful op name (static string)
  std::uint32_t p1 = 0;            ///< parameter 1 after preparation
  std::uint32_t p2 = 0;            ///< parameter 2 after preparation
  std::uint32_t result = 0;        ///< SALU result / exported value
  bool aborted = false;            ///< preparation aborted the update
};

/// Compressed keys one group computed for a traced packet.
struct GroupKeys {
  unsigned group = 0;
  std::vector<std::uint32_t> unit_keys;
};

struct TraceRecord {
  std::uint64_t seq = 0;    ///< index of the packet in arrival order
  std::uint64_t ts_ns = 0;
  FiveTuple ft{};
  std::vector<GroupKeys> keys;
  std::vector<CmuTraceStep> steps;

  /// An empty record for packet `pkt` at arrival index `seq`.
  static TraceRecord start(std::uint64_t seq, const Packet& pkt) {
    TraceRecord r;
    r.seq = seq;
    r.ts_ns = pkt.ts_ns;
    r.ft = pkt.ft;
    return r;
  }
};

/// One batch's sampling decision, taken once before the batch runs: its
/// packets are seq first_seq, first_seq + 1, ... in arrival order, and
/// packet seq is traced when seq % every == 0.  Every execution path of
/// the batch (compiled, sharded, the interpreted referee) reads the same
/// decision.
struct TraceSample {
  std::uint64_t first_seq = 0;
  std::uint64_t every = 0;  ///< 0 = no tracer attached

  /// Is packet `i` of the batch traced?
  bool traced(std::size_t i) const noexcept {
    return every != 0 && (first_seq + i) % every == 0;
  }
  /// Index of the first traced packet (>= n when none of n is traced).
  std::uint64_t first_traced() const noexcept {
    return every == 0 ? ~std::uint64_t{0} : (every - first_seq % every) % every;
  }
  /// The decision for the sub-batch starting at packet `off`.
  TraceSample at(std::size_t off) const noexcept {
    return {first_seq + off, every};
  }
};

/// Fixed-capacity ring of trace records with 1-in-N sampling.  Single
/// writer: the thread that submitted a batch claims its sequence numbers
/// with sample_batch() and, once the batch has run, publish()es its
/// records in seq order into the mutex-guarded ring, so concurrent readers
/// (records(), to_json(), an exporter thread) only ever see completed
/// records.
class PacketTracer {
 public:
  explicit PacketTracer(std::size_t capacity = 256, std::uint64_t sample_every = 1024);

  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t sample_every() const noexcept {
    return every_.load(std::memory_order_relaxed);
  }
  void set_sample_every(std::uint64_t n) noexcept {
    every_.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  }

  /// Number of published records currently held (<= capacity).
  std::size_t size() const;
  /// Packets seen since construction or clear().
  std::uint64_t packets_seen() const noexcept {
    return seen_.load(std::memory_order_relaxed);
  }

  /// Sampling decision for a batch of `n` packets; advances the packet
  /// count by `n`.
  TraceSample sample_batch(std::uint64_t n) noexcept {
    const std::uint64_t first = seen_.fetch_add(n, std::memory_order_relaxed);
    return {first, every_.load(std::memory_order_relaxed)};
  }

  /// Move one completed record into the ring.  Writer thread only.
  void publish(TraceRecord&& rec);

  void clear();

  /// Published records oldest-to-newest.
  std::vector<TraceRecord> records() const;

  /// JSON dump of the ring (array of records, oldest first).
  std::string to_json() const;

 private:
  std::size_t capacity_;  ///< == ring_.size(); immutable, readable lock-free
  mutable common::Mutex mu_{"telemetry.tracer"};
  std::vector<TraceRecord> ring_ FLYMON_GUARDED_BY(mu_);
  std::size_t head_ FLYMON_GUARDED_BY(mu_) = 0;  ///< next slot to publish into
  std::size_t filled_ FLYMON_GUARDED_BY(mu_) = 0;
  std::atomic<std::uint64_t> seen_{0};
  std::atomic<std::uint64_t> every_;
};

}  // namespace flymon::telemetry
