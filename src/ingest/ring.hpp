// Lock-free bounded single-producer single-consumer ring between the
// ingest pump and the measurement data plane.
//
// The ring is a power-of-two circular buffer with monotone 64-bit cursors
// (head = consumer, tail = producer; occupancy = tail - head, no wasted
// slot, no index wrap ambiguity).  Batch claim/commit: a push writes every
// slot of the batch then publishes them with ONE release store of the
// tail; a pop reads the published span then recycles the slots with ONE
// release store of the head.  Each side keeps a plain cached copy of the
// other side's cursor so an uncontended push/pop costs one relaxed
// self-load and one release store — the cache is refreshed (acquire) only
// when it looks full/empty.
//
// Templated over the same Sync backend as the reconfiguration protocol
// (exec/protocol.hpp): common::StdSync is what the ingest pump ships;
// verify::concur::SimSync puts the identical template under the DPOR
// model checker, with the slot payloads wrapped in vector-clock-checked
// sim::var cells so a weakened publish/recycle order manifests as a data
// race on the slot, not a silent value corruption (DESIGN.md §16).
//
// Memory-order contract (each order proven load-bearing by the ring model
// in src/verify/concur/ring_model.cpp):
//   - publish (tail release store) orders the producer's slot writes
//     before the consumer's acquire observe of the tail;
//   - recycle (head release store) orders the consumer's slot reads
//     before the producer's acquire reuse of the head (so the producer
//     never overwrites a slot still being read).
// The orders live in a traits parameter so the checker's seeded mutations
// weaken exactly one edge without touching this file.
#pragma once

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "exec/protocol.hpp"  // common::StdSync

namespace flymon::ingest {

/// The shipped memory orders (see the contract above).
struct RingOrders {
  static constexpr std::memory_order publish = std::memory_order_release;
  static constexpr std::memory_order observe = std::memory_order_acquire;
  static constexpr std::memory_order recycle = std::memory_order_release;
  static constexpr std::memory_order reuse = std::memory_order_acquire;
};

/// Single-producer single-consumer bounded ring.  `capacity` must be a
/// power of two.  Neither side ever blocks: a full ring rejects (part of)
/// a push — drop accounting is the caller's job (IngestPump) — and an
/// empty ring returns 0 from pop.
template <class Sync, class T, class Orders = RingOrders>
class BasicSpscRing {
 public:
  explicit BasicSpscRing(std::size_t capacity)
      : cap_(capacity),
        mask_(capacity - 1),
        slots_(new typename Sync::template Cell<T>[capacity]) {
    assert(capacity >= 2 && (capacity & (capacity - 1)) == 0 &&
           "ring capacity must be a power of two");
  }
  BasicSpscRing(const BasicSpscRing&) = delete;
  BasicSpscRing& operator=(const BasicSpscRing&) = delete;

  std::size_t capacity() const noexcept { return cap_; }

  /// Producer side: append as many of `batch` as fit, in order, and
  /// publish them with one release store.  Returns the number accepted
  /// (0..batch.size()); the tail of `batch` past that count was dropped.
  ///
  /// Not noexcept: the Sync backend's primitives may throw (the model
  /// checker's sim:: unwinds aborted executions with an exception).
  std::size_t try_push(std::span<const T> batch) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = cap_ - static_cast<std::size_t>(tail - cached_head_);
    if (free < batch.size()) {
      cached_head_ = head_.load(Orders::reuse);
      free = cap_ - static_cast<std::size_t>(tail - cached_head_);
    }
    const std::size_t n = free < batch.size() ? free : batch.size();
    for (std::size_t i = 0; i < n; ++i) {
      slots_[(tail + i) & mask_].write(batch[i]);
    }
    if (n != 0) tail_.store(tail + n, Orders::publish);
    return n;
  }

  /// Consumer side: move up to out.size() published items into `out` and
  /// recycle their slots with one release store.  Returns the count.
  std::size_t try_pop(std::span<T> out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = static_cast<std::size_t>(cached_tail_ - head);
    if (avail < out.size()) {
      cached_tail_ = tail_.load(Orders::observe);
      avail = static_cast<std::size_t>(cached_tail_ - head);
    }
    const std::size_t n = avail < out.size() ? avail : out.size();
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = slots_[(head + i) & mask_].read();
    }
    if (n != 0) head_.store(head + n, Orders::recycle);
    return n;
  }

  /// Published-but-unconsumed count.  Racy by nature (either cursor may
  /// move concurrently); exact when either side is quiescent.  For
  /// telemetry gauges, not for flow control.
  std::size_t occupancy() const {
    return static_cast<std::size_t>(tail_.load(Orders::observe) -
                                    head_.load(Orders::observe));
  }

  bool empty() const { return occupancy() == 0; }

 private:
  const std::size_t cap_;
  const std::size_t mask_;
  std::unique_ptr<typename Sync::template Cell<T>[]> slots_;

  // Producer-owned line: the tail cursor plus the producer's stale copy
  // of the consumer's head.  Consumer-owned line mirrors it.  The padding
  // keeps the two hot cursors off each other's cache line so the SPSC
  // fast path never false-shares.
  alignas(64) typename Sync::template Atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;  // producer-only
  alignas(64) typename Sync::template Atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;  // consumer-only
};

}  // namespace flymon::ingest
