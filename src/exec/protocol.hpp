// The hot reconfiguration protocol's synchronization cores, templated over
// a Sync backend so the SAME code runs in production and under the
// deterministic concurrency model checker (src/verify/concur/).
//
// Two backends exist:
//   - common::StdSync (annotated_mutex.hpp): std::atomic + the annotated
//     common::Mutex — what the data plane ships;
//   - verify::concur::SimSync (sim.hpp): sim::atomic + sim::mutex under
//     the controlled DPOR scheduler — what flymon_mc explores.
//
// Everything here is protocol, not policy: the memory orders and the
// publish/claim/complete/fold state machines live in exactly one place, so
// a seeded mutation in the model checker weakens the same line the real
// WorkerPool executes, and an "exhaustive bounded exploration passed"
// verdict speaks about the shipped code, not a transliteration of it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "common/annotated_mutex.hpp"
#include "common/thread_annotations.hpp"

namespace flymon::common {

/// A plain (non-atomic) payload slot.  Mirrors sim::var's read()/write()
/// surface so protocol templates can mark "this field is raced if the
/// surrounding orders are wrong" — the model checker's backend swaps in a
/// vector-clock-checked sim::var while production pays nothing.
template <class T>
class PlainCell {
 public:
  PlainCell() = default;
  explicit PlainCell(const char* /*name*/, T v = T{}) : value_(std::move(v)) {}
  PlainCell(const PlainCell&) = delete;
  PlainCell& operator=(const PlainCell&) = delete;

  T read() const { return value_; }
  void write(T v) { value_ = std::move(v); }

 private:
  T value_{};
};

/// The production sync backend for the protocol templates below.
struct StdSync {
  using Mutex = common::Mutex;
  using Lock = common::MutexLock;
  template <class T>
  using Atomic = std::atomic<T>;
  template <class T>
  using Cell = PlainCell<T>;
};

}  // namespace flymon::common

namespace flymon::exec {

// The RCU cell holding the published plan snapshot.  Semantically an
// atomic shared_ptr: the control plane release-stores a freshly compiled
// snapshot, the packet path acquire-loads it once per batch, and in-flight
// batches keep the snapshot they loaded alive through the returned
// shared_ptr — so publishing never waits for (or tears) packet processing.
//
// It is not std::atomic<std::shared_ptr<T>> because libstdc++ 12's
// _Sp_atomic unlocks the reader side of its pointer spinlock with
// memory_order_relaxed, leaving no release edge between a reader's plain
// control-block read and the next publisher's write; ThreadSanitizer flags
// that (correctly, per the C++ memory model).  A mutex whose critical
// section only copies/swaps the pointer has the same cost profile as the
// spinlock+refcount dance (one uncontended lock per batch) and is clean
// under TSan.  The previous snapshot is destroyed outside the lock so a
// publisher never runs the plan destructor while holding it.
//
// PlanT needs `std::uint64_t generation() const` (for store_if_newer).
template <class Sync, class PlanT>
class BasicPlanCell {
 public:
  BasicPlanCell() = default;
  /// Names the internal mutex as a lock-witness capability.
  explicit BasicPlanCell(const char* name) : mu_(name) {}

  /// Acquire the current snapshot (nullptr only before the owner's first
  /// store, which the data plane makes at construction).
  std::shared_ptr<PlanT> load() const {
    typename Sync::Lock lk(mu_);
    return plan_;
  }

  /// Publish `next`, which must not be null.  The displaced snapshot's
  /// reference is dropped after the lock is released.
  ///
  /// Not noexcept (here and below): the Sync backend's primitives may
  /// throw — the model checker's sim::mutex/sim::atomic unwind aborted
  /// executions with an exception, and a noexcept frame in the protocol
  /// would turn that unwind into std::terminate.
  void store(std::shared_ptr<PlanT> next) {
    {
      typename Sync::Lock lk(mu_);
      plan_.swap(next);
    }
    // `next` now holds the old snapshot; it dies here, outside the lock.
  }

  /// Publish non-null `next` only if its generation is strictly newer
  /// than the current snapshot's, which must exist.  Defense in depth for
  /// concurrent publishers that race compile-then-store: the published
  /// generation can never move backwards.  Returns whether `next` was
  /// installed.
  bool store_if_newer(std::shared_ptr<PlanT> next) {
    {
      typename Sync::Lock lk(mu_);
      if (next->generation() <= plan_->generation()) {
        return false;  // stale publish: keep the newer snapshot
      }
      plan_.swap(next);  // `next` now carries the displaced snapshot
    }
    return true;
  }

 private:
  mutable typename Sync::Mutex mu_;
  std::shared_ptr<PlanT> plan_ FLYMON_GUARDED_BY(mu_);
};

/// Work-claim / completion core of one pool job.  Executors claim chunk
/// indices with claim() until it runs past the chunk count, and report
/// each finished chunk with complete(); the submitter spins the condition
/// variable on all_done().  A control thread waiting for the submission
/// lock preempts the job: cancel() stops all further claims and retires
/// the unclaimed chunks, so the job ends having run the prefix ran().
///
/// Memory-order contract (audited in DESIGN.md §14, each order proven
/// load-bearing or safely weak by the model checker):
///   - claim() is RELAXED: the index only partitions the batch; the packet
///     span and chunk geometry are published to workers by the job-mutex
///     release that made the job visible, not by this cursor.
///   - arm() is RELAXED: it runs strictly before the job is published, so
///     the job mutex provides the ordering.
///   - complete() is ACQ_REL and all_done() ACQUIRE: the release half
///     orders the finishing executor's shard writes before the decrement,
///     the acquire halves let whoever observes the count reach zero (and
///     then folds the shards) see every executor's writes — including
///     executors that finished early and never touched the completion
///     condvar.  Weakening this to relaxed is the model checker's
///     kRelaxedCompletion mutation; it manifests as a data race between a
///     worker's shard write and the submitter's fold.
///   - cancel() exchanges the cursor RELAXED (like claim(), it only
///     partitions: every claim before the exchange got an index below the
///     returned one, every claim after it an index past the end) and
///     retires the unclaimed chunks with one ACQ_REL fetch_sub, so the
///     prefix it writes to `ran` reaches the submitter with the count.
template <class Sync>
struct JobControl {
  typename Sync::template Atomic<std::size_t> next{0};
  typename Sync::template Atomic<std::size_t> remaining{0};
  std::size_t chunks = 0;  ///< written by arm(), before the job is published
  /// Chunks run, a prefix; read it once all_done().
  typename Sync::template Cell<std::size_t> ran{"job.ran", 0};

  // Not noexcept: see BasicPlanCell::store — sim primitives may throw.
  void arm(std::size_t num_chunks) {
    chunks = num_chunks;
    ran.write(num_chunks);
    next.store(0, std::memory_order_relaxed);
    remaining.store(num_chunks, std::memory_order_relaxed);
  }
  std::size_t claim() {
    return next.fetch_add(1, std::memory_order_relaxed);
  }
  /// Report one finished chunk; true when it was the last one.
  bool complete() {
    return remaining.fetch_sub(1, std::memory_order_acq_rel) == 1;
  }
  /// Cut the job at the claim cursor: no chunk is claimed after this, and
  /// the unclaimed ones leave the completion count in one step.  Only the
  /// first cut of a job retires anything.  True when that retired the last
  /// outstanding chunk (the caller then wakes the submitter, as after
  /// complete()).
  bool cancel() {
    const std::size_t at = next.exchange(chunks, std::memory_order_relaxed);
    if (at >= chunks) return false;  // every chunk claimed, or already cut
    ran.write(at);
    const std::size_t retired = chunks - at;
    return remaining.fetch_sub(retired, std::memory_order_acq_rel) == retired;
  }
  bool all_done() const {
    return remaining.load(std::memory_order_acquire) == 0;
  }
};

/// The control side's claim on a lock that packet batches hold for long
/// stretches (the pool's submission lock).  lock() takes the lock at once
/// when it is free, which every uncontended query does; otherwise it
/// announces itself in `waiting` for as long as it blocks.  While a waiter
/// is announced, executors cut the running job at the next chunk seam and
/// the submitter takes no new submission, so the waiter gets the lock
/// within about one chunk instead of one batch.
///
/// `waiting` is RELAXED throughout: it is a hint that shortens the wait,
/// never what makes the lock exclusive.
template <class Sync>
struct ControlWaiters {
  typename Sync::template Atomic<unsigned> waiting{0};

  void lock(typename Sync::Mutex& mu) FLYMON_ACQUIRE(mu) {
    if (mu.try_lock()) return;
    waiting.fetch_add(1, std::memory_order_relaxed);
    mu.lock();
    waiting.fetch_sub(1, std::memory_order_relaxed);
  }
  bool any() const { return waiting.load(std::memory_order_relaxed) != 0; }
};

/// Whether some shard may hold deltas that no fold has reached: the one
/// word a read-side quiesce checks before it takes the submission lock.
///
/// Memory-order contract (DESIGN.md §14):
///   - mark() is RELAXED and runs under the submission lock before the job
///     it covers reaches an executor.  A query that happens after the
///     batch reads that store or a later one (coherence); a later clear()
///     comes from a fold or discard that held the lock after the batch, so
///     it covered the batch's deltas.
///   - clear() is RELEASE and runs after the fold (or discard) it
///     summarises, still under the lock; pending() is ACQUIRE, so a query
///     that finds the flag clear reads the live registers after the fold's
///     writes.  Clearing before the fold is the model checker's
///     kClearedBeforeFold mutation; it manifests as a race between the
///     fold's write and the lock-free query's read.
template <class Sync>
struct UnmergedDeltas {
  typename Sync::template Atomic<bool> flag{false};

  void mark() { flag.store(true, std::memory_order_relaxed); }
  void clear() { flag.store(false, std::memory_order_release); }
  bool pending() const { return flag.load(std::memory_order_acquire); }
};

/// Fold every dirty shard into the live registers under `plan` — the
/// merge half of the reconfiguration fence — then clear `unmerged`.
/// Caller must hold whatever serialises submissions (the pool's
/// submit_mu_; the model's sim equivalent) so no executor is writing a
/// shard concurrently, and `plan` must merge every region a dirty shard
/// holds deltas in exactly like the plan that produced them (the fencing
/// invariant).  Returns the number of shards folded.
///
/// Shard needs dirty() / merge_into(plan).
template <class Shard, class PlanT, class Sync>
std::size_t fold_dirty_shards(std::span<Shard* const> shards,
                              const PlanT& plan,
                              UnmergedDeltas<Sync>& unmerged) {
  std::size_t folded = 0;
  for (Shard* shard : shards) {
    if (!shard->dirty()) continue;
    shard->merge_into(plan);
    ++folded;
  }
  unmerged.clear();
  return folded;
}

}  // namespace flymon::exec
