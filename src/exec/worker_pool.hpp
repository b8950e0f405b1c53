// Persistent worker pool for multi-core packet processing.
//
// N executors = N-1 spawned threads plus the calling thread, each owning a
// private RegisterShard and BatchScratch.  run() publishes one Job — the
// plan snapshot plus a packet span — and all executors claim fixed-size
// chunks from it with a lock-free fetch_add cursor, so load balances
// itself and no shared state is written on the hot path except the
// claim/completion atomics.
//
// FlyMonDataPlane::process_batch picks the path under a Submission,
// handing run() only shard-mergeable plans.  Fence takes the same lock,
// and the data plane holds one across a publish: it folds every dirty
// shard into the live registers, or, for a plan that merges every other
// region alike, drops only the deltas in the cells the publish zeroes.
// Either way no delta straddles a change of how its region merges
// (RegisterShard::merge_into relies on this) and no fold lands in a cell
// a batch is writing.  Reads skip the lock while no batch has left
// unmerged deltas (UnmergedDeltas).
//
// Preemption: a Submission is held for one piece of a batch, not the
// whole batch.  A control thread (Fence, quiesce, discard, telemetry
// rebind) that finds the lock taken announces itself; executors then cut
// the job at the next kBatchChunk seam (JobControl::cancel), run() reports
// the prefix it ran, and process_batch releases the lock, lets the control
// thread in, and runs the rest of the batch under whatever plan is then
// published.  A chunk seam is a batch seam like any ring seam, so the
// registers end exactly as one uninterrupted run would leave them.
//
// Tracing: the dispatcher takes the batch's sampling decision once, before
// the job runs; each executor writes the records of the traced packets it
// runs into its own BatchScratch and snapshots the traced cells of its
// replica at every chunk it claims.  After the job the submitter rebuilds
// each traced step's sequential SALU result from the live register and
// those snapshots (the exact shard merge, cell by cell) and publishes the
// records in seq order, so the tracer keeps a single writer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "common/annotated_mutex.hpp"
#include "common/thread_annotations.hpp"
#include "exec/exec_plan.hpp"
#include "exec/protocol.hpp"
#include "exec/sharded_runtime.hpp"
#include "packet/packet.hpp"

namespace flymon {
class FlyMonDataPlane;
}  // namespace flymon

namespace flymon::exec {

/// Pool observability (all monotonic since enable_parallel).
struct ParallelStats {
  // A preempted batch runs in pieces, and each piece counts here once.
  std::uint64_t parallel_batches = 0;  ///< pieces executed across shards
  std::uint64_t fallback_batches = 0;  ///< sequential pieces (merge blockers)
  std::uint64_t chunks = 0;            ///< work-queue chunks run
  std::uint64_t preemptions = 0;       ///< batches cut short for a control thread
  std::uint64_t merges = 0;            ///< quiesce/fence merges that folded a dirty shard
};

class WorkerPool {
 public:
  /// Spawns `num_workers - 1` threads (the caller is the last executor);
  /// `num_workers` is clamped to at least 1.  Reports into `registry`.
  WorkerPool(FlyMonDataPlane& dp, unsigned num_workers,
             telemetry::Registry& registry);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned num_workers() const noexcept { return num_executors_; }

  /// Submission lock: process_batch holds one per piece of a batch.  It
  /// is not taken while a control thread is waiting for the lock.
  class FLYMON_SCOPED_CAPABILITY Submission {
   public:
    explicit Submission(WorkerPool& pool) FLYMON_ACQUIRE(pool.submit_mu_)
        : pool_(pool) {
      while (pool_.control_.any()) std::this_thread::yield();
      pool_.submit_mu_.lock();
    }
    ~Submission() FLYMON_RELEASE() { pool_.submit_mu_.unlock(); }

   private:
    WorkerPool& pool_;
  };

  /// Run a non-empty batch across all executors under a shard-mergeable
  /// `plan`, tracing the packets `sample` picks into `tracer` (if any).
  /// A traced run snapshots the replicas' `watch` cells at every chunk: a
  /// sorted superset of plan.traced_cells(pkts, sample).  Returns the
  /// packets run: all of them, or the whole-chunk prefix run before a
  /// waiting control thread cut the job.
  std::size_t run(std::shared_ptr<const ExecPlan> plan,
                  std::span<const Packet> pkts, telemetry::TraceSample sample,
                  telemetry::PacketTracer* tracer,
                  std::span<const Cell> watch) FLYMON_REQUIRES(submit_mu_);

  /// True while a control thread waits for the submission lock: a
  /// sequential run under the pool stops at its next chunk seam.
  bool control_waiting() const { return control_.any(); }

  /// Record a sequential batch under an unmergeable `plan`.
  void count_fallback(const ExecPlan& plan) FLYMON_REQUIRES(submit_mu_);
  /// Record a batch cut short for a waiting control thread.
  void count_preemption() FLYMON_REQUIRES(submit_mu_);

  /// Fold every dirty shard into the live registers under the current
  /// plan: block new submissions, cut the in-flight job at its next chunk
  /// seam, and fold.  When no batch has left deltas since the last fold or
  /// discard this is one acquire load: no lock, so a clean query neither
  /// waits for nor preempts a batch.  Either way the caller sees every
  /// delta of every batch that happens before the call.
  void quiesce_and_merge();

  /// Drop all shard state without merging (epoch clear); one acquire load
  /// when nothing is unmerged, like quiesce_and_merge.
  void discard_shards();

  ParallelStats stats() const noexcept;

  /// Cache handles into `registry` (fallback and merge-blocker counters,
  /// fence-wait and shard-merge histograms) so the pool reports without
  /// per-event registry lookups.  Serialises on the submission lock, so it
  /// is safe against in-flight batches.  Construction binds once.
  void bind_telemetry(telemetry::Registry& registry);

  /// RAII reconfiguration fence: holds the submission lock so the holder
  /// can zero cells and publish a new plan with no delta straddling the
  /// change.  Preempts the in-flight batch at its next chunk seam.
  /// Records the lock-wait time (how long the reconfiguration stalled on
  /// in-flight traffic) and emits an "exec.fence" span.
  class FLYMON_SCOPED_CAPABILITY Fence {
   public:
    /// Fold every dirty shard under the (old) published plan.
    explicit Fence(WorkerPool& pool) FLYMON_ACQUIRE(pool.submit_mu_);
    /// Scoped: drop the replicas' deltas in `dropped` (published-plan
    /// regions inside the cells the holder zeroes) and flush their counter
    /// deltas, but fold nothing.  Exact only when the next plan merges
    /// every other region like the published one (see
    /// PlanCompiler::scoped_regions).
    Fence(WorkerPool& pool, std::span<const MergeRegion> dropped)
        FLYMON_ACQUIRE(pool.submit_mu_);
    ~Fence() FLYMON_RELEASE();

   private:
    WorkerPool& pool_;
  };

 private:
  struct Job {
    std::shared_ptr<const ExecPlan> plan;
    std::span<const Packet> pkts;
    telemetry::TraceSample sample;  ///< the batch's tracing decision
    std::span<const Cell> watch;    ///< traced cells; the submitter owns them
    std::size_t num_chunks = 0;
    /// Claim cursor + completion count; the memory-order contract lives
    /// with the template (protocol.hpp), shared with the model checker.
    JobControl<common::StdSync> ctl;
  };

  struct Worker {
    explicit Worker(const FlyMonDataPlane& dp) : shard(dp) {}
    RegisterShard shard;
    BatchScratch scratch;
    /// Traced job: the chunks claimed, and the replica's traced cells as
    /// of each (chunk-major, job.watch order).
    std::vector<std::size_t> snap_chunks;
    std::vector<std::uint32_t> snaps;
  };

  /// A control thread's hold of submit_mu_ (quiesce, discard, telemetry
  /// rebind): preempts the in-flight batch like Fence.
  class FLYMON_SCOPED_CAPABILITY ControlLock {
   public:
    ControlLock(ControlWaiters<common::StdSync>& waiters, common::Mutex& mu)
        FLYMON_ACQUIRE(mu) : mu_(mu) { waiters.lock(mu_); }
    ~ControlLock() FLYMON_RELEASE() { mu_.unlock(); }

   private:
    common::Mutex& mu_;
  };

  void worker_main(std::size_t shard_idx);
  void run_chunks(Job& job, std::size_t shard_idx);
  void merge_locked() FLYMON_REQUIRES(submit_mu_);
  /// Take submit_mu_ for a fence and record the wait.
  void lock_for_fence() FLYMON_ACQUIRE(submit_mu_);
  /// The value a sequential run would have read where fixup `f` of
  /// executor `wi` read its replica.
  std::uint32_t sequential_value(const Job& job, std::size_t wi,
                                 const TraceFixup& f)
      FLYMON_REQUIRES(submit_mu_);
  /// Fix up and publish every executor's records of the finished job.
  void publish_records(const Job& job, telemetry::PacketTracer& tracer)
      FLYMON_REQUIRES(submit_mu_);

  FlyMonDataPlane* dp_;
  unsigned num_executors_;
  std::vector<std::unique_ptr<Worker>> workers_;  ///< one per executor
  std::vector<std::thread> threads_;              ///< num_executors_ - 1

  /// Serialises batch pieces (Submission) / quiesce / Fence.
  common::Mutex submit_mu_{"exec.submit_mu"};
  /// Control threads waiting for submit_mu_ (see ControlWaiters).
  ControlWaiters<common::StdSync> control_;
  /// Set by run() before a job writes shards, cleared after every fold
  /// and discard (see UnmergedDeltas).
  UnmergedDeltas<common::StdSync> unmerged_;

  // Job hand-off: the submitter publishes job_/job_seq_ under job_mu_ and
  // wakes every worker; each worker copies the shared_ptr once per
  // sequence number.  Annotated (and witnessed) now that common::CondVar
  // keeps the capability visible across the wait.
  common::Mutex job_mu_{"exec.job_mu"};
  common::CondVar job_cv_;
  std::shared_ptr<Job> job_ FLYMON_GUARDED_BY(job_mu_);  ///< workers copy the ref
  std::uint64_t job_seq_ FLYMON_GUARDED_BY(job_mu_) = 0;  ///< bumped per job
  bool stop_ FLYMON_GUARDED_BY(job_mu_) = false;

  common::Mutex done_mu_{"exec.done_mu"};
  common::CondVar done_cv_;

  std::atomic<std::uint64_t> parallel_batches_{0};
  std::atomic<std::uint64_t> chunks_{0};
  std::atomic<std::uint64_t> merges_{0};
  std::atomic<std::uint64_t> preemptions_{0};
  std::atomic<std::uint64_t> fallbacks_{0};

  // Telemetry handles, cached under submit_mu_ (written only by
  // bind_telemetry; read only by code already holding the lock).
  telemetry::Counter* fallback_counter_ FLYMON_GUARDED_BY(submit_mu_) =
      nullptr;
  telemetry::Counter* blocker_counters_[4] FLYMON_GUARDED_BY(submit_mu_) =
      {};  ///< per MergeBlockerKind
  telemetry::Counter* preemption_counter_ FLYMON_GUARDED_BY(submit_mu_) =
      nullptr;
  telemetry::Histogram* fence_wait_us_ FLYMON_GUARDED_BY(submit_mu_) = nullptr;
  telemetry::Histogram* shard_merge_us_ FLYMON_GUARDED_BY(submit_mu_) = nullptr;
};

}  // namespace flymon::exec
