// Persistent worker pool for multi-core packet processing.
//
// N executors = N-1 spawned threads plus the calling thread, each owning a
// private RegisterShard and BatchScratch.  run() publishes one Job — the
// plan snapshot plus a packet span — and all executors claim fixed-size
// chunks from it with a lock-free fetch_add cursor, so load balances
// itself and no shared state is written on the hot path except the
// claim/completion atomics.
//
// FlyMonDataPlane::process_batch picks the path under a Submission held
// for the whole batch, handing run() only shard-mergeable plans.  Fence
// takes the same lock to fold every dirty shard into the live registers,
// and the data plane holds one across compile+publish, so no delta
// straddles a plan change (RegisterShard::merge_into relies on this) and
// no fold lands in a cell a batch is writing.
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
  std::uint64_t parallel_batches = 0;  ///< batches executed across shards
  std::uint64_t fallback_batches = 0;  ///< sequential fallbacks (no plan or unmergeable plan)
  std::uint64_t chunks = 0;            ///< work-queue chunks claimed
  std::uint64_t merges = 0;            ///< quiesce/fence merges that folded a dirty shard
  // Fallback causes (sum == fallback_batches): a silent sequential run is
  // indistinguishable from a fast parallel one without these.
  std::uint64_t fallback_no_plan = 0;      ///< no compiled plan published
  std::uint64_t fallback_unmergeable = 0;  ///< plan has merge blockers
};

class WorkerPool {
 public:
  /// Spawns `num_workers - 1` threads (the caller is the last executor);
  /// `num_workers` is clamped to at least 1.
  WorkerPool(FlyMonDataPlane& dp, unsigned num_workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  unsigned num_workers() const noexcept { return num_executors_; }

  /// Submission lock: process_batch holds one across a whole batch.
  class FLYMON_SCOPED_CAPABILITY Submission {
   public:
    explicit Submission(WorkerPool& pool) FLYMON_ACQUIRE(pool.submit_mu_)
        : pool_(pool) { pool_.submit_mu_.lock(); }
    ~Submission() FLYMON_RELEASE() { pool_.submit_mu_.unlock(); }

   private:
    WorkerPool& pool_;
  };

  /// Run a non-empty batch across all executors under a shard-mergeable
  /// `plan`, tracing the packets `sample` picks into `tracer` (if any).
  void run(std::shared_ptr<const ExecPlan> plan, std::span<const Packet> pkts,
           telemetry::TraceSample sample, telemetry::PacketTracer* tracer)
      FLYMON_REQUIRES(submit_mu_);

  /// Record a sequential batch: no plan (nullptr) or an unmergeable one.
  void count_fallback(const ExecPlan* plan) FLYMON_REQUIRES(submit_mu_);

  /// Block new submissions, wait out the in-flight job, and fold every
  /// dirty shard into the live registers under the current plan.  With
  /// every shard clean this is one lock and a dirty check.
  void quiesce_and_merge();

  /// Drop all shard state without merging (epoch clear).
  void discard_shards();

  ParallelStats stats() const noexcept;

  /// Cache handles into `registry` (fallback-reason counters, fence-wait
  /// and shard-merge histograms) so the pool reports without per-event
  /// registry lookups.  Pass nullptr to detach.  Serialises on the
  /// submission lock, so it is safe against in-flight batches.
  void bind_telemetry(telemetry::Registry* registry);

  /// RAII reconfiguration fence: holds the submission lock and merges all
  /// dirty shards under the (old) published plan, so the holder can
  /// compile and publish a new plan with no deltas straddling the change.
  /// Records the lock-wait time (how long the reconfiguration stalled on
  /// in-flight traffic) and emits an "exec.fence" span.
  class FLYMON_SCOPED_CAPABILITY Fence {
   public:
    explicit Fence(WorkerPool& pool) FLYMON_ACQUIRE(pool.submit_mu_);
    ~Fence() FLYMON_RELEASE();

   private:
    WorkerPool& pool_;
  };

 private:
  struct Job {
    std::shared_ptr<const ExecPlan> plan;
    std::span<const Packet> pkts;
    telemetry::TraceSample sample;  ///< the batch's tracing decision
    std::vector<Cell> watch;        ///< ExecPlan::traced_cells
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

  void worker_main(std::size_t shard_idx);
  void run_chunks(Job& job, std::size_t shard_idx);
  void merge_locked() FLYMON_REQUIRES(submit_mu_);
  void note_fence_wait(std::uint64_t wait_ns) FLYMON_REQUIRES(submit_mu_);
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

  /// Serialises batches (Submission) / quiesce / Fence.
  common::Mutex submit_mu_{"exec.submit_mu"};

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
  std::atomic<std::uint64_t> fallbacks_[2]{};  ///< no_plan, unmergeable

  // Telemetry handles, cached under submit_mu_ (written only by
  // bind_telemetry; read only by code already holding the lock).
  telemetry::Counter* fallback_counters_[2] FLYMON_GUARDED_BY(submit_mu_) =
      {};  ///< no_plan, unmergeable
  telemetry::Counter* blocker_counters_[4] FLYMON_GUARDED_BY(submit_mu_) =
      {};  ///< per MergeBlockerKind
  telemetry::Histogram* fence_wait_us_ FLYMON_GUARDED_BY(submit_mu_) = nullptr;
  telemetry::Histogram* shard_merge_us_ FLYMON_GUARDED_BY(submit_mu_) = nullptr;
};

}  // namespace flymon::exec
