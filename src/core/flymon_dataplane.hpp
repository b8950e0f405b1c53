// The FlyMon data plane: a set of cross-stacked CMU Groups processed in
// pipeline order, sharing one PHV context per packet so CMUs in later
// groups can consume results of earlier ones (SuMax chaining, max
// inter-arrival, Counter Braids carries).
//
// A compiled plan is always published: construction publishes the empty
// deployment's plan (generation 0), and each reconfiguration replaces it
// after its gate.  process_batch is the one batch entry point; the
// published plan picks the path, and both share the same registers and
// counters:
//   - compiled: runs the immutable exec::ExecPlan snapshot held behind an
//     RCU-style atomic shared_ptr; in-flight batches keep the plan they
//     loaded, so entries the controller stages are invisible to packets
//     until their plan is published;
//   - sharded: with a pool and a shard-mergeable plan that has entries,
//     the batch fans out across per-executor register replicas
//     (exec/worker_pool.hpp).
// Attaching a tracer never changes which path runs.  interpret_batch is
// the referee the golden tests and micro_throughput compare against: it
// walks the mutable Cmu/Compression objects packet by packet.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/annotated_mutex.hpp"
#include "common/thread_annotations.hpp"
#include "core/cmu_group.hpp"
#include "exec/exec_plan.hpp"
#include "exec/plan_cell.hpp"
#include "telemetry/trace_ring.hpp"

namespace flymon::exec {
class WorkerPool;
struct ParallelStats;
}  // namespace flymon::exec

namespace flymon::ingest {
class PacketSource;
}  // namespace flymon::ingest

namespace flymon {

class FlyMonDataPlane {
 public:
  explicit FlyMonDataPlane(unsigned num_groups = 9, const CmuGroupConfig& cfg = {});
  ~FlyMonDataPlane();

  FlyMonDataPlane(const FlyMonDataPlane&) = delete;
  FlyMonDataPlane& operator=(const FlyMonDataPlane&) = delete;

  unsigned num_groups() const noexcept { return static_cast<unsigned>(groups_.size()); }
  CmuGroup& group(unsigned i) { return groups_.at(i); }
  const CmuGroup& group(unsigned i) const { return groups_.at(i); }

  /// Process one packet (single-packet batch).
  void process(const Packet& pkt) { process_batch({&pkt, 1}); }

  /// Process a batch on the path the published plan picks.  With a pool it
  /// runs under the submission lock, and a fence waiting for that lock
  /// preempts it at the next chunk seam; the rest of the batch then runs
  /// under the plan the fence's holder published.  Single submitter.
  /// Returns the plan generation the batch's last packets ran under.
  std::uint64_t process_batch(std::span<const Packet> pkts);
  /// Old name of process_batch; it stays until the next benchmark change.
  std::uint64_t process_batch_parallel(std::span<const Packet> pkts) {
    return process_batch(pkts);
  }

  /// The referee: run `pkts` through the mutable Cmu/Compression objects
  /// one packet at a time, tracing the packets `tracer` samples, and count
  /// them like process_batch.  Golden tests and micro_throughput compare
  /// the compiled paths against it.  Requires no pool and no concurrent
  /// reconfiguration: it reads the objects the controller stages into.
  void interpret_batch(std::span<const Packet> pkts,
                       telemetry::PacketTracer* tracer = nullptr);

  std::uint64_t packets_processed() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }

  // ---- streaming ingest ----

  struct DrainStats {
    std::uint64_t packets = 0;          ///< packets pulled and processed
    std::uint64_t batches = 0;          ///< process_batch calls
    std::uint64_t last_generation = 0;  ///< plan generation of the last batch
  };

  /// Streaming entry point: pull batches from `source` through the shared
  /// ingest::for_each_batch loop and run each through process_batch until
  /// the source is done.  Fences and RCU republishes from other threads
  /// keep working mid-stream exactly as they do between process_batch
  /// calls (this is a single-submitter API, like process_batch).  Batches
  /// are sized exec::kBatchChunk x executors x 8 so the pool's per-job
  /// overhead amortises to the compiled path's.
  DrainStats drain(ingest::PacketSource& source);

  /// Clear all registers (start of a measurement epoch); un-merged shard
  /// deltas are discarded with them.  Each CMU zeroes only the hull of the
  /// partitions its entries used since the last clear (Cmu::clear_register),
  /// so the cost follows what tasks own, not the register file.
  void clear_registers();

  // ---- multi-core sharded execution ----

  /// Spin up a persistent pool of `num_workers` executors (the submitting
  /// thread participates as the last one, so 1 spawns no threads).  Each
  /// executor owns a private replica of every CMU register bank;
  /// process_batch fans batches under a shard-mergeable plan out across
  /// them, and they fold back into the live registers at merge points.
  /// Replaces any existing pool (merging its shards first).
  void enable_parallel(unsigned num_workers);

  /// Merge outstanding shard deltas and tear the pool down.
  void disable_parallel();

  /// Executors in the active pool (0 = no pool).
  unsigned parallel_workers() const noexcept;

  /// Fold every dirty shard into the live registers under the current
  /// plan (no-op without a pool).  Read-side paths — controller readouts,
  /// telemetry collection, epoch boundaries — call this before trusting
  /// register contents.
  void merge_shards();

  /// Pool observability snapshot (zeroes without a pool).
  exec::ParallelStats parallel_stats() const;

  // ---- compiled-plan publication (RCU-style snapshot swap) ----
  //
  // A reconfiguration compiles its candidate plan, checks it, and only then
  // publishes that same plan: compile -> validate -> fence -> publish.

  /// Compile the current deployment into a fresh ExecPlan tagged with
  /// `owners` and the next generation.  Takes no fence, so traffic keeps
  /// running on the published plan while the candidate is built and
  /// checked.  Call from the control thread after staging a deployment.
  std::shared_ptr<const exec::ExecPlan> compile_plan(
      std::span<const exec::EntryOwnership> owners);

  /// Publish `plan` under the pool fence: block submissions, settle the
  /// shard deltas, run `zero` (which clears the live cells of `zeroed`,
  /// the partitions the reconfiguration retires and stages), then
  /// release-store the new plan.  When `plan` merges every region outside
  /// `zeroed` like the published plan, the fence only drops the replicas'
  /// deltas inside `zeroed` and carries the rest (scoped); otherwise it
  /// folds every replica under the published plan first (full).  Counted
  /// in flymon_publish_folds_total{kind="scoped|full"}.  Returns the
  /// generation.  Without `zeroed` and `zero`, nothing is zeroed.
  std::uint64_t publish_plan(std::shared_ptr<const exec::ExecPlan> plan,
                             std::span<const exec::CellRange> zeroed = {},
                             const std::function<void()>& zero = {});

  /// The currently published plan; never null.
  std::shared_ptr<const exec::ExecPlan> current_plan() const noexcept;

  /// Generation of the published plan (0 = the construction-time plan).
  std::uint64_t plan_generation() const noexcept;

  /// Rebind all instrumentation counters (groups, CMUs, pipeline totals)
  /// into `registry`, then recompile the published plan's deployment
  /// against the new counter handles and publish it under the same
  /// generation.  This is the only publish outside Controller::apply;
  /// no production caller rebinds after the first reconfiguration.
  /// Construction binds to telemetry::Registry::global().
  void bind_telemetry(telemetry::Registry& registry);
  telemetry::Registry& registry() const noexcept { return *registry_; }

  /// Attach / detach a sampled-packet tracer (not owned).  While attached,
  /// 1-in-N packets record their PHV transformations into the ring, on
  /// whichever path runs them (compiled or sharded).  Safe to call while
  /// another thread processes: each batch loads the tracer once, so a
  /// detached tracer must outlive the batch in flight.
  void set_tracer(telemetry::PacketTracer* tracer) noexcept {
    tracer_.store(tracer, std::memory_order_release);
  }
  telemetry::PacketTracer* tracer() const noexcept {
    return tracer_.load(std::memory_order_acquire);
  }

 private:
  /// Point every instrumentation counter at `registry`.
  void bind_counters(telemetry::Registry& registry);
  /// process_batch with a pool: one piece per hold of the pool's
  /// submission lock, until every packet has run.
  std::uint64_t process_pooled(exec::WorkerPool& pool,
                               std::span<const Packet> pkts,
                               telemetry::TraceSample sample,
                               telemetry::PacketTracer* tracer);
  /// Run `pkts` through `plan` on the live registers in bounded chunks
  /// (reusing scratch_).  Under `pool`, stop at the first chunk seam where
  /// a control thread waits.  Returns the packets run.
  std::size_t run_plan(const exec::ExecPlan& plan, std::span<const Packet> pkts,
                       telemetry::TraceSample sample,
                       telemetry::PacketTracer* tracer,
                       const exec::WorkerPool* pool);

  std::vector<CmuGroup> groups_;
  std::atomic<std::uint64_t> packets_{0};
  // The RCU cell: packet path acquire-loads, control plane release-stores.
  exec::PlanCell plan_;
  /// Serialises compiles (generation numbering), publishes and pool
  /// fencing.
  common::Mutex publish_mu_{"core.publish_mu"};
  std::uint64_t next_generation_ FLYMON_GUARDED_BY(publish_mu_) = 0;
  std::unique_ptr<exec::BatchScratch> scratch_;  ///< processing-thread only
  telemetry::Registry* registry_ = nullptr;
  telemetry::Counter* packets_counter_ = nullptr;
  telemetry::Counter* publish_folds_[2] = {};  ///< scoped, full
  std::atomic<telemetry::PacketTracer*> tracer_{nullptr};
  // Declared last so the pool (and its threads) dies before the registers
  // and counters the shards reference.
  std::unique_ptr<exec::WorkerPool> pool_;
};

/// Set point-in-time dataplane gauges (per-CMU register occupancy, installed
/// rules, configured hash units) in `registry`.  Cheap enough to call from a
/// shell command; not meant for the packet path.
void collect_dataplane_telemetry(const FlyMonDataPlane& dp,
                                 telemetry::Registry& registry);

/// Same, but first folds outstanding shard deltas into the live counters
/// so the gauges and exported counter values include parallel batches.
void collect_dataplane_telemetry(FlyMonDataPlane& dp,
                                 telemetry::Registry& registry);

}  // namespace flymon
