// The FlyMon data plane: a set of cross-stacked CMU Groups processed in
// pipeline order, sharing one PHV context per packet so CMUs in later
// groups can consume results of earlier ones (SuMax chaining, max
// inter-arrival, Counter Braids carries).
//
// Two execution paths share the same registers and counters:
//   - the interpreted path walks the mutable Cmu/CompressionStage objects
//     per packet: the referee the golden tests compare against, and the
//     path packets take while no plan is published;
//   - the compiled path executes an immutable exec::ExecPlan snapshot held
//     behind an RCU-style atomic shared_ptr.  The controller republishes a
//     freshly compiled plan after every reconfiguration; in-flight batches
//     keep running against the plan they acquire-loaded, so reconfiguration
//     never stalls or tears the packet path.  Traced packets run it too:
//     attaching a tracer never changes which path runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
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
  void process(const Packet& pkt);

  /// Process a batch: compression (hashing) runs for the whole batch before
  /// the attribute stages when a compiled plan is published; falls back to
  /// the per-packet interpreted path when none is.  Returns the plan
  /// generation the batch executed under (0 = interpreted).
  std::uint64_t process_batch(std::span<const Packet> pkts);

  std::uint64_t packets_processed() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }

  // ---- streaming ingest ----

  struct DrainStats {
    std::uint64_t packets = 0;          ///< packets pulled and processed
    std::uint64_t batches = 0;          ///< process_batch_parallel calls
    std::uint64_t last_generation = 0;  ///< plan generation of the last batch
  };

  /// Streaming entry point: pull batches from `source` through the shared
  /// ingest::for_each_batch loop and run each through the batched (sharded
  /// when a pool is enabled) hot path until the source is done.  Fences
  /// and RCU republishes from other threads keep working mid-stream
  /// exactly as they do between process_batch_parallel calls (this is a
  /// single-submitter API, like process_batch_parallel).  Batches are
  /// sized exec::kBatchChunk x executors x 8 so the pool's per-job
  /// overhead amortises to the batched path's.
  DrainStats drain(ingest::PacketSource& source);

  /// Clear all registers (start of a measurement epoch); un-merged shard
  /// deltas are discarded with them.  Each CMU zeroes only the hull of the
  /// partitions its entries used since the last clear (Cmu::clear_register),
  /// so the cost follows what tasks own, not the register file.
  void clear_registers();

  // ---- multi-core sharded execution ----

  /// Spin up a persistent pool of `num_workers` executors (the submitting
  /// thread participates as the last one, so 1 spawns no threads).  Each
  /// executor owns a private replica of every CMU register bank; batches
  /// submitted via process_batch_parallel fan out across them and fold
  /// back into the live registers at merge points.  Replaces any existing
  /// pool (merging its shards first).
  void enable_parallel(unsigned num_workers);

  /// Merge outstanding shard deltas and tear the pool down.
  void disable_parallel();

  /// Executors in the active pool (0 = no pool).
  unsigned parallel_workers() const noexcept;

  /// Parallel entry point: fan the batch across the worker pool.  Falls
  /// back to process_batch when no pool is enabled; the pool itself falls
  /// back (sequentially, exact) when no plan is published or the plan is
  /// not shard-mergeable.  Like process_batch this is a single-submitter
  /// API: one thread feeds packets.
  std::uint64_t process_batch_parallel(std::span<const Packet> pkts);

  /// Fold every dirty shard into the live registers under the current
  /// plan (no-op without a pool).  Read-side paths — controller readouts,
  /// telemetry collection, epoch boundaries — call this before trusting
  /// register contents.
  void merge_shards();

  /// Pool observability snapshot (zeroes without a pool).
  exec::ParallelStats parallel_stats() const;

  /// Pool bookkeeping hook: account a parallel batch on the pipeline
  /// totals (per-group/per-CMU counters travel through the shard counter
  /// blocks instead).
  void note_parallel_batch(std::size_t packets) noexcept;

  // ---- compiled-plan publication (RCU-style snapshot swap) ----

  /// Compile the current deployment into a fresh ExecPlan (tagging entries
  /// with `owners`) and publish it with a release store.  Returns the new
  /// plan generation.  Call from the control thread after reconfiguring.
  std::uint64_t republish_plan(std::span<const exec::EntryOwnership> owners);

  /// Recompile with the ownership labels of the currently published plan
  /// (used after telemetry rebinding; publishes an empty-ownership plan if
  /// none was published before).
  std::uint64_t republish_plan();

  /// Drop the published plan: processing reverts to the interpreted path.
  void unpublish_plan() noexcept;

  // ---- publish-time plan validation (translation-validation gate) ----

  /// Validator invoked on every freshly compiled plan between compilation
  /// and the RCU store, under publish_mu_ and the worker-pool fence.  An
  /// empty return admits the plan; any non-empty string (formatted
  /// diagnostics) VETOES publication: the plan is discarded, the previously
  /// published plan is dropped too (the interpreted path — the semantic
  /// ground truth the validator compared against — serves traffic instead),
  /// republish_plan returns 0, and the string is kept in
  /// last_publish_veto().  Installed by Controller::set_paranoid with the
  /// verify::validate_plan translation validator.
  using PlanValidator =
      std::function<std::string(const FlyMonDataPlane&, const exec::ExecPlan&)>;

  /// Install (or, with an empty function, clear) the publish-time
  /// validator.  Takes effect from the next republish_plan call.
  void set_plan_validator(PlanValidator validator);

  /// Diagnostics of the most recent vetoed publication; empty when the
  /// last publish was admitted (or no validator is installed).
  std::string last_publish_veto() const;

  /// The currently published plan (nullptr = interpreted execution).
  std::shared_ptr<const exec::ExecPlan> current_plan() const noexcept;

  /// Generation of the published plan, 0 when none.
  std::uint64_t plan_generation() const noexcept;

  /// Rebind all instrumentation counters (groups, CMUs, pipeline totals)
  /// into `registry` and recompile the published plan against the new
  /// counter handles.  Construction binds to telemetry::Registry::global().
  void bind_telemetry(telemetry::Registry& registry);
  telemetry::Registry& registry() const noexcept { return *registry_; }

  /// Attach / detach a sampled-packet tracer (not owned).  While attached,
  /// 1-in-N packets record their PHV transformations into the ring, on
  /// whichever path runs them (interpreted, compiled or sharded).  Safe to
  /// call while another thread processes: each batch loads the tracer once,
  /// so a detached tracer must outlive the batch in flight.
  void set_tracer(telemetry::PacketTracer* tracer) noexcept {
    tracer_.store(tracer, std::memory_order_release);
  }
  telemetry::PacketTracer* tracer() const noexcept {
    return tracer_.load(std::memory_order_acquire);
  }

 private:
  /// Per-packet path against the mutable objects; fills `trace` when set.
  void interpret(const Packet& pkt, telemetry::TraceRecord* trace);
  /// Run `pkts` through `plan` in bounded chunks (reusing scratch_).
  void run_plan(const exec::ExecPlan& plan, std::span<const Packet> pkts,
                telemetry::TraceSample sample);

  std::vector<CmuGroup> groups_;
  std::atomic<std::uint64_t> packets_{0};
  // The RCU cell: packet path acquire-loads, control plane release-stores.
  exec::PlanCell plan_;
  /// Serialises compile+publish and pool fencing.  mutable so read-only
  /// accessors (last_publish_veto) can lock it on a const data plane.
  mutable common::Mutex publish_mu_{"core.publish_mu"};
  std::uint64_t next_generation_ FLYMON_GUARDED_BY(publish_mu_) = 0;
  PlanValidator validator_ FLYMON_GUARDED_BY(publish_mu_);
  std::string last_publish_veto_ FLYMON_GUARDED_BY(publish_mu_);
  std::unique_ptr<exec::BatchScratch> scratch_;  ///< processing-thread only
  telemetry::Registry* registry_ = nullptr;
  telemetry::Counter* packets_counter_ = nullptr;
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
