#include "core/flymon_dataplane.hpp"

#include <algorithm>
#include <optional>

#include "common/lock_witness.hpp"
#include "exec/exec_plan.hpp"
#include "exec/worker_pool.hpp"
#include "ingest/packet_source.hpp"
#include "trace/span.hpp"

// Reconfiguration acquires the pool fence (submit_mu_) and the RCU cell
// while holding publish_mu_; register those facts for the `concur`
// lock-order analyzer so a reversed acquisition anywhere in the tree shows
// up as a cycle.
FLYMON_DECLARE_LOCK_ORDER("core.publish_mu", "exec.submit_mu");
FLYMON_DECLARE_LOCK_ORDER("core.publish_mu", "exec.plan_cell");
FLYMON_DECLARE_LOCK_ORDER("core.publish_mu", "trace.spans");

namespace flymon {

FlyMonDataPlane::FlyMonDataPlane(unsigned num_groups, const CmuGroupConfig& cfg)
    : scratch_(std::make_unique<exec::BatchScratch>()) {
  groups_.reserve(num_groups);
  for (unsigned g = 0; g < num_groups; ++g) groups_.emplace_back(g, cfg);
  bind_counters(telemetry::Registry::global());
  // The empty deployment's plan, generation 0: packets never walk the Cmu
  // objects the controller stages into, not even before the first task.
  plan_.store(exec::PlanCompiler::compile(*this, {}, 0));
}

FlyMonDataPlane::~FlyMonDataPlane() = default;

void FlyMonDataPlane::bind_counters(telemetry::Registry& registry) {
  registry_ = &registry;
  packets_counter_ = &registry.counter("flymon_packets_total");
  publish_folds_[0] =
      &registry.counter("flymon_publish_folds_total", {{"kind", "scoped"}});
  publish_folds_[1] =
      &registry.counter("flymon_publish_folds_total", {{"kind", "full"}});
  for (CmuGroup& g : groups_) g.bind_telemetry(registry);
  if (pool_ != nullptr) pool_->bind_telemetry(registry);
}

void FlyMonDataPlane::bind_telemetry(telemetry::Registry& registry) {
  bind_counters(registry);
  // The published plan caches counter handles: recompile its deployment
  // against the new registry.  Same deployment, same generation.
  common::MutexLock publish(publish_mu_);
  const auto cur = plan_.load();
  auto rebound =
      exec::PlanCompiler::compile(*this, cur->ownership(), cur->generation());
  std::optional<exec::WorkerPool::Fence> fence;
  if (pool_ != nullptr) fence.emplace(*pool_);
  plan_.store(std::move(rebound));
}

std::shared_ptr<const exec::ExecPlan> FlyMonDataPlane::compile_plan(
    std::span<const exec::EntryOwnership> owners) {
  common::MutexLock publish(publish_mu_);
  return exec::PlanCompiler::compile(*this, owners, ++next_generation_);
}

std::uint64_t FlyMonDataPlane::publish_plan(
    std::shared_ptr<const exec::ExecPlan> plan,
    std::span<const exec::CellRange> zeroed,
    const std::function<void()>& zero) {
  const std::uint64_t generation = plan->generation();
  trace::Span span("exec.publish", generation);
  common::MutexLock publish(publish_mu_);
  // Fence the pool across the zeroing and the store, so no shard holds a
  // delta in a region the new plan merges differently from the plan that
  // produced it.  Deltas in the zeroed cells die with the live cells.
  const std::optional<std::vector<exec::MergeRegion>> dropped =
      exec::PlanCompiler::scoped_regions(*plan_.load(), *plan, zeroed);
  publish_folds_[dropped ? 0 : 1]->inc();
  std::optional<exec::WorkerPool::Fence> fence;
  if (pool_ != nullptr) {
    if (dropped) {
      fence.emplace(*pool_, *dropped);
    } else {
      fence.emplace(*pool_);
    }
  }
  if (zero) zero();
  plan_.store_if_newer(std::move(plan));
  trace::instant("exec.plan_published", generation);
  return generation;
}

std::shared_ptr<const exec::ExecPlan> FlyMonDataPlane::current_plan() const noexcept {
  return plan_.load();
}

std::uint64_t FlyMonDataPlane::plan_generation() const noexcept {
  return plan_.load()->generation();
}

void FlyMonDataPlane::interpret_batch(std::span<const Packet> pkts,
                                      telemetry::PacketTracer* tracer) {
  const telemetry::TraceSample sample =
      tracer != nullptr ? tracer->sample_batch(pkts.size())
                        : telemetry::TraceSample{};
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    PhvContext ctx;
    if (!sample.traced(i)) {
      for (CmuGroup& g : groups_) g.process(pkts[i], ctx);
      continue;
    }
    auto rec = telemetry::TraceRecord::start(sample.first_seq + i, pkts[i]);
    ctx.trace = &rec;
    for (CmuGroup& g : groups_) g.process(pkts[i], ctx);
    tracer->publish(std::move(rec));
  }
  packets_.fetch_add(pkts.size(), std::memory_order_relaxed);
  packets_counter_->inc(pkts.size());
}

std::size_t FlyMonDataPlane::run_plan(const exec::ExecPlan& plan,
                                     std::span<const Packet> pkts,
                                     telemetry::TraceSample sample,
                                     telemetry::PacketTracer* tracer,
                                     const exec::WorkerPool* pool) {
  // Bounded chunks keep the scratch (hash lanes, chain channels) hot in
  // cache for arbitrarily long traces.  Same size as the sharded pool's
  // work-queue chunk, so the two paths process equal-sized units of work,
  // and a control thread waiting for the pool preempts both at a seam.
  std::size_t off = 0;
  while (off < pkts.size()) {
    const std::size_t len = std::min(exec::kBatchChunk, pkts.size() - off);
    plan.run_batch(pkts.subspan(off, len), *scratch_, sample.at(off));
    off += len;
    if (pool != nullptr && pool->control_waiting()) break;
  }
  if (tracer != nullptr) {
    for (telemetry::TraceRecord& rec : scratch_->records) {
      tracer->publish(std::move(rec));
    }
    scratch_->records.clear();
  }
  return off;
}

std::uint64_t FlyMonDataPlane::process_batch(std::span<const Packet> pkts) {
  if (pkts.empty()) return plan_generation();
  // One tracer and one sampling decision per batch, however many pieces
  // preemption splits it into.
  telemetry::PacketTracer* const tracer = this->tracer();
  const telemetry::TraceSample sample =
      tracer != nullptr ? tracer->sample_batch(pkts.size())
                        : telemetry::TraceSample{};
  std::uint64_t generation = 0;
  if (pool_ != nullptr) {
    generation = process_pooled(*pool_, pkts, sample, tracer);
  } else {
    const std::shared_ptr<const exec::ExecPlan> plan = plan_.load();
    run_plan(*plan, pkts, sample, tracer, nullptr);
    generation = plan->generation();
  }
  packets_.fetch_add(pkts.size(), std::memory_order_relaxed);
  packets_counter_->inc(pkts.size());
  return generation;
}

std::uint64_t FlyMonDataPlane::process_pooled(exec::WorkerPool& pool,
                                              std::span<const Packet> pkts,
                                              telemetry::TraceSample sample,
                                              telemetry::PacketTracer* tracer) {
  // Each piece holds the submission lock, so a fence never folds shards
  // into live cells a piece is writing.  A control thread waiting for the
  // lock cuts the piece at a chunk seam; the next piece runs the rest under
  // whatever plan is published by then.  A traced batch finds the cells
  // its sampled packets touch once per plan: pieces under the same plan
  // watch the cells of the whole remainder the first one saw.
  std::uint64_t generation = 0;
  std::shared_ptr<const exec::ExecPlan> watched;
  std::vector<exec::Cell> watch;
  for (std::size_t done = 0; done < pkts.size();) {
    exec::WorkerPool::Submission submit(pool);
    const std::shared_ptr<const exec::ExecPlan> plan = plan_.load();
    const std::span<const Packet> rest = pkts.subspan(done);
    if (plan->shard_mergeable() && plan->num_entries() != 0) {
      if (tracer != nullptr && plan != watched) {
        watch = plan->traced_cells(rest, sample.at(done), *scratch_);
        watched = plan;
      }
      done += pool.run(plan, rest, sample.at(done), tracer, watch);
    } else {
      // Unmergeable plans run on the live registers, and so does a plan
      // with no entries (the construction-time one): it writes no
      // register, so there is nothing to shard.
      if (!plan->shard_mergeable()) pool.count_fallback(*plan);
      done += run_plan(*plan, rest, sample.at(done), tracer, &pool);
    }
    if (done < pkts.size()) pool.count_preemption();
    generation = plan->generation();
  }
  return generation;
}

void FlyMonDataPlane::clear_registers() {
  if (pool_ != nullptr) pool_->discard_shards();
  for (CmuGroup& g : groups_) {
    for (unsigned i = 0; i < g.num_cmus(); ++i) g.cmu(i).clear_register();
  }
}

void FlyMonDataPlane::enable_parallel(unsigned num_workers) {
  disable_parallel();
  pool_ = std::make_unique<exec::WorkerPool>(*this, num_workers, *registry_);
}

void FlyMonDataPlane::disable_parallel() {
  if (pool_ == nullptr) return;
  pool_->quiesce_and_merge();
  pool_.reset();
}

unsigned FlyMonDataPlane::parallel_workers() const noexcept {
  return pool_ != nullptr ? pool_->num_workers() : 0;
}

void FlyMonDataPlane::merge_shards() {
  if (pool_ != nullptr) pool_->quiesce_and_merge();
}

FlyMonDataPlane::DrainStats FlyMonDataPlane::drain(ingest::PacketSource& source) {
  trace::Span span("ingest.drain");
  DrainStats stats;
  // One pool job per drained batch: size it kBatchChunk x executors x 8 so
  // the per-job submit/claim overhead amortises to the batched path's
  // (the streaming-vs-batched throughput gate in CI depends on this).
  const std::size_t executors = std::max(1u, parallel_workers());
  std::vector<Packet> buf(exec::kBatchChunk * executors * 8);
  ingest::for_each_batch(source, buf, [&](std::span<const Packet> pkts) {
    stats.last_generation = process_batch(pkts);
    stats.packets += pkts.size();
    ++stats.batches;
  }, {});
  span.set_arg(stats.packets);
  return stats;
}

exec::ParallelStats FlyMonDataPlane::parallel_stats() const {
  return pool_ != nullptr ? pool_->stats() : exec::ParallelStats{};
}

void collect_dataplane_telemetry(const FlyMonDataPlane& dp,
                                 telemetry::Registry& registry) {
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    const CmuGroup& grp = dp.group(g);
    unsigned configured = 0;
    for (unsigned u = 0; u < grp.compression().num_units(); ++u) {
      if (grp.compression().spec_of(u)) ++configured;
    }
    registry.gauge("flymon_group_hash_units_configured",
                   {{"group", std::to_string(g)}})
        .set(configured);
    for (unsigned c = 0; c < grp.num_cmus(); ++c) {
      const telemetry::Labels labels = {{"group", std::to_string(g)},
                                        {"cmu", std::to_string(c)}};
      registry.gauge("flymon_cmu_register_occupancy", labels)
          .set(grp.cmu(c).register_occupancy());
      registry.gauge("flymon_cmu_tasks_installed", labels)
          .set(static_cast<double>(grp.cmu(c).entries().size()));
    }
  }
  registry.gauge("flymon_dataplane_groups").set(dp.num_groups());
}

void collect_dataplane_telemetry(FlyMonDataPlane& dp,
                                 telemetry::Registry& registry) {
  dp.merge_shards();
  collect_dataplane_telemetry(static_cast<const FlyMonDataPlane&>(dp),
                              registry);
}

}  // namespace flymon
