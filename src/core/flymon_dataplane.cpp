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
  bind_telemetry(telemetry::Registry::global());
}

FlyMonDataPlane::~FlyMonDataPlane() = default;

void FlyMonDataPlane::bind_telemetry(telemetry::Registry& registry) {
  registry_ = &registry;
  packets_counter_ = &registry.counter("flymon_packets_total");
  for (CmuGroup& g : groups_) g.bind_telemetry(registry);
  if (pool_ != nullptr) pool_->bind_telemetry(&registry);
  // A published plan caches counter handles: recompile it against the new
  // registry so compiled execution keeps feeding the bound counters.
  if (plan_.load() != nullptr) republish_plan();
}

std::uint64_t FlyMonDataPlane::republish_plan(
    std::span<const exec::EntryOwnership> owners) {
  trace::Span span("exec.publish");
  common::MutexLock publish(publish_mu_);
  // Fence the pool across compile+publish: block submissions and fold
  // outstanding shard deltas under the OLD plan, so no shard ever holds
  // deltas produced under a plan that is no longer the merge target.
  std::optional<exec::WorkerPool::Fence> fence;
  if (pool_ != nullptr) fence.emplace(*pool_);
  auto plan = exec::PlanCompiler::compile(*this, owners, ++next_generation_);
  const std::uint64_t generation = plan->generation();
  if (validator_) {
    std::string veto = validator_(*this, *plan);
    if (!veto.empty()) {
      // Refuse the miscompiled plan AND the previously published one (it
      // describes a deployment that no longer exists): the interpreted
      // path — the semantic ground truth the validator compared against —
      // serves traffic until a clean compile publishes.
      last_publish_veto_ = std::move(veto);
      plan_.store(nullptr);
      span.set_arg(0);
      trace::instant("exec.plan_vetoed", generation);
      return 0;
    }
    last_publish_veto_.clear();
  }
  plan_.store_if_newer(std::move(plan));
  span.set_arg(generation);
  trace::instant("exec.plan_published", generation);
  return generation;
}

std::uint64_t FlyMonDataPlane::republish_plan() {
  const auto cur = plan_.load();
  return republish_plan(cur != nullptr
                            ? std::span<const exec::EntryOwnership>(cur->ownership())
                            : std::span<const exec::EntryOwnership>{});
}

void FlyMonDataPlane::unpublish_plan() noexcept {
  trace::Span span("exec.unpublish");
  common::MutexLock publish(publish_mu_);
  // Merge under the plan the deltas belong to before it goes away.
  std::optional<exec::WorkerPool::Fence> fence;
  if (pool_ != nullptr) fence.emplace(*pool_);
  plan_.store(nullptr);
}

void FlyMonDataPlane::set_plan_validator(PlanValidator validator) {
  common::MutexLock publish(publish_mu_);
  validator_ = std::move(validator);
  last_publish_veto_.clear();
}

std::string FlyMonDataPlane::last_publish_veto() const {
  common::MutexLock publish(publish_mu_);
  return last_publish_veto_;
}

std::shared_ptr<const exec::ExecPlan> FlyMonDataPlane::current_plan() const noexcept {
  return plan_.load();
}

std::uint64_t FlyMonDataPlane::plan_generation() const noexcept {
  const auto plan = plan_.load();
  return plan != nullptr ? plan->generation() : 0;
}

void FlyMonDataPlane::interpret(const Packet& pkt,
                                telemetry::TraceRecord* trace) {
  PhvContext ctx;
  ctx.trace = trace;
  for (CmuGroup& g : groups_) g.process(pkt, ctx);
}

void FlyMonDataPlane::run_plan(const exec::ExecPlan& plan,
                               std::span<const Packet> pkts,
                               telemetry::TraceSample sample,
                               telemetry::PacketTracer* tracer) {
  // Bounded chunks keep the scratch (hash lanes, chain channels) hot in
  // cache for arbitrarily long traces.  Same size as the sharded pool's
  // work-queue chunk, so the two paths process equal-sized units of work.
  for (std::size_t off = 0; off < pkts.size(); off += exec::kBatchChunk) {
    plan.run_batch(
        pkts.subspan(off, std::min(exec::kBatchChunk, pkts.size() - off)),
        *scratch_, sample.at(off));
  }
  if (tracer != nullptr) {
    for (telemetry::TraceRecord& rec : scratch_->records) {
      tracer->publish(std::move(rec));
    }
    scratch_->records.clear();
  }
}

std::uint64_t FlyMonDataPlane::process_batch(std::span<const Packet> pkts) {
  if (pkts.empty()) return plan_generation();
  const std::uint64_t generation =
      pool_ != nullptr ? process_pooled(*pool_, pkts)
                       : run_sequential(plan_.load().get(), pkts);
  packets_.fetch_add(pkts.size(), std::memory_order_relaxed);
  packets_counter_->inc(pkts.size());
  return generation;
}

std::uint64_t FlyMonDataPlane::process_pooled(exec::WorkerPool& pool,
                                              std::span<const Packet> pkts) {
  // Hold the submission lock for the whole batch: a fence then never
  // folds shards into live cells this batch is writing.
  exec::WorkerPool::Submission submit(pool);
  std::shared_ptr<const exec::ExecPlan> plan = plan_.load();
  if (plan == nullptr || !plan->shard_mergeable()) {
    pool.count_fallback(plan.get());
    return run_sequential(plan.get(), pkts);
  }
  telemetry::PacketTracer* const tracer = this->tracer();
  pool.run(plan, pkts,
           tracer != nullptr ? tracer->sample_batch(pkts.size())
                             : telemetry::TraceSample{},
           tracer);
  return plan->generation();
}

std::uint64_t FlyMonDataPlane::run_sequential(const exec::ExecPlan* plan,
                                              std::span<const Packet> pkts) {
  telemetry::PacketTracer* const tracer = this->tracer();
  const telemetry::TraceSample sample =
      tracer != nullptr ? tracer->sample_batch(pkts.size())
                        : telemetry::TraceSample{};
  if (plan != nullptr) {
    run_plan(*plan, pkts, sample, tracer);
    return plan->generation();
  }
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (!sample.traced(i)) {
      interpret(pkts[i], nullptr);
      continue;
    }
    auto rec = telemetry::TraceRecord::start(sample.first_seq + i, pkts[i]);
    interpret(pkts[i], &rec);
    tracer->publish(std::move(rec));
  }
  return 0;
}

void FlyMonDataPlane::clear_registers() {
  if (pool_ != nullptr) pool_->discard_shards();
  for (CmuGroup& g : groups_) {
    for (unsigned i = 0; i < g.num_cmus(); ++i) g.cmu(i).clear_register();
  }
}

void FlyMonDataPlane::enable_parallel(unsigned num_workers) {
  disable_parallel();
  pool_ = std::make_unique<exec::WorkerPool>(*this, num_workers);
  if (registry_ != nullptr) pool_->bind_telemetry(registry_);
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
