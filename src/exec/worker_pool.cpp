#include "exec/worker_pool.hpp"

#include <algorithm>
#include <iterator>

#include "common/lock_witness.hpp"
#include "core/flymon_dataplane.hpp"
#include "trace/span.hpp"
#include "trace/stage_profiler.hpp"

// The acquisition-order facts the annotations above establish, registered
// for the `concur` lock-order analyzer: everything acquired while a batch
// or fence holds submit_mu_ (job hand-off, completion wait, plan-cell load,
// telemetry handle caching, trace-record publication).  The runtime lock
// witness must only ever observe these edges in this orientation.
FLYMON_DECLARE_LOCK_ORDER("exec.submit_mu", "exec.job_mu");
FLYMON_DECLARE_LOCK_ORDER("exec.submit_mu", "exec.done_mu");
FLYMON_DECLARE_LOCK_ORDER("exec.submit_mu", "exec.plan_cell");
FLYMON_DECLARE_LOCK_ORDER("exec.submit_mu", "telemetry.registry");
FLYMON_DECLARE_LOCK_ORDER("exec.submit_mu", "trace.spans");
FLYMON_DECLARE_LOCK_ORDER("exec.submit_mu", "telemetry.tracer");

namespace flymon::exec {

WorkerPool::WorkerPool(FlyMonDataPlane& dp, unsigned num_workers,
                       telemetry::Registry& registry)
    : dp_(&dp), num_executors_(std::max(1u, num_workers)) {
  bind_telemetry(registry);
  workers_.reserve(num_executors_);
  for (unsigned i = 0; i < num_executors_; ++i) {
    workers_.push_back(std::make_unique<Worker>(dp));
  }
  threads_.reserve(num_executors_ - 1);
  for (unsigned i = 0; i + 1 < num_executors_; ++i) {
    threads_.emplace_back([this, i] { worker_main(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    common::MutexLock lk(job_mu_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

std::size_t WorkerPool::run(std::shared_ptr<const ExecPlan> plan,
                            std::span<const Packet> pkts,
                            telemetry::TraceSample sample,
                            telemetry::PacketTracer* tracer,
                            std::span<const Cell> watch) {
  // One plan per job, and publishers fence on submit_mu_, so shard deltas
  // never straddle a reconfiguration.  `sample` was taken in arrival order,
  // so the shards trace exactly the packets the sequential path would.
  auto job = std::make_shared<Job>();
  job->plan = std::move(plan);
  job->pkts = pkts;
  job->sample = sample;
  job->watch = watch;
  job->num_chunks = (pkts.size() + kBatchChunk - 1) / kBatchChunk;
  job->ctl.arm(job->num_chunks);
  unmerged_.mark();

  {
    common::MutexLock lk(job_mu_);
    job_ = job;
    ++job_seq_;
  }
  job_cv_.notify_all();

  // The caller is the last executor, on its own shard.
  run_chunks(*job, num_executors_ - 1);

  {
    common::MutexLock lk(done_mu_);
    while (!job->ctl.all_done()) done_cv_.wait(done_mu_);
  }
  {
    common::MutexLock lk(job_mu_);
    job_.reset();  // stragglers keep the Job alive via their own ref
  }

  if (tracer != nullptr) publish_records(*job, *tracer);
  const std::size_t ran = job->ctl.ran.read();
  parallel_batches_.fetch_add(1, std::memory_order_relaxed);
  chunks_.fetch_add(ran, std::memory_order_relaxed);
  return std::min(pkts.size(), ran * kBatchChunk);
}

std::uint32_t WorkerPool::sequential_value(const Job& job, std::size_t wi,
                                           const TraceFixup& f) {
  // The fixup's replica held the fold of its executor's earlier chunks.  A
  // sequential run would have read the live register folded with every
  // replica as of the packet: for each other executor, its snapshot at its
  // first chunk after the packet's (claims only ascend), or its final value.
  const ExecPlan& plan = *job.plan;
  std::uint32_t v = plan.live_register(f.cell.cmu)->load_relaxed(f.cell.addr);
  const auto regions = plan.merge_regions();
  const auto r = std::find_if(
      regions.begin(), regions.end(), [&](const MergeRegion& m) {
        return m.cmu == f.cell.cmu && f.cell.addr - m.base < m.size;
      });
  if (r == regions.end()) return v;  // no entry writes it: replicas read 0
  v = fold_cell(r->kind, v, f.cur, r->value_mask);
  const auto at = static_cast<std::size_t>(
      std::lower_bound(job.watch.begin(), job.watch.end(), f.cell) -
      job.watch.begin());
  const std::size_t chunk = (f.seq - job.sample.first_seq) / kBatchChunk;
  for (std::size_t wj = 0; wj < workers_.size(); ++wj) {
    if (wj == wi) continue;
    Worker& o = *workers_[wj];
    const auto next =
        std::upper_bound(o.snap_chunks.begin(), o.snap_chunks.end(), chunk);
    const std::uint32_t ov =
        next == o.snap_chunks.end()
            ? o.shard.binding().regs[f.cell.cmu]->load_relaxed(f.cell.addr)
            : o.snaps[static_cast<std::size_t>(next - o.snap_chunks.begin()) *
                          job.watch.size() +
                      at];
    v = fold_cell(r->kind, v, ov, r->value_mask);
  }
  return v;
}

void WorkerPool::publish_records(const Job& job,
                                 telemetry::PacketTracer& tracer) {
  // Each executor's records are in seq order per chunk, but chunks
  // interleave across executors.  The job's completion count ordered every
  // executor's writes before this read.
  std::vector<telemetry::TraceRecord> recs;
  for (auto& w : workers_) {
    std::move(w->scratch.records.begin(), w->scratch.records.end(),
              std::back_inserter(recs));
    w->scratch.records.clear();
  }
  std::sort(recs.begin(), recs.end(),
            [](const telemetry::TraceRecord& a,
               const telemetry::TraceRecord& b) { return a.seq < b.seq; });
  for (std::size_t wi = 0; wi < workers_.size(); ++wi) {
    for (const TraceFixup& f : workers_[wi]->scratch.fixups) {
      const auto rec = std::lower_bound(
          recs.begin(), recs.end(), f.seq,
          [](const telemetry::TraceRecord& r, std::uint64_t seq) {
            return r.seq < seq;
          });
      rec->steps[f.step].result = job.plan->step_result(
          f.entry, sequential_value(job, wi, f), f.p1, f.p2);
    }
  }
  for (auto& w : workers_) {
    w->scratch.fixups.clear();
    w->snap_chunks.clear();
    w->snaps.clear();
  }
  for (telemetry::TraceRecord& r : recs) tracer.publish(std::move(r));
}

void WorkerPool::worker_main(std::size_t shard_idx) {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      common::MutexLock lk(job_mu_);
      while (!stop_ && job_seq_ == seen) job_cv_.wait(job_mu_);
      if (stop_) return;
      seen = job_seq_;
      job = job_;
    }
    if (job != nullptr) run_chunks(*job, shard_idx);
  }
}

void WorkerPool::run_chunks(Job& job, std::size_t shard_idx) {
  Worker& w = *workers_[shard_idx];
  const ShardBinding binding = w.shard.binding();
  trace::StageProfiler& prof = trace::StageProfiler::global();
  const bool profiled = prof.enabled();
  for (;;) {
    const std::uint64_t t0 = profiled ? trace::now_cycles() : 0;
    const std::size_t i = job.ctl.claim();
    if (i >= job.num_chunks) return;  // nothing claimed: no completion debt
    const std::size_t begin = i * kBatchChunk;
    const std::size_t len = std::min(kBatchChunk, job.pkts.size() - begin);
    // A traced job records the replica's traced cells as of this chunk.
    if (!job.watch.empty()) {
      w.snap_chunks.push_back(i);
      for (const Cell& cell : job.watch) {
        w.snaps.push_back(binding.regs[cell.cmu]->load_relaxed(cell.addr));
      }
    }
    const std::uint64_t t1 = profiled ? trace::now_cycles() : 0;
    {
      trace::Span span("exec.chunk", job.plan->generation());
      job.plan->run_batch(job.pkts.subspan(begin, len), w.scratch,
                          job.sample.at(begin), &binding);
    }
    if (profiled) {
      const std::uint64_t t2 = trace::now_cycles();
      prof.record(trace::Stage::kClaim, t1 - t0, 1);
      prof.record(trace::Stage::kExecute, t2 - t1, len);
    }
    w.shard.mark_dirty();
    // ctl.complete() releases this executor's shard writes to whoever
    // observes the count hit zero (see protocol.hpp for the contract).
    bool last = job.ctl.complete();
    // A control thread waiting for submit_mu_ cuts the job at this seam.
    const bool cut = control_.any();
    if (cut) last = job.ctl.cancel() || last;
    if (last) {
      common::MutexLock lk(done_mu_);
      done_cv_.notify_all();
    }
    if (cut) return;
  }
}

void WorkerPool::quiesce_and_merge() {
  // Every controller query lands here.  A batch that happens before this
  // call set the flag, and only a fold or discard after that batch clears
  // it: a clear flag means its deltas are in the live registers.
  if (!unmerged_.pending()) return;
  ControlLock submit(control_, submit_mu_);
  merge_locked();
}

void WorkerPool::discard_shards() {
  if (!unmerged_.pending()) return;
  ControlLock submit(control_, submit_mu_);
  // Under submit_mu_ no publish can intervene, so the plan merges every
  // region a dirty shard holds deltas in (the fencing invariant) and its
  // merge regions bound them.
  const std::shared_ptr<const ExecPlan> plan = dp_->current_plan();
  for (auto& w : workers_) w->shard.discard(*plan);
  unmerged_.clear();
}

void WorkerPool::merge_locked() {
  trace::Span span("exec.merge_shards");
  trace::StageProfiler& prof = trace::StageProfiler::global();
  const bool profiled = prof.enabled();
  const std::uint64_t t0 = trace::monotonic_now_ns();
  const std::uint64_t c0 = profiled ? trace::now_cycles() : 0;
  std::shared_ptr<const ExecPlan> plan = dp_->current_plan();
  std::vector<RegisterShard*> shards;
  shards.reserve(workers_.size());
  for (auto& w : workers_) shards.push_back(&w->shard);
  // The fold itself is the shared protocol core (exercised under the
  // model checker's fence invariants); see protocol.hpp.
  const std::size_t folded = fold_dirty_shards(
      std::span<RegisterShard* const>(shards), *plan, unmerged_);
  const bool any = folded > 0;
  if (any) {
    merges_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t dt = trace::monotonic_now_ns() - t0;
    shard_merge_us_->observe(static_cast<double>(dt) / 1000.0);
    if (profiled) {
      prof.record(trace::Stage::kMerge, trace::now_cycles() - c0, folded);
    }
  }
}

WorkerPool::Fence::Fence(WorkerPool& pool) : pool_(pool) {
  trace::Span span("exec.fence");
  pool_.lock_for_fence();
  pool_.merge_locked();
}

WorkerPool::Fence::Fence(WorkerPool& pool,
                         std::span<const MergeRegion> dropped)
    : pool_(pool) {
  trace::Span span("exec.fence");
  pool_.lock_for_fence();
  // The deltas outside `dropped` stay, so the flag stays set.
  const std::shared_ptr<const ExecPlan> plan = pool_.dp_->current_plan();
  for (auto& w : pool_.workers_) {
    if (!w->shard.dirty()) continue;
    w->shard.discard(dropped);
    w->shard.flush_counters(*plan);
  }
}

WorkerPool::Fence::~Fence() { pool_.submit_mu_.unlock(); }

void WorkerPool::lock_for_fence() {
  const std::uint64_t t0 = trace::monotonic_now_ns();
  control_.lock(submit_mu_);
  fence_wait_us_->observe(
      static_cast<double>(trace::monotonic_now_ns() - t0) / 1000.0);
}

void WorkerPool::count_fallback(const ExecPlan& plan) {
  fallbacks_.fetch_add(1, std::memory_order_relaxed);
  fallback_counter_->inc();
  for (MergeBlockerKind k : plan.merge_blocker_kinds()) {
    blocker_counters_[static_cast<std::size_t>(k)]->inc();
  }
}

void WorkerPool::count_preemption() {
  preemptions_.fetch_add(1, std::memory_order_relaxed);
  preemption_counter_->inc();
}

void WorkerPool::bind_telemetry(telemetry::Registry& registry) {
  ControlLock submit(control_, submit_mu_);
  fallback_counter_ = &registry.counter("flymon_sharded_fallback_total",
                                        {{"reason", "unmergeable"}});
  for (std::size_t i = 0; i < 4; ++i) {
    blocker_counters_[i] = &registry.counter(
        "flymon_sharded_merge_blocker_total",
        {{"kind", to_string(static_cast<MergeBlockerKind>(i))}});
  }
  preemption_counter_ = &registry.counter("flymon_sharded_preemptions_total");
  // 0.25us .. ~4s, same spacing as the span-duration histograms.
  const auto bounds = telemetry::Histogram::exponential_bounds(0.25, 4.0, 17);
  fence_wait_us_ = &registry.histogram("flymon_fence_wait_us", {}, bounds);
  shard_merge_us_ = &registry.histogram("flymon_shard_merge_us", {}, bounds);
}

ParallelStats WorkerPool::stats() const noexcept {
  ParallelStats s;
  s.parallel_batches = parallel_batches_.load(std::memory_order_relaxed);
  s.chunks = chunks_.load(std::memory_order_relaxed);
  s.merges = merges_.load(std::memory_order_relaxed);
  s.preemptions = preemptions_.load(std::memory_order_relaxed);
  s.fallback_batches = fallbacks_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace flymon::exec
