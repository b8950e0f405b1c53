#include "verify/concur/model.hpp"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/protocol.hpp"

namespace flymon::verify::concur {

namespace {

/// The plan stand-in: generation + a "miscompiled" flag the gate rejects
/// on + its region layout (two plans with the same layout merge every
/// region a shard can hold deltas in alike, so a publish between them may
/// carry deltas).  Immutable after construction; publication order is
/// what the model probes, so the fields need no instrumentation of their
/// own (the kTornPublish mutation demonstrates tearing through dedicated
/// vars).  Generation 0 is the construction-time plan, the only one with
/// no entries.
struct ModelPlan {
  ModelPlan(std::uint64_t g, bool b, std::uint64_t l)
      : gen(g), bad(b), layout(l) {}
  std::uint64_t gen;
  bool bad;
  std::uint64_t layout;
  std::uint64_t generation() const noexcept { return gen; }
  bool empty() const noexcept { return gen == 0; }
};

using SimPlanCell = exec::BasicPlanCell<SimSync, const ModelPlan>;
using SimJobControl = exec::JobControl<SimSync>;
using SimControlWaiters = exec::ControlWaiters<SimSync>;
using SimUnmerged = exec::UnmergedDeltas<SimSync>;

/// Ghost accounting: plain fields on purpose — they are the *spec*, not
/// part of the modelled program, so they must not add happens-before or
/// race reports of their own (cooperative scheduling keeps them safe).
struct Ghost {
  std::uint64_t produced = 0;
  std::uint64_t merged = 0;
  std::uint64_t discarded = 0;
  std::uint64_t serving = 0;  ///< generation of the stored plan
  /// Per job: its batch, its first chunk within the batch, its plan.
  struct Job {
    int batch = 0;
    std::size_t base = 0;
    std::uint64_t gen = 0;
    std::uint64_t layout = 0;
  };
  std::vector<Job> jobs;
  std::vector<int> runs;  ///< per chunk of every batch: times it ran
};

/// The per-executor shard: race-checked register and counter deltas,
/// dirty state, and the region layout its register deltas were produced
/// under.  Carrying register deltas across a publish that moved their
/// region breaks the fencing invariant (I3); counter deltas are flushed at
/// every publish.  Folded register deltas land in `live`, the register a
/// query reads.
class ModelShard {
 public:
  ModelShard(Ghost& g, sim::var<std::uint64_t>& live)
      : ghost_(&g), live_(&live) {}

  bool dirty() const { return dirty_.read(); }

  void merge_into(const ModelPlan& plan) {
    sim::check(dirty_.read(), "clean shard folded (fold is not exactly-once)");
    sim::check(layout_.read() == plan.layout,
               "shard folded under a plan that merges its region unlike "
               "the plan its deltas were produced under");
    live_->write(live_->read() + cells_.read());
    cells_.write(0);
    flush_counters();
    dirty_.write(false);
  }

  /// The scoped fence: the replica cells the publish zeroes are dropped
  /// (their deltas are not modelled), the counter deltas are flushed, and
  /// the register deltas stay.
  void drop_zeroed() { flush_counters(); }

  void discard() {
    ghost_->discarded += counters_.read();
    counters_.write(0);
    cells_.write(0);
    dirty_.write(false);
  }

  /// One chunk's worth of register and counter deltas, produced under a
  /// plan with region layout `layout`.
  void produce(std::uint64_t layout) {
    if (dirty_.read()) {
      sim::check(layout_.read() == layout,
                 "shard carries deltas across a publish that moved their "
                 "region (fence fold missing)");
    }
    cells_.write(cells_.read() + 1);
    counters_.write(counters_.read() + 1);
    layout_.write(layout);
    dirty_.write(true);
    ghost_->produced += 1;
  }

 private:
  void flush_counters() {
    ghost_->merged += counters_.read();
    counters_.write(0);
  }

  sim::var<std::uint64_t> cells_{"shard.cells", 0};
  sim::var<std::uint64_t> counters_{"shard.counters", 0};
  sim::var<std::uint64_t> layout_{"shard.layout", 0};
  sim::var<bool> dirty_{"shard.dirty", false};
  Ghost* ghost_;
  sim::var<std::uint64_t>* live_;
};

/// All shared state of one execution, rebuilt fresh per run on the body
/// fiber's stack.  Mutex names match the production capabilities so the
/// model's acquisitions land in the same lock-order witness graph.
struct Model {
  explicit Model(const ModelConfig& c) : cfg(c) {
    const int executors = cfg.workers + 1;
    shards.reserve(static_cast<std::size_t>(executors));
    for (int i = 0; i < executors; ++i) {
      shards.push_back(std::make_unique<ModelShard>(ghost, live));
    }
    for (auto& s : shards) shard_ptrs.push_back(s.get());
    // A batch preempted after every chunk runs as one job per chunk.
    const int max_jobs = cfg.batches * cfg.chunks;
    ctls.reserve(static_cast<std::size_t>(max_jobs));
    for (int i = 0; i < max_jobs; ++i) {
      ctls.push_back(std::make_unique<SimJobControl>());
    }
    ghost.jobs.resize(static_cast<std::size_t>(max_jobs));
    ghost.runs.assign(static_cast<std::size_t>(cfg.batches * cfg.chunks), 0);
    // The data plane publishes the empty deployment's plan at construction.
    cell.store(std::make_shared<const ModelPlan>(0, false, 0));
  }

  const ModelConfig cfg;
  Ghost ghost;
  /// The live register: written by folds, read by the submitter's queries.
  sim::var<std::uint64_t> live{"reg.live", 0};

  SimPlanCell cell{"exec.plan_cell"};
  sim::mutex publish_mu{"core.publish_mu"};
  sim::mutex submit_mu{"exec.submit_mu"};
  /// The fence announces itself here while it waits for submit_mu.
  SimControlWaiters control;
  /// Set by each job before it runs, cleared after every fold.
  SimUnmerged unmerged;
  sim::mutex job_mu{"exec.job_mu"};
  sim::condvar job_cv{"exec.job_cv"};
  sim::mutex done_mu{"exec.done_mu"};
  sim::condvar done_cv{"exec.done_cv"};

  // Job hand-off state (guarded by job_mu, like WorkerPool).  One
  // JobControl per job mirrors the real pool's fresh Job allocation — a
  // straggler's late claim() must hit the OLD job's cursor.
  sim::var<std::uint64_t> job_seq{"job.seq", 0};
  sim::var<bool> stop{"job.stop", false};
  /// A job field read by every executor per chunk; the normal path
  /// initialises it before publishing the job (kRelaxedJobPublish flips
  /// that order).
  sim::var<std::uint64_t> job_payload{"job.payload", 0};

  /// kTornPublish's two-word mirror of the published generation, written
  /// without the RCU cell's mutex.
  sim::var<std::uint64_t> torn_lo{"plan.torn_lo", 0};
  sim::var<std::uint64_t> torn_hi{"plan.torn_hi", 0};

  std::vector<std::unique_ptr<SimJobControl>> ctls;
  std::vector<std::unique_ptr<ModelShard>> shards;  ///< [0] = submitter
  std::vector<ModelShard*> shard_ptrs;
};

/// Mutated JobControl::cancel(): kCutDropsClaimedChunk retires the last
/// claimed chunk with the unclaimed ones; kCancelNeverRetires stops the
/// claims but never takes the unclaimed chunks off the completion count.
bool mutated_cancel(Model& m, SimJobControl& ctl) {
  const std::size_t at = ctl.next.exchange(ctl.chunks, std::memory_order_relaxed);
  if (at >= ctl.chunks) return false;
  if (m.cfg.mutation == Mutation::kCancelNeverRetires) {
    ctl.ran.write(at);
    return false;
  }
  const std::size_t cut = at - 1;  // the canceller ran a chunk, so at >= 1
  ctl.ran.write(cut);
  const std::size_t retired = ctl.chunks - cut;
  return ctl.remaining.fetch_sub(retired, std::memory_order_acq_rel) == retired;
}

/// The executor loop shared by the submitter and every worker — mirrors
/// WorkerPool::run_chunks line for line against JobControl.
void run_chunks(Model& m, std::size_t job, ModelShard& shard, bool is_worker,
                bool* probed) {
  SimJobControl& ctl = *m.ctls[job];
  const Ghost::Job& info = m.ghost.jobs[job];
  for (;;) {
    const std::size_t i = ctl.claim();
    if (i >= ctl.chunks) return;
    (void)m.job_payload.read();  // job geometry read, per chunk
    sim::check(m.ghost.serving == info.gen,
               "a job ran a chunk under a plan other than its own");
    m.ghost.runs[static_cast<std::size_t>(info.batch * m.cfg.chunks) +
                 info.base + i] += 1;
    shard.produce(info.layout);
    if (m.cfg.mutation == Mutation::kInvertedLockOrder && is_worker &&
        probed != nullptr && !*probed) {
      *probed = true;
      // Seeded inversion: done_mu then submit_mu, against the declared
      // submit_mu -> done_mu order.  Deadlocks against a submitter that
      // holds submit_mu while waiting for this very chunk's completion,
      // and feeds the inverted edge to the lock-order witness.
      m.done_mu.lock();
      m.submit_mu.lock();
      m.submit_mu.unlock();
      m.done_mu.unlock();
    }
    bool last = m.cfg.mutation == Mutation::kRelaxedCompletion
                    ? ctl.remaining.fetch_sub(
                          1, std::memory_order_relaxed) == 1
                    : ctl.complete();
    const bool cut = m.control.any();
    if (cut) {
      const bool retired_last =
          m.cfg.mutation == Mutation::kCutDropsClaimedChunk ||
                  m.cfg.mutation == Mutation::kCancelNeverRetires
              ? mutated_cancel(m, ctl)
              : ctl.cancel();
      last = retired_last || last;
    }
    if (last && m.cfg.mutation != Mutation::kDroppedDoneNotify) {
      m.done_mu.lock();
      m.done_cv.notify_all();
      m.done_mu.unlock();
    }
    if (cut) return;
  }
}

void worker_main(Model& m, ModelShard& shard) {
  std::uint64_t seen = 0;
  bool probed = false;
  for (;;) {
    m.job_mu.lock();
    while (!m.stop.read() && m.job_seq.read() == seen) m.job_cv.wait(m.job_mu);
    if (m.stop.read()) {
      m.job_mu.unlock();
      return;
    }
    seen = m.job_seq.read();
    m.job_mu.unlock();
    run_chunks(m, static_cast<std::size_t>(seen - 1), shard,
               /*is_worker=*/true, &probed);
  }
}

void publisher_main(Model& m) {
  std::uint64_t next_gen = 0;
  std::uint64_t layout = 0;
  for (int p = 0; p < m.cfg.publishes; ++p) {
    // --- Compile + validate before the fence: traffic keeps running on the
    // published plan while the candidate is checked.
    const std::uint64_t gen = ++next_gen;
    const bool rejected = m.cfg.reject_last && p == m.cfg.publishes - 1;
    const bool moves = ((m.cfg.moved_regions >> p) & 1u) != 0;
    auto plan = std::make_shared<const ModelPlan>(gen, rejected,
                                                  layout + (moves ? 1 : 0));
    if (rejected && m.cfg.mutation != Mutation::kPublishBeforeValidate) {
      continue;  // never stored: the previous plan keeps serving (I5)
    }
    m.publish_mu.lock();
    // --- Fence: block submissions (preempting the running job at a chunk
    // seam).  A plan that merges every region like the OLD one lets the
    // shards keep their deltas (scoped); otherwise fold them all under
    // the OLD plan (full).
    m.control.lock(m.submit_mu);
    std::shared_ptr<const ModelPlan> old = m.cell.load();
    const bool scoped = plan->layout == old->layout ||
                        m.cfg.mutation == Mutation::kScopedAcrossMovedRegion;
    if (scoped) {
      for (ModelShard* s : m.shard_ptrs) {
        if (s->dirty()) s->drop_zeroed();
      }
    } else {
      if (m.cfg.mutation == Mutation::kClearedBeforeFold) {
        // seeded: a lock-free query may find the flag clear and read the
        // live register while the fold below still writes it.
        m.unmerged.clear();
      }
      switch (m.cfg.mutation) {
        case Mutation::kDroppedFenceFold:
          break;  // seeded: publish with deltas still parked in shards
        case Mutation::kMergeAfterClear:
          // seeded: "clear then merge" — the clear empties the shards, so
          // the fold below folds nothing and the deltas are gone.
          for (ModelShard* s : m.shard_ptrs) {
            if (s->dirty()) s->discard();
          }
          [[fallthrough]];
        default:
          exec::fold_dirty_shards(std::span<ModelShard* const>(m.shard_ptrs),
                                  *old, m.unmerged);
      }
      if (m.cfg.mutation == Mutation::kDoubleFold) {
        for (ModelShard* s : m.shard_ptrs) s->merge_into(*old);
      }
    }
    // --- RCU publish of the checked plan.
    if (m.cfg.mutation == Mutation::kTornPublish) {
      m.torn_lo.write(gen);
      m.torn_hi.write(gen);
    }
    m.cell.store_if_newer(plan);
    if (rejected) {
      // Seeded: the gate ran after the store, opening a window where
      // lock-free observers (the collector) see the rejected plan before
      // the rollback restores the previous one.
      m.cell.store(old);
    } else {
      m.ghost.serving = gen;
      layout = plan->layout;
    }
    m.submit_mu.unlock();
    m.publish_mu.unlock();
  }
}

/// The span-collector / current_plan() observer: reads the published plan
/// with no pool lock held, like SpanCollector::flush_to_registry callers
/// and shell status paths do.
void collector_main(Model& m) {
  std::uint64_t last_seen = 0;
  for (int k = 0; k < 2; ++k) {
    if (m.cfg.mutation == Mutation::kTornPublish) {
      const std::uint64_t lo = m.torn_lo.read();
      const std::uint64_t hi = m.torn_hi.read();
      sim::check(lo == hi, "torn plan publication observed");
    }
    std::shared_ptr<const ModelPlan> p = m.cell.load();
    sim::check(p != nullptr, "observer found no plan");
    sim::check(!p->bad, "rejected plan observed by a reader");
    sim::check(p->generation() >= last_seen,
               "observer saw the plan generation move backwards");
    last_seen = p->generation();
  }
}

/// WorkerPool::quiesce_and_merge then a readout: the flag check skips the
/// lock when every delta is folded.  Every delta so far came from this
/// thread's own batches, so the readout must see all of them.
void query(Model& m) {
  if (m.unmerged.pending()) {
    m.control.lock(m.submit_mu);
    std::shared_ptr<const ModelPlan> plan = m.cell.load();
    exec::fold_dirty_shards(std::span<ModelShard* const>(m.shard_ptrs), *plan,
                            m.unmerged);
    m.submit_mu.unlock();
  }
  sim::check(m.live.read() == m.ghost.produced,
             "query missed a delta of a batch that happens before it");
}

/// process_pooled: each batch runs as one piece per hold of submit_mu,
/// until a preempting fence stops cutting it short.  A piece under the
/// empty plan runs inline on the live registers (run_plan), stopping at
/// the first chunk seam where a control thread waits; any other piece is
/// a job across the executors.
void submitter_and_shutdown(Model& m) {
  std::uint64_t last_gen = 0;
  std::uint64_t published_jobs = 0;
  const auto chunks = static_cast<std::size_t>(m.cfg.chunks);
  for (int b = 0; b < m.cfg.batches; ++b) {
    int* const runs = &m.ghost.runs[static_cast<std::size_t>(b) * chunks];
    for (std::size_t done = 0; done < chunks;) {
      m.submit_mu.lock();
      std::shared_ptr<const ModelPlan> plan = m.cell.load();
      sim::check(plan != nullptr, "batch found no plan");
      sim::check(!plan->bad, "batch executed under a rejected plan");
      sim::check(plan->generation() >= last_gen,
                 "submitter saw the plan generation move backwards");
      last_gen = plan->generation();
      if (plan->empty()) {
        do {
          runs[done++] += 1;
        } while (done < chunks && !m.control.any());
        m.submit_mu.unlock();
        continue;
      }

      const auto job = static_cast<std::size_t>(published_jobs);
      m.ghost.jobs[job] = {b, done, plan->generation(), plan->layout};
      SimJobControl& ctl = *m.ctls[job];
      ctl.arm(chunks - done);
      m.unmerged.mark();
      if (m.cfg.mutation != Mutation::kRelaxedJobPublish) {
        m.job_payload.write(plan->generation());
      }
      m.job_mu.lock();
      m.job_seq.write(++published_jobs);
      m.job_mu.unlock();
      m.job_cv.notify_all();
      if (m.cfg.mutation == Mutation::kRelaxedJobPublish) {
        // Seeded: job field initialised after the hand-off — races every
        // worker's payload read.
        m.job_payload.write(plan->generation());
      }

      run_chunks(m, job, *m.shards[0], /*is_worker=*/false, nullptr);

      m.done_mu.lock();
      while (!ctl.all_done()) m.done_cv.wait(m.done_mu);
      m.done_mu.unlock();
      done += ctl.ran.read();
      m.submit_mu.unlock();
    }
    if (m.cfg.query) query(m);
  }
}

void model_body(const ModelConfig& cfg) {
  Model m(cfg);

  std::vector<std::unique_ptr<sim::thread>> workers;
  workers.reserve(static_cast<std::size_t>(cfg.workers));
  for (int w = 0; w < cfg.workers; ++w) {
    ModelShard& shard = *m.shards[static_cast<std::size_t>(w + 1)];
    workers.push_back(std::make_unique<sim::thread>(
        [&m, &shard] { worker_main(m, shard); }));
  }
  sim::thread publisher([&m] { publisher_main(m); });
  std::unique_ptr<sim::thread> collector;
  if (cfg.collector) {
    collector = std::make_unique<sim::thread>([&m] { collector_main(m); });
  }

  submitter_and_shutdown(m);

  m.job_mu.lock();
  m.stop.write(true);
  m.job_mu.unlock();
  m.job_cv.notify_all();
  for (auto& w : workers) w->join();
  publisher.join();
  if (collector != nullptr) collector->join();

  // Final quiesce (WorkerPool::quiesce_and_merge): fold what is left under
  // the current plan, then audit the ghost ledger.
  m.control.lock(m.submit_mu);
  {
    std::shared_ptr<const ModelPlan> plan = m.cell.load();
    exec::fold_dirty_shards(std::span<ModelShard* const>(m.shard_ptrs), *plan,
                            m.unmerged);
  }
  m.submit_mu.unlock();

  sim::check(m.ghost.discarded == 0,
             "counter deltas discarded on the publish path");
  sim::check(m.ghost.produced == m.ghost.merged,
             "counter deltas lost (produced != merged)");
  sim::check(m.live.read() == m.ghost.produced,
             "register deltas lost (produced != folded into live)");
  for (ModelShard* s : m.shard_ptrs) {
    sim::check(!s->dirty(), "shard left dirty after quiesce");
  }
  for (int runs : m.ghost.runs) {
    sim::check(runs == 1, "a packet of a preempted batch ran other than once");
  }
}

}  // namespace

const char* to_string(Mutation m) noexcept {
  switch (m) {
    case Mutation::kNone: return "none";
    case Mutation::kDroppedFenceFold: return "dropped_fence_fold";
    case Mutation::kPublishBeforeValidate: return "publish_before_validate";
    case Mutation::kMergeAfterClear: return "merge_after_clear";
    case Mutation::kInvertedLockOrder: return "inverted_lock_order";
    case Mutation::kRelaxedCompletion: return "relaxed_completion";
    case Mutation::kRelaxedJobPublish: return "relaxed_job_publish";
    case Mutation::kTornPublish: return "torn_publish";
    case Mutation::kDoubleFold: return "double_fold";
    case Mutation::kDroppedDoneNotify: return "dropped_done_notify";
    case Mutation::kCutDropsClaimedChunk: return "cut_drops_claimed_chunk";
    case Mutation::kCancelNeverRetires: return "cancel_never_retires";
    case Mutation::kClearedBeforeFold: return "cleared_before_fold";
    case Mutation::kScopedAcrossMovedRegion: return "scoped_across_moved_region";
  }
  return "?";
}

const char* mutation_description(Mutation m) noexcept {
  switch (m) {
    case Mutation::kNone:
      return "no mutation (clean protocol)";
    case Mutation::kDroppedFenceFold:
      return "fence publishes without folding dirty shards";
    case Mutation::kPublishBeforeValidate:
      return "plan RCU-stored before the validator runs";
    case Mutation::kMergeAfterClear:
      return "fence clears dirty shards instead of merging them";
    case Mutation::kInvertedLockOrder:
      return "worker acquires done_mu before submit_mu";
    case Mutation::kRelaxedCompletion:
      return "completion fetch_sub weakened from acq_rel to relaxed";
    case Mutation::kRelaxedJobPublish:
      return "job field written after the job is published";
    case Mutation::kTornPublish:
      return "plan published as two plain stores without the cell mutex";
    case Mutation::kDoubleFold:
      return "fence folds every shard twice";
    case Mutation::kDroppedDoneNotify:
      return "last executor skips the done_cv notify";
    case Mutation::kCutDropsClaimedChunk:
      return "preempting cut retires the last claimed chunk too";
    case Mutation::kCancelNeverRetires:
      return "preempting cut never retires the unclaimed chunks";
    case Mutation::kClearedBeforeFold:
      return "unmerged-deltas flag cleared before the fold it summarises";
    case Mutation::kScopedAcrossMovedRegion:
      return "publish carries shard deltas across a plan that moved their region";
  }
  return "?";
}

std::vector<Mutation> all_mutations() {
  return {
      Mutation::kDroppedFenceFold,   Mutation::kPublishBeforeValidate,
      Mutation::kMergeAfterClear,    Mutation::kInvertedLockOrder,
      Mutation::kRelaxedCompletion,  Mutation::kRelaxedJobPublish,
      Mutation::kTornPublish,        Mutation::kDoubleFold,
      Mutation::kDroppedDoneNotify,  Mutation::kCutDropsClaimedChunk,
      Mutation::kCancelNeverRetires, Mutation::kClearedBeforeFold,
      Mutation::kScopedAcrossMovedRegion,
  };
}

ModelConfig clean_acceptance_config() {
  ModelConfig cfg;
  cfg.workers = 2;
  cfg.publishes = 2;
  // One batch keeps the sleep-set-reduced state space exhaustively
  // explorable inside the CI budget (147,273 executions, ~16 s); the fence,
  // fold, cut and re-publish all occur per publish, not per batch.  The
  // collector stays out: with the preempting fence it pushes this
  // scenario past 1.7M executions.  ConcurModel's tests run it against
  // the preempting fence with one worker instead.
  cfg.batches = 1;
  cfg.chunks = 2;
  cfg.collector = false;
  cfg.reject_last = false;
  return cfg;
}

ModelConfig scenario_for(Mutation m) {
  ModelConfig cfg;
  cfg.collector = false;
  cfg.mutation = m;
  switch (m) {
    case Mutation::kNone:
      return clean_acceptance_config();
    case Mutation::kDroppedFenceFold:
      cfg.workers = 1; cfg.publishes = 2; cfg.batches = 2; cfg.chunks = 1;
      break;
    case Mutation::kPublishBeforeValidate:
      cfg.workers = 0; cfg.publishes = 1; cfg.batches = 0; cfg.chunks = 1;
      cfg.collector = true;
      cfg.reject_last = true;
      break;
    case Mutation::kMergeAfterClear:
      cfg.workers = 1; cfg.publishes = 2; cfg.batches = 1; cfg.chunks = 1;
      break;
    case Mutation::kInvertedLockOrder:
      cfg.workers = 1; cfg.publishes = 1; cfg.batches = 1; cfg.chunks = 1;
      break;
    case Mutation::kRelaxedCompletion:
      cfg.workers = 1; cfg.publishes = 2; cfg.batches = 1; cfg.chunks = 2;
      break;
    case Mutation::kRelaxedJobPublish:
      cfg.workers = 1; cfg.publishes = 1; cfg.batches = 1; cfg.chunks = 1;
      break;
    case Mutation::kTornPublish:
      cfg.workers = 0; cfg.publishes = 1; cfg.batches = 0; cfg.chunks = 1;
      cfg.collector = true;
      break;
    case Mutation::kDoubleFold:
      cfg.workers = 1; cfg.publishes = 2; cfg.batches = 1; cfg.chunks = 1;
      break;
    case Mutation::kDroppedDoneNotify:
      cfg.workers = 1; cfg.publishes = 1; cfg.batches = 1; cfg.chunks = 1;
      break;
    // The first publish gives the batch a plan; the second one preempts it.
    case Mutation::kCutDropsClaimedChunk:
      cfg.workers = 1; cfg.publishes = 2; cfg.batches = 1; cfg.chunks = 3;
      break;
    case Mutation::kCancelNeverRetires:
      cfg.workers = 0; cfg.publishes = 2; cfg.batches = 1; cfg.chunks = 2;
      break;
    // A batch under the first plan leaves deltas; the second publish moves
    // their region and folds them while the submitter queries.
    case Mutation::kClearedBeforeFold:
      cfg.workers = 0; cfg.publishes = 2; cfg.batches = 2; cfg.chunks = 1;
      cfg.query = true;
      break;
    case Mutation::kScopedAcrossMovedRegion:
      cfg.workers = 0; cfg.publishes = 2; cfg.batches = 2; cfg.chunks = 1;
      break;
  }
  return cfg;
}

ExploreResult check_protocol(const ModelConfig& cfg,
                             const ExploreOptions& opts) {
  return explore(opts, [&cfg] { model_body(cfg); });
}

}  // namespace flymon::verify::concur
