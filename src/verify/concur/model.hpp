// The bounded model of FlyMon's hot reconfiguration protocol, explored by
// the deterministic scheduler (sim.hpp): one publisher (compile + validate,
// then a preempting fence, full or scoped, + RCU publish), one submitter
// plus N pool workers (job hand-off, chunk claim, shard writes,
// completion, the cut a waiting fence causes at a chunk seam, and
// optionally a lock-free-when-clean query after each batch), and one
// collector (the span-collector / current_plan() observer class of
// threads, which read the published plan with no pool lock held).
//
// The protocol cores are NOT re-implemented here: the model instantiates
// the exact templates the data plane ships — exec::BasicPlanCell<SimSync>,
// exec::JobControl<SimSync>, exec::ControlWaiters<SimSync>,
// exec::UnmergedDeltas<SimSync>, exec::fold_dirty_shards — so every
// verdict is about the shipped publish/claim/complete/cancel/fold code
// (protocol.hpp).
//
// Checked invariants (DESIGN.md §14 maps each to the code it guards):
//   I1  no torn plan observation — any observer sees a whole snapshot;
//   I2  published generation is monotone from every observer's view;
//   I3  a shard never carries deltas across a publish that moves their
//       region (incompatible plans fold first; compatible ones carry them
//       and flush only counter deltas), and each dirty shard is folded
//       exactly once, under a plan that merges its region like the plan
//       its deltas were produced under (never discarded on the publish
//       path);
//   I4  delta conservation — every produced counter delta is flushed and
//       every register delta folded into the live register, and a query
//       after a batch (the flag check, then a fold only when it is set)
//       reads every delta of that batch;
//   I5  a rejected plan is never stored, so nobody observes it, and the
//       previous plan keeps serving through a rejection; the cell starts
//       with the construction-time plan (generation 0), so every batch
//       and observer finds a plan;
//   I6  no data race on any shard or job field (vector-clock checked);
//   I7  no deadlock and no lost wakeup (structural, from the scheduler);
//   I8  every packet of a batch runs exactly once however often fences
//       preempt it, and every job runs all its chunks under one plan.
//
// Seeded mutations weaken one protocol line each; the self-test proves
// every one is caught by the model checker or the lock-order analyzer.
#pragma once

#include <string>
#include <vector>

#include "verify/concur/sim.hpp"

namespace flymon::verify::concur {

/// Seeded concurrency bugs.  Each names the protocol line it weakens.
enum class Mutation {
  kNone = 0,
  /// Fence publishes a plan that moves a region without folding dirty
  /// shards first.
  kDroppedFenceFold,
  /// Publisher RCU-stores the candidate before the gate has accepted it
  /// (and restores the previous plan on a rejection).
  kPublishBeforeValidate,
  /// Fence discards (clears) dirty shards instead of merging them.
  kMergeAfterClear,
  /// A worker acquires done_mu then submit_mu (inverts the declared
  /// submit_mu -> done_mu order).
  kInvertedLockOrder,
  /// JobControl::complete()'s acq_rel fetch_sub weakened to relaxed.
  kRelaxedCompletion,
  /// Job payload written after the job is published to workers.
  kRelaxedJobPublish,
  /// Plan published as two plain stores, bypassing the RCU cell's mutex.
  kTornPublish,
  /// Fence folds every shard a second time (exactly-once violation).
  kDoubleFold,
  /// The last executor skips the done_cv notify (lost wakeup).
  kDroppedDoneNotify,
  /// JobControl::cancel() retires the last claimed chunk with the
  /// unclaimed ones, so the continuation runs it a second time.
  kCutDropsClaimedChunk,
  /// JobControl::cancel() stops the claims but never retires the
  /// unclaimed chunks from the completion count (deadlock).
  kCancelNeverRetires,
  /// The full fence clears the unmerged-deltas flag before it folds, so a
  /// lock-free query can read the live register mid-fold.
  kClearedBeforeFold,
  /// A publish whose plan moves a region carries the shard deltas anyway
  /// (the scoped path taken without the region-compatibility check).
  kScopedAcrossMovedRegion,
};

const char* to_string(Mutation m) noexcept;
const char* mutation_description(Mutation m) noexcept;
/// All seeded mutations (excluding kNone).
std::vector<Mutation> all_mutations();

/// Model bounds.  Executor count is workers + 1 (the submitter claims
/// chunks too, mirroring WorkerPool); total simulated threads are
/// workers + 3 (submitter, publisher, collector) when the collector runs.
struct ModelConfig {
  int workers = 1;        ///< spawned pool workers
  int publishes = 2;      ///< reconfigurations by the publisher
  int batches = 2;        ///< jobs submitted
  int chunks = 2;         ///< chunks per job
  bool collector = true;  ///< run the lock-free plan observer thread
  bool reject_last = false; ///< the gate rejects the last candidate
  /// Bit p set: publish p moves a region a shard can hold deltas in, so it
  /// must fold (full); clear: it carries them (scoped).  The first publish
  /// replaces the empty plan, so only later ones can meet dirty shards.
  unsigned moved_regions = 0b10;
  bool query = false;     ///< the submitter queries after every batch
  Mutation mutation = Mutation::kNone;
};

/// The acceptance-gate scenario: 2 workers x 2 publishes with a preempting
/// fence and one 2-chunk batch — sized so CI explores it exhaustively in
/// well under 60 s (see clean_acceptance_config()).
ModelConfig clean_acceptance_config();

/// The smallest scenario known to manifest `m` (used by the self-test so
/// every mutation run stays cheap).  kNone returns the acceptance config.
ModelConfig scenario_for(Mutation m);

/// Explore every inequivalent interleaving of the configured scenario.
ExploreResult check_protocol(const ModelConfig& cfg,
                             const ExploreOptions& opts);

}  // namespace flymon::verify::concur
