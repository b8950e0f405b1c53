// FlyMon control plane (paper §3.4): task management (define / remove /
// resize measurement tasks, compiled into runtime rules) and resource
// management (compressed-key reuse, CMU selection, buddy-allocated memory
// partitions), plus the control-plane readout/estimation for every built-in
// algorithm.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "control/deployment.hpp"
#include "core/flymon_dataplane.hpp"
#include "core/memory_partition.hpp"
#include "core/task.hpp"

namespace flymon::verify {
struct PlanOpResult;  // defined in verify/planner.hpp
struct PlanResult;
}  // namespace flymon::verify

namespace flymon::control {

/// One physical CMU used by a task row, with its register partition.
struct UnitPlacement {
  unsigned group = 0;
  unsigned cmu = 0;
  std::uint32_t phys_id = 0;  ///< task id installed in that CMU
  MemoryPartition partition{};
};

/// One independent instance ("row", d of them) of a task.  Simple
/// algorithms use one CMU per row; composite ones (SuMax(Sum),
/// MaxInterarrival, CounterBraids) chain several CMUs across groups.
struct RowPlacement {
  std::vector<UnitPlacement> units;
};

struct DeployedTask {
  std::uint32_t id = 0;
  TaskSpec spec;
  Algorithm algorithm = Algorithm::kAuto;  ///< resolved (never kAuto)
  std::uint32_t buckets = 0;               ///< quantized per-row buckets
  std::vector<RowPlacement> rows;
  DeploymentReport report;
  /// Total reconfiguration delay this public id has paid (initial deploy
  /// plus every resize/split swap).
  double cumulative_delay_ms = 0.0;
  // BeauCoup parameters resolved by the compiler.
  unsigned coupon_count = 32;
  unsigned coupon_threshold = 32;
  double coupon_probability = 0;
};

/// Point-in-time health of one deployed task (computed on demand).
struct TaskHealth {
  std::uint32_t task_id = 0;
  std::string name;
  Algorithm algorithm = Algorithm::kAuto;
  std::uint32_t buckets = 0;
  unsigned rows = 0;
  unsigned cmus_used = 0;
  unsigned table_rules = 0;
  unsigned hash_mask_rules = 0;
  double cumulative_delay_ms = 0.0;
  /// Per-row bucket saturation: non-zero cells / cells, over all of the
  /// row's unit partitions.  High saturation = collision pressure.
  std::vector<double> row_saturation;
  double max_saturation = 0.0;
};

struct DeployResult {
  bool ok = false;
  std::string error;
  std::uint32_t task_id = 0;
  DeploymentReport report;
};

/// One reconfiguration operation of a Controller::apply() / plan() batch.
/// `task_id` is a public task id, which may be one an earlier op of the
/// same batch minted.
struct PlanOp {
  enum class Kind : std::uint8_t { kAdd, kRemove, kResize, kSplit };
  Kind kind = Kind::kAdd;
  TaskSpec spec{};               ///< kAdd only
  std::uint32_t task_id = 0;     ///< kRemove / kResize / kSplit
  std::uint32_t new_buckets = 0; ///< kResize only

  static PlanOp add(TaskSpec spec);
  static PlanOp remove(std::uint32_t id);
  static PlanOp resize(std::uint32_t id, std::uint32_t new_buckets);
  static PlanOp split(std::uint32_t id);
};

/// "add \"name\"", "resize task 3 -> 8192 buckets", "split task 3", ...
std::string describe(const PlanOp& op);

class Controller {
 public:
  explicit Controller(FlyMonDataPlane& dp,
                      TranslationStrategy strategy = TranslationStrategy::kTcam,
                      AllocMode mode = AllocMode::kAccurate);

  // ---- task management interfaces (each a one-op transaction, see apply()) ----
  DeployResult add_task(const TaskSpec& spec);
  /// False for an unknown id, or when the paranoid gate rejects the
  /// candidate plan (last_verify_errors() says why).
  bool remove_task(std::uint32_t id);
  /// Reallocate a task's memory: deploy the replacement, then freeze and
  /// reclaim the old instance, as one reconfiguration (paper §6).  The public
  /// task id is preserved; measurement state starts fresh.
  DeployResult resize_task(std::uint32_t id, std::uint32_t new_buckets);

  /// Split a heavy task into two subtasks with halved filters (paper
  /// §3.1.1: e.g. SrcIP 10.0.0.0/8 -> 10.0.0.0/9 + 10.128.0.0/9), each with
  /// its own memory, reducing per-subtask hash collisions.  Both subtasks
  /// deploy before the original is reclaimed, in one reconfiguration; on
  /// failure nothing changes and `first` carries the error.
  std::pair<DeployResult, DeployResult> split_task(std::uint32_t id);

  /// The reconfiguration transaction.  Take one checkpoint; stage every op
  /// in order on the live controller (add = deploy; remove = detach +
  /// release; resize = deploy + detach + release, the replacement taking
  /// the retired id; split = two deploys + detach + release), restoring
  /// the checkpoint at the first op that fails; compile the result once;
  /// in paranoid mode verify it once, and restore on a rejection; then
  /// publish that plan once, under one pool fence that zeroes every
  /// partition the batch retired or staged (FlyMonDataPlane::publish_plan:
  /// scoped when the plans merge every other region alike, else one full
  /// fold).  Traffic sees the deployment before the batch or after it,
  /// never one in between.  The counters and each
  /// flymon_reconfig_phase_us phase get one sample per transaction
  /// (implemented in src/verify/planner.cpp with plan()).
  verify::PlanResult apply(const std::vector<PlanOp>& ops);

  const DeployedTask* task(std::uint32_t id) const noexcept;
  std::size_t num_tasks() const noexcept { return tasks_.size(); }
  std::vector<std::uint32_t> task_ids() const;

  // ---- resource management interfaces ----
  std::uint32_t free_buckets(unsigned group, unsigned cmu) const;
  AllocMode alloc_mode() const noexcept { return mode_; }
  TranslationStrategy strategy() const noexcept { return strategy_; }
  /// The buddy allocator backing (group, cmu), or nullptr when the CMU has
  /// never been allocated from.  Read-only: the static verifier audits
  /// placements against the allocator's live blocks.
  const BuddyAllocator* find_allocator(unsigned group, unsigned cmu) const noexcept;

  // ---- static verification (src/verify) ----
  /// Paranoid mode: every transaction runs one gate, every analyzer over
  /// its final state with the compiled candidate as VerifyContext::exec_plan
  /// (so the translation validator and merge prover check the plan that
  /// would be published), before the fence.  On a rejection the whole batch
  /// rolls back and fails; the previously published plan keeps serving and
  /// no counter but the failure count moves.  A batch that stages nothing
  /// (pure removals) rolls back only when the candidate plan itself is
  /// wrong; deployment findings there only report via last_verify_errors().
  /// Off by default (tests enable it); the shell toggles it with
  /// `verify paranoid on|off`.
  void set_paranoid(bool on) noexcept { paranoid_ = on; }
  bool paranoid() const noexcept { return paranoid_; }

  /// Formatted error diagnostics of the most recent paranoid check that
  /// failed (empty when the last check was clean or paranoid mode is off).
  const std::string& last_verify_errors() const noexcept { return last_verify_errors_; }

  /// Dry run: apply()'s transaction up to and including the compile, then
  /// always every analyzer on the result (paranoid or not), then the
  /// checkpoint restored instead of the plan published.  Its verdict, ids
  /// and compiled entries are the commit's; it writes no register cell,
  /// moves no counter, consumes no task id or plan generation and publishes
  /// nothing, so traffic may run throughout.
  verify::PlanResult plan(const std::vector<PlanOp>& ops);

  // ---- control-plane readout ----
  /// Frequency / Max estimate for one flow (min across rows).
  std::uint64_t query_value(std::uint32_t id, const Packet& probe) const;
  /// Existence check (Bloom filter).
  bool query_existence(std::uint32_t id, const Packet& probe) const;
  /// Max inter-arrival estimate in nanoseconds.
  std::uint64_t query_max_interarrival_ns(std::uint32_t id, const Packet& probe) const;
  /// BeauCoup: has this key's distinct count crossed the threshold?
  bool distinct_over_threshold(std::uint32_t id, const Packet& probe) const;
  /// BeauCoup: distinct estimate via coupon-collector inversion.
  double estimate_distinct(std::uint32_t id, const Packet& probe) const;
  /// HyperLogLog / LinearCounting cardinality over the whole register.
  double estimate_cardinality(std::uint32_t id) const;
  /// MRAC flow entropy (nats) and size distribution.
  double estimate_entropy(std::uint32_t id) const;
  std::map<std::uint32_t, double> estimate_size_distribution(std::uint32_t id) const;
  /// Odd Sketch (Similarity attribute): set size of one task, and the
  /// symmetric difference / Jaccard similarity of two tasks deployed with
  /// identical geometry (same CMUs and key slices, disjoint filters).
  double estimate_set_size(std::uint32_t id) const;
  double estimate_symmetric_difference(std::uint32_t a, std::uint32_t b) const;
  double estimate_jaccard(std::uint32_t a, std::uint32_t b) const;
  /// Candidate keys whose estimate crosses `threshold` (frequency-style
  /// algorithms query values; BeauCoup uses its report rule).
  std::vector<FlowKeyValue> detect_over_threshold(
      std::uint32_t id, const std::vector<FlowKeyValue>& candidates,
      std::uint64_t threshold) const;

  FlyMonDataPlane& dataplane() noexcept { return *dp_; }
  const FlyMonDataPlane& dataplane() const noexcept { return *dp_; }

  // ---- observability ----
  /// Health of one task / all tasks (bucket saturation, rules, delay).
  TaskHealth task_health(std::uint32_t id) const;
  std::vector<TaskHealth> health() const;

  /// Rebind the controller's own counters (deploys, failures, delay) and the
  /// per-phase reconfiguration latency histograms
  /// (flymon_reconfig_phase_us{phase=checkpoint|compile|validate|zero|
  /// publish}, one sample per phase an apply() transaction reaches,
  /// timed on the span clock) into `registry`.  Construction binds to
  /// telemetry::Registry::global().
  void bind_telemetry(telemetry::Registry& registry);
  telemetry::Registry& registry() const noexcept { return *registry_; }

  /// Refresh every on-demand gauge: per-task health plus the dataplane's
  /// occupancy gauges (collect_dataplane_telemetry).
  void collect_telemetry() const;

 private:
  /// Ownership labels of every installed entry, derived from tasks_ (used
  /// to tag compiled-plan entries with public task ids).
  std::vector<exec::EntryOwnership> entry_ownership() const;
  /// Everything a reconfiguration changes outside the register banks: the
  /// task table, allocators, hash-unit references and specs, every CMU's
  /// installed entries and SALU slots, the id counters and the last gate
  /// verdict.
  struct Checkpoint {
    std::map<std::uint32_t, DeployedTask> tasks;
    std::map<std::pair<unsigned, unsigned>, BuddyAllocator> allocators;
    std::map<std::pair<unsigned, unsigned>, unsigned> unit_refs;
    std::uint32_t next_id = 0, next_phys = 0, next_chain = 0;
    std::string last_verify_errors;
    std::vector<std::vector<std::optional<FlowKeySpec>>> units;  ///< [group][unit]
    std::vector<std::vector<Cmu::Staging>> cmus;                 ///< [group][cmu]
  };
  Checkpoint checkpoint() const;
  /// Put the controller and the data plane's staging state back exactly.
  /// The published plan and the register banks are not part of it.
  void restore(Checkpoint cp);

  /// What the ops of one transaction staged: every partition they retired
  /// or staged (zeroed under the publish fence) and the counters' counts.
  struct Staged {
    std::vector<UnitPlacement> zeroed;
    std::uint64_t deploys = 0, removals = 0, resizes = 0;
  };
  /// Stage one op on the live controller (see apply()): no compile, no
  /// publish, no register write.  The result names the ids the op minted
  /// (resize: the id it kept).  On a failure the op may be half done, and
  /// it may throw: the transaction's checkpoint undoes either.
  verify::PlanOpResult stage(const PlanOp& op, Staged& staged);
  /// apply() when `publish`, else plan() (src/verify/planner.cpp).
  verify::PlanResult transact(const std::vector<PlanOp>& ops, bool publish);
  /// Placement (paper §3.4).  A plain task puts its rows, one CMU each, in
  /// the first group that has a CMU for every row; a chained task puts
  /// each unit of a row in a strictly later group than the one before.
  /// Both place every unit through place_unit().  A group that cannot take
  /// the whole task is undone before the next is tried.  May throw
  /// mid-operation; the transaction then restores its checkpoint.
  DeployResult deploy(const TaskSpec& spec, std::uint32_t public_id);

  /// A task's key and parameter selectors in one group.
  struct Selectors {
    CompressedKeySelector key, param;
  };
  /// Chain channels of one chained row.
  struct ChainIds {
    std::uint32_t a = 0, b = 0;
  };
  /// Configure (or reuse) the hash units `t` reads in group `g`; the
  /// parameter shares the key's selector unless lower_entry reads it and
  /// it names another key.
  std::optional<Selectors> selectors(unsigned g, const DeployedTask& t,
                                     unsigned& mask_rules);
  /// The placement probe: unit `idx` of `t` (a plain row, or a unit of a
  /// chain) on CMU (g, c).  Skips a CMU that does not admit the task's
  /// filter, allocates the partition, lowers the entry and installs it
  /// under the next phys id.  Nothing changes when it returns nullopt.  It
  /// writes no register cell: the transaction zeroes staged partitions
  /// only when it publishes.
  std::optional<UnitPlacement> place_unit(const DeployedTask& t, unsigned g, unsigned c,
                                          unsigned idx, const Selectors& sel, ChainIds ch);
  /// The lowering table of every algorithm: unit `idx`'s stateful op,
  /// parameters, preparation and chain wiring.  False when `cmu` cannot
  /// run the unit (the Odd Sketch toggle needs the fourth SALU slot).
  static bool lower_entry(const DeployedTask& t, unsigned idx, const Selectors& sel,
                          ChainIds ch, Cmu& cmu, CmuTaskEntry& e);
  /// Uninstall `t`'s CMU entries and drop its selector references; its
  /// partitions and hash units stay until release().
  void detach(const DeployedTask& t);
  /// Free `t`'s partitions in the allocators (their cells are not
  /// touched), then clear unreferenced hash units.
  void release(DeployedTask& t);
  void undo_deployment(DeployedTask& t) { detach(t); release(t); }
  void gc_unreferenced_units();

  // Resource helpers.
  BuddyAllocator& allocator(unsigned group, unsigned cmu);
  std::optional<CompressedKeySelector> ensure_selector(unsigned group,
                                                       const FlowKeySpec& spec,
                                                       unsigned& mask_rules);
  /// Add or drop one reference to each hash unit entry `e` reads.
  void ref_units(unsigned group, const CmuTaskEntry& e, bool add);

  // Readout helpers.
  /// The live task `id` (std::out_of_range otherwise), after folding the
  /// pool's outstanding shard deltas so a readout sees every batch that
  /// happens before it: one acquire load, and no lock, when none are.
  const DeployedTask& require(std::uint32_t id) const;

  FlyMonDataPlane* dp_;
  TranslationStrategy strategy_;
  AllocMode mode_;
  bool paranoid_ = false;
  std::string last_verify_errors_;
  telemetry::Registry* registry_ = nullptr;
  telemetry::Counter* deploys_counter_ = nullptr;
  telemetry::Counter* deploy_failures_counter_ = nullptr;
  telemetry::Counter* removals_counter_ = nullptr;
  telemetry::Counter* resizes_counter_ = nullptr;
  enum Phase : unsigned { kCheckpoint, kCompile, kValidate, kZero, kPublish, kPhases };
  std::array<telemetry::Histogram*, kPhases> phase_us_{};
  std::uint32_t next_id_ = 1;
  std::uint32_t next_phys_ = 1;
  std::uint32_t next_chain_ = 1;
  std::map<std::uint32_t, DeployedTask> tasks_;
  // (group, cmu) -> buddy allocator
  std::map<std::pair<unsigned, unsigned>, BuddyAllocator> allocators_;
  // (group, unit) -> reference count of tasks using this compressed key
  std::map<std::pair<unsigned, unsigned>, unsigned> unit_refs_;
};

}  // namespace flymon::control
