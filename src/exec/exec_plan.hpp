// Compiled execution plan for the FlyMon packet path (ChameleMon-style
// hitless reconfiguration; MAFIA-style compiled measurement programs).
//
// The interpreted path re-resolves TCAM entries, hash masks and
// address-translation parameters per packet against the *mutable*
// Cmu/CompressionStage objects the controller edits.  The ExecPlan is the
// opposite: an immutable, flat, cache-friendly array of per-CMU compiled
// entries produced by the PlanCompiler from a deployment snapshot.  The
// data plane holds the current plan behind an RCU-style
// std::atomic<std::shared_ptr<const ExecPlan>>: packets acquire-load the
// pointer, the controller publishes a freshly compiled plan with a release
// store after every reconfiguration — the packet path never stalls and
// never observes a torn configuration.
//
// Registers and telemetry counters stay SHARED with the live data plane
// (the plan holds pointers, not copies), so epoch reads/clears and the
// exporters are unchanged; only the *configuration* is snapshotted.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cmu.hpp"
#include "dataplane/hash_unit.hpp"
#include "dataplane/salu.hpp"
#include "packet/exact.hpp"
#include "packet/packet.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_ring.hpp"

namespace flymon {
class FlyMonDataPlane;
}  // namespace flymon

namespace flymon::trace {
struct BatchStageSample;
}  // namespace flymon::trace

namespace flymon::exec {

/// Which controller task owns one installed (group, cmu, phys_id) entry.
/// The controller passes these labels at publish time so compiled entries
/// can be described in terms of public task ids without exec depending on
/// control-plane headers.
struct EntryOwnership {
  unsigned group = 0;
  unsigned cmu = 0;
  std::uint32_t phys_id = 0;   ///< task id installed in the CMU
  std::uint32_t task_id = 0;   ///< public controller id
  std::size_t row = 0;         ///< row index within the owning task
  std::size_t unit = 0;        ///< unit index within the row
  std::string name;            ///< task name (diagnostics only)
};

/// A lowered parameter selection: everything pre-resolved except the
/// per-packet inputs (metadata fields, hash lanes, chain channels).
struct CompiledParam {
  enum class Kind : std::uint8_t { kConst, kMeta, kKey, kChain };

  Kind kind = Kind::kConst;
  MetaField meta = MetaField::kOne;
  std::uint16_t slot_a = 0;          ///< kKey: hash-lane index (0 = zero lane)
  std::uint16_t slot_b = 0;
  std::uint8_t shift = 0;            ///< kKey: pre-resolved slice shift
  std::uint32_t mask = 0xFFFF'FFFFu; ///< kKey: pre-resolved slice mask
  std::uint32_t value = 0;           ///< kConst value / kChain dense index
};

/// One installed CMU task entry, fully lowered: filter as xor/mask pairs,
/// matched-rule key selector as lane indices, pre-shifted address
/// translation, one-hot/interval constants, and a small op-code.
struct CompiledEntry {
  // Initialization: filter match + probabilistic-execution coin.
  std::uint32_t filter_src_ip = 0;
  std::uint32_t filter_src_mask = 0;  ///< 0 = wildcard
  std::uint32_t filter_dst_ip = 0;
  std::uint32_t filter_dst_mask = 0;
  bool sampled = false;               ///< sample_probability < 1
  double sample_probability = 1.0;
  std::uint64_t sample_seed = 0;      ///< 0xC01F + phys task id
  std::uint32_t phys_id = 0;          ///< installed task id (trace records)

  // Dynamic key: XOR of two hash lanes, sliced.
  std::uint16_t key_slot_a = 0;
  std::uint16_t key_slot_b = 0;
  std::uint8_t key_shift = 0;
  std::uint32_t key_mask = 0xFFFF'FFFFu;

  // Pre-shifted address translation onto the power-of-two partition.
  std::uint8_t addr_shift = 0;
  std::uint32_t addr_mask = 0;        ///< partition.size - 1
  std::uint32_t addr_base = 0;

  CompiledParam p1, p2;

  // Preparation stage.
  PrepFn prep = PrepFn::kNone;
  std::uint16_t gate_chain = 0;       ///< dense chain index (0 reads zero)
  std::uint32_t coupon_count = 0;
  double coupon_probability = 0.0;
  double coupon_total = 0.0;          ///< probability * count, precomputed

  // Operation stage.
  dataplane::StatefulOp op = dataplane::StatefulOp::kNop;
  std::uint32_t value_mask = 0xFFFF'FFFFu;
  bool output_old_value = false;
  bool one_hot_export = false;        ///< old-value export probes one bit
  std::uint16_t chain_out = 0xFFFF;   ///< dense chain index, 0xFFFF = none
  bool chain_fallback = false;
};

inline constexpr std::uint16_t kNoChain = 0xFFFF;

/// The hot per-entry fields of CompiledEntry split structure-of-arrays,
/// one parallel array per field, indexed by flat entry id.  The batch path
/// reads only these for the filter-match and address-translation passes,
/// which makes both passes straight-line vectorisable (AVX2 where the CPU
/// has it) across the packets of a batch; the AoS `entries()` view stays
/// authoritative for diagnostics, plan-diff and the translation validator,
/// which also proves the two layouts congruent.  All fields are widened to
/// 32 bits so vector lanes line up.
struct EntryHot {
  std::vector<std::uint32_t> f_src_ip, f_src_mask;
  std::vector<std::uint32_t> f_dst_ip, f_dst_mask;
  std::vector<std::uint32_t> key_slot_a, key_slot_b;
  std::vector<std::uint32_t> key_shift, key_mask;
  std::vector<std::uint32_t> addr_shift, addr_mask, addr_base;

  std::size_t size() const noexcept { return addr_base.size(); }
};

/// True when the SoA filter/address passes run their AVX2 kernels (x86-64
/// with AVX2, not a FLYMON_DISABLE_SIMD build).  Reported by the bench
/// config row so artifacts are comparable across machines.
bool avx2_soa_active() noexcept;

/// How many packets ahead the per-CMU walk prefetches the register row.
/// One packet is enough: a CMU's scalar tail (sampling coin, preps, SALU
/// op) is long enough to cover an L2 hit but too short for main memory,
/// and larger distances would prefetch rows for packets whose sampling
/// coin may still divert them (see DESIGN.md §17).
inline constexpr std::size_t kPrefetchDistance = 1;

/// One CMU's compiled view: its slice of the flat entry array plus the
/// shared register and counter handles.
struct CompiledCmu {
  std::uint32_t entry_begin = 0;
  std::uint32_t entry_end = 0;
  unsigned group = 0;  ///< position in the pipeline (trace records)
  unsigned index = 0;
  dataplane::RegisterArray* reg = nullptr;
  telemetry::Counter* updates = nullptr;
  telemetry::Counter* sampled_out = nullptr;
  telemetry::Counter* prep_aborts = nullptr;
  std::array<telemetry::Counter*, 5> op_counters{};  ///< per StatefulOp kind
};

/// One group's compiled view: its slice of the CMU array plus the batched
/// compression-stage bookkeeping.
struct CompiledGroup {
  std::uint32_t cmu_begin = 0;
  std::uint32_t cmu_end = 0;
  std::uint32_t configured_units = 0;  ///< hash invocations per packet
  /// The group's hash units as trace records list them: unit u reads hash
  /// slot unit_slot[u] (0 = unconfigured, reads zero).
  std::uint32_t num_units = 0;
  std::array<std::uint16_t, CompressionStage::kMaxUnits> unit_slot{};
  telemetry::Counter* packets = nullptr;
  telemetry::Counter* hashes = nullptr;
};

/// One compiled hash lane: a snapshot copy of a configured hash unit,
/// hashed for every packet.  Lane 0 is the constant-zero lane
/// (unconfigured / absent selectors).
struct HashSlot {
  dataplane::HashUnit unit;
  unsigned group = 0;
  unsigned unit_index = 0;
};

/// One register cell of the plan.
struct Cell {
  std::uint32_t cmu = 0;  ///< flat CompiledCmu index
  std::uint32_t addr = 0;
  friend auto operator<=>(const Cell&, const Cell&) = default;
};

/// A traced step that ran on a shard replica: the replica value its SALU
/// read, so the pool can rebuild the value a sequential run would have
/// read (see ExecPlan::step_result).
struct TraceFixup {
  std::uint64_t seq = 0;         ///< the traced packet
  std::uint32_t step = 0;        ///< index into its record's steps
  std::uint32_t entry = 0;       ///< flat CompiledEntry index
  Cell cell;
  std::uint32_t p1 = 0, p2 = 0;  ///< post-preparation parameters
  std::uint32_t cur = 0;         ///< replica value the SALU read
};

/// Reusable per-batch working memory (hash lanes, chain channels, SoA
/// stage buffers, trace records).  Owned by whoever drives run_batch — one
/// scratch per processing thread.
struct BatchScratch {
  std::vector<CandidateKey> keys;
  std::vector<std::uint32_t> lanes;   ///< SLOT-major: lane slots x packets
  std::vector<std::uint32_t> chains;  ///< packets x num_chain_channels
  std::vector<std::uint32_t> src_ip;  ///< per-packet filter words (SoA)
  std::vector<std::uint32_t> dst_ip;
  std::vector<std::uint32_t> match;   ///< entries x packets, 0 or ~0
  std::vector<std::uint32_t> addr;    ///< entries x packets, translated addr
  /// Records of the traced packets this scratch ran, in seq order per
  /// chunk; the submitting thread publishes and clears them after the batch.
  std::vector<telemetry::TraceRecord> records;
  std::vector<std::uint32_t> record_of;  ///< traced chunk: packet -> record, or ~0
  std::vector<TraceFixup> fixups;        ///< traced steps run on a shard
};

/// Packets per scratch refill on the sequential path and per work-queue
/// chunk on the sharded path, so a scaling comparison always compares
/// equal-sized units of work.
inline constexpr std::size_t kBatchChunk = 256;

/// How one compiled entry's register partition folds across per-worker
/// shards.  Only operations from FlyMon's reduced SALU set appear here;
/// each is commutative and associative over the partition's cells, which
/// is what makes the shard merge byte-exact (DESIGN.md §11).
enum class MergeKind : std::uint8_t {
  kSum,  ///< Cond-ADD with an unreachable condition: saturating sum
  kMax,  ///< MAX: maximum
  kOr,   ///< AND-OR pinned to OR mode: bitwise or
  kXor,  ///< XOR (Odd Sketch toggle): bitwise xor
};

const char* to_string(MergeKind k) noexcept;

/// Why a plan cannot be shard-merged, as a closed set so the worker pool
/// can count fallbacks per cause (the human-readable merge_blockers()
/// strings carry the per-entry detail).
enum class MergeBlockerKind : std::uint8_t {
  kChainOutput,   ///< publishes register-derived value on a chain channel
  kGatedCondAdd,  ///< Cond-ADD condition can gate on the register value
  kAndMode,       ///< AND-OR not pinned to OR mode
  kMixedWindow,   ///< overlapping merge windows disagree on the fold
};

const char* to_string(MergeBlockerKind k) noexcept;

/// One mergeable register window: the owning entry's partition inside one
/// CompiledCmu, plus the reduction that reconciles shard replicas with the
/// live register.
struct MergeRegion {
  std::uint32_t cmu = 0;   ///< flat CompiledCmu index
  std::uint32_t base = 0;
  std::uint32_t size = 0;
  MergeKind kind = MergeKind::kSum;
  std::uint32_t value_mask = 0xFFFF'FFFFu;
};

/// A run of cells of one flat CMU: a partition a reconfiguration zeroes.
struct CellRange {
  std::uint32_t cmu = 0;  ///< flat CompiledCmu index
  std::uint32_t base = 0;
  std::uint32_t size = 0;
};

/// Where a sharded execution writes instead of the live plan targets: a
/// private register replica per flat CMU index and a flat block of counter
/// deltas (ExecPlan::counter_slots() wide) in place of the shared atomics.
struct ShardBinding {
  std::span<dataplane::RegisterArray* const> regs;
  std::span<std::uint64_t> counters;
};

class ExecPlan {
 public:
  /// Monotonic publish generation (0 is the empty plan a data plane is
  /// built with); exposed so tests can prove every batch executed against
  /// exactly one coherent snapshot.
  std::uint64_t generation() const noexcept { return generation_; }

  std::size_t num_entries() const noexcept { return entries_.size(); }
  std::size_t num_hash_slots() const noexcept { return slots_.size(); }
  std::size_t num_chain_channels() const noexcept { return chain_count_; }

  /// Ownership labels the plan was compiled with (kept so the data plane
  /// can recompile on telemetry rebinding without asking the controller).
  const std::vector<EntryOwnership>& ownership() const noexcept { return owners_; }

  /// Stable, pointer-free per-entry description lines ("label: config"),
  /// ordered like the flat entry array.  The --plan-diff tooling compares
  /// these across compiles.
  const std::vector<std::string>& signature() const noexcept { return signature_; }

  /// Execute the whole batch: compression stage for every packet first
  /// (batched hashing), then the attribute stages group-major.  Per-CMU
  /// packet order is preserved, so the final register state is
  /// byte-identical to per-packet processing.  Telemetry counters are
  /// aggregated per batch and flushed once.  Packets `sample` marks as
  /// traced append their record (the interpreted path's keys and steps,
  /// filled from compiled state) to `scratch.records`.
  ///
  /// With a `binding` (sharded execution, only valid when
  /// shard_mergeable()) every register access goes to
  /// `binding->regs[flat_cmu]` and every counter total accumulates into
  /// `binding->counters` instead of the shared atomics; traced steps then
  /// also leave a TraceFixup in `scratch.fixups`.
  void run_batch(std::span<const Packet> pkts, BatchScratch& scratch,
                 telemetry::TraceSample sample = {},
                 const ShardBinding* binding = nullptr) const;

  // ---- sharded tracing ----
  //
  // A shard's SALU reads its own replica, not the value a sequential run
  // would.  Each shard-run traced step leaves a TraceFixup, each executor
  // snapshots the traced cells of its replica as it claims a chunk, and
  // after the job the pool folds the live register with every replica's
  // state as of the traced packet (the exact shard merge, cell by cell) and
  // recomputes the step's result from that.

  /// The cells, sorted, that any entry matching a traced packet of `pkts`
  /// would update (computed in `scratch`).
  std::vector<Cell> traced_cells(std::span<const Packet> pkts,
                                 telemetry::TraceSample sample,
                                 BatchScratch& scratch) const;
  /// The trace result of entry `entry`'s SALU step on register value `cur`
  /// with prepared parameters `p1`, `p2`.
  std::uint32_t step_result(std::uint32_t entry, std::uint32_t cur,
                            std::uint32_t p1, std::uint32_t p2) const noexcept;

  // ---- shard merge metadata (computed at compile time) ----

  std::size_t num_groups() const noexcept { return groups_.size(); }
  std::size_t num_cmus() const noexcept { return cmus_.size(); }

  /// True when every entry's operation is an exact shard reduction (no
  /// register-derived chain outputs, Cond-ADD unconditional up to
  /// saturation, AND-OR pinned to OR mode).  The worker pool falls back to
  /// sequential execution otherwise.
  bool shard_mergeable() const noexcept { return merge_blockers_.empty(); }
  /// Human-readable reasons the plan cannot be shard-merged (empty when
  /// mergeable); each line names the offending entry.
  const std::vector<std::string>& merge_blockers() const noexcept {
    return merge_blockers_;
  }
  /// The same blockers as a closed kind set (parallel to merge_blockers()),
  /// so fallbacks can be counted per cause.
  const std::vector<MergeBlockerKind>& merge_blocker_kinds() const noexcept {
    return merge_blocker_kinds_;
  }
  /// The mergeable register windows, one per state-writing entry.
  std::span<const MergeRegion> merge_regions() const noexcept {
    return merge_regions_;
  }
  /// Live register behind one flat CMU index (merge target).
  dataplane::RegisterArray* live_register(std::uint32_t cmu) const {
    return cmus_[cmu].reg;
  }

  // ---- per-worker counter blocks ----

  /// Width of a shard counter block: 2 slots per group (packets, hashes)
  /// then 8 per CMU (updates, sampled_out, prep_aborts, 5 op kinds).
  std::size_t counter_slots() const noexcept {
    return groups_.size() * 2 + cmus_.size() * 8;
  }
  /// Add a shard's accumulated counter deltas onto the live telemetry
  /// counters this plan was compiled against, zeroing the block.
  void flush_counter_block(std::span<std::uint64_t> block) const;

  // ---- read-only views for the translation validator ----
  //
  // src/verify/translate re-walks these flat arrays in lockstep with
  // ir::for_each_installed_entry to prove every compiled entry equivalent
  // to its interpreted counterpart.  Views only — the plan stays immutable
  // after publication.

  std::span<const CompiledEntry> entries() const noexcept { return entries_; }
  std::span<const CompiledCmu> compiled_cmus() const noexcept { return cmus_; }
  std::span<const CompiledGroup> compiled_groups() const noexcept {
    return groups_;
  }
  std::span<const HashSlot> hash_slots() const noexcept { return slots_; }

  /// The SoA twin of entries(): what the batch filter/address passes
  /// actually execute from.  The translation validator proves it congruent
  /// with the AoS view on every publish.
  const EntryHot& hot() const noexcept { return hot_; }

 private:
  friend class PlanCompiler;
  friend struct PlanMutator;

  // Both walk functions are templated on kTraced: the <false>
  // instantiation is the plain hot path with no trace code at all; the
  // <true> instantiation, chosen per chunk when the chunk holds a traced
  // packet, also writes those packets' GroupKeys and CmuTraceSteps.  The
  // stage profiler is a runtime check per stage lap (one lap per batch
  // stage, one SALU lap per (CMU, batch)), never a clock read per packet.
  // The scalar per-packet remainder of one CMU: sampling coin, preps,
  // chain reads/writes and the SALU op, in the exact interpreted order.
  // Filter matches and translated addresses arrive precomputed in the
  // scratch SoA buffers (`s.match` / `s.addr`, entry-major, stride n);
  // hash lanes are slot-major (`s.lanes[slot * n + p]`).  `rec` is the
  // packet's trace record, or null when it is not traced.
  template <bool kTraced>
  void run_cmu(const CompiledCmu& cmu, dataplane::RegisterArray& reg,
               const Packet& pkt, const CandidateKey& key,
               BatchScratch& s, std::size_t n, std::size_t p,
               std::uint32_t* chains, std::uint64_t& updates,
               std::uint64_t& sampled_out, std::uint64_t& prep_aborts,
               std::array<std::uint64_t, 5>& op_counts,
               telemetry::TraceRecord* rec) const;
  template <bool kTraced>
  void run_batch_impl(std::span<const Packet> pkts, BatchScratch& scratch,
                      telemetry::TraceSample sample,
                      const ShardBinding* binding) const;
  /// The batch-wide passes into `s`: compression (keys, hash lanes), then
  /// the SoA filter verdicts and translated addresses.  Laps each stage
  /// into `prof` when it is set.
  void batch_passes(std::span<const Packet> pkts, BatchScratch& s,
                    trace::BatchStageSample* prof) const;
  /// Start the records of the chunk's traced packets, with their
  /// compressed keys read from the hash lanes.
  void start_records(std::span<const Packet> pkts, BatchScratch& s,
                     telemetry::TraceSample sample) const;

  /// (Re)derive the SoA hot arrays from the AoS entries.  Called once at
  /// plan-compile time; PlanMutator re-runs it after seeded miscompiles so
  /// mutation self-tests exercise the layout the hot path reads.
  void build_hot();

  std::uint64_t generation_ = 0;
  EntryHot hot_;                      ///< SoA twin of entries_
  std::vector<HashSlot> slots_;       ///< slot 0 = constant-zero lane
  std::vector<CompiledGroup> groups_;
  std::vector<CompiledCmu> cmus_;
  std::vector<CompiledEntry> entries_;
  std::size_t chain_count_ = 1;       ///< dense channels incl. the zero cell
  std::vector<EntryOwnership> owners_;
  std::vector<std::string> signature_;
  std::vector<MergeRegion> merge_regions_;
  std::vector<std::string> merge_blockers_;
  std::vector<MergeBlockerKind> merge_blocker_kinds_;
};

/// Deliberate-miscompile backdoor for the verification self-test
/// (src/verify/mutations.cpp): static accessors to a published plan's
/// private arrays so seeded lowering bugs can be injected and the
/// translation validator proven to catch them.  Nothing outside the
/// self-test harness may use this — the hot path relies on plans being
/// immutable after publication.
struct PlanMutator {
  static std::vector<CompiledEntry>& entries(ExecPlan& p) { return p.entries_; }
  /// Re-sync the SoA hot arrays after mutating the AoS entries, so seeded
  /// miscompiles corrupt the layout the batch path actually executes.
  static void rebuild_hot(ExecPlan& p) { p.build_hot(); }
  static std::vector<HashSlot>& hash_slots(ExecPlan& p) { return p.slots_; }
  static std::vector<MergeRegion>& merge_regions(ExecPlan& p) {
    return p.merge_regions_;
  }
  static std::vector<std::string>& merge_blockers(ExecPlan& p) {
    return p.merge_blockers_;
  }
  static std::vector<MergeBlockerKind>& merge_blocker_kinds(ExecPlan& p) {
    return p.merge_blocker_kinds_;
  }
};

/// Compiles a (data plane, ownership) snapshot into an ExecPlan.  Resolves
/// every per-packet lookup the interpreted path performs — hash-unit
/// masks, matched-rule key selection, prep constants, address translation,
/// counter handles — into flat per-entry constants.  Must be called from
/// the control thread (it reads the mutable deployment state and lazily
/// registers per-op counter series).
class PlanCompiler {
 public:
  static std::shared_ptr<const ExecPlan> compile(
      FlyMonDataPlane& dp, std::span<const EntryOwnership> owners,
      std::uint64_t generation);

  /// Whether shard deltas produced under `from` stay exact under `to` once
  /// the cells in `zeroed` are dropped: every merge region of either plan
  /// lies inside one `zeroed` range or touches none, and the regions that
  /// touch none are the same in both (register, cells, MergeKind, value
  /// mask).  Returns `from`'s regions inside `zeroed` — the only replica
  /// cells there that can hold deltas — or nullopt when the plans differ
  /// elsewhere.
  static std::optional<std::vector<MergeRegion>> scoped_regions(
      const ExecPlan& from, const ExecPlan& to,
      std::span<const CellRange> zeroed);
};

}  // namespace flymon::exec
