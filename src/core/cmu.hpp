// The Composable Measurement Unit (paper §3.1): a runtime-reconfigurable
// operation unit whose per-packet pipeline is
//   initialization  — match the task filter, select dynamic key & params
//   preparation     — address translation + parameter pre-processing
//   operation       — one stateful op on the bound register
// The compression stage is shared at the CMU-Group level (compression.hpp).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/address_translation.hpp"
#include "core/compression.hpp"
#include "core/memory_partition.hpp"
#include "core/task.hpp"
#include "dataplane/salu.hpp"
#include "packet/exact.hpp"
#include "packet/packet.hpp"
#include "telemetry/telemetry.hpp"

namespace flymon::telemetry {
struct TraceRecord;
}  // namespace flymon::telemetry

namespace flymon {

/// Where a CMU parameter (p1/p2) comes from at packet time.
struct ParamSelect {
  enum class Source : std::uint8_t { kConst, kMeta, kCompressedKey, kChain };

  Source source = Source::kConst;
  std::uint32_t const_value = 0;   ///< kConst value / kChain channel id
  MetaField meta = MetaField::kOne;
  CompressedKeySelector key_sel{};
  KeySlice slice{0, 32};

  static ParamSelect constant(std::uint32_t v) {
    ParamSelect p;
    p.source = Source::kConst;
    p.const_value = v;
    return p;
  }
  static ParamSelect metadata(MetaField f) {
    ParamSelect p;
    p.source = Source::kMeta;
    p.meta = f;
    return p;
  }
  static ParamSelect compressed(CompressedKeySelector sel, KeySlice slice = {0, 32}) {
    ParamSelect p;
    p.source = Source::kCompressedKey;
    p.key_sel = sel;
    p.slice = slice;
    return p;
  }
  static ParamSelect chain(std::uint32_t channel) {
    ParamSelect p;
    p.source = Source::kChain;
    p.const_value = channel;
    return p;
  }
};

/// Preparation-stage parameter processing (TCAM-backed in hardware).
enum class PrepFn : std::uint8_t {
  kNone = 0,
  /// BeauCoup: treat p1 as a uniform hash; draw a coupon with total
  /// probability c*p and rewrite p1 to its one-hot encoding, or abort the
  /// update when no coupon is drawn.  p2 is forced to 1 (selects OR).
  kCouponOneHot,
  /// Bit-packed Bloom filter: p1 -> 1 << (p1 mod 32); p2 forced to 1.
  kBitSelectOneHot,
  /// Max inter-arrival: p1 = gate ? saturating(p1 - chain_in) : 0, where
  /// `gate` is the chain channel in `chain_gate` (0 means "new flow").
  kSubtractGated,
  /// Counter Braids layer 2: keep p1 only when the chained upstream result
  /// is zero (upstream Cond-ADD returned 0 = its counter saturated).
  kKeepOnChainZero,
  /// Odd Sketch toggle: one-hot of p1 gated on chain_gate == 0 (the
  /// upstream Bloom filter reporting a first-seen flow); otherwise p1 = 0
  /// so the XOR leaves the register untouched.
  kBitSelectOneHotGated,
};

/// Coupon parameters for PrepFn::kCouponOneHot.
struct CouponPrep {
  unsigned num_coupons = 32;
  double draw_probability = 0.0;  ///< per-coupon probability
};

/// One installed measurement task on one CMU: the runtime rules of the
/// initialization, preparation and operation stages for this task.
struct CmuTaskEntry {
  std::uint32_t task_id = 0;
  TaskFilter filter{};
  std::uint32_t priority = 100;          ///< lower wins among matches
  double sample_probability = 1.0;       ///< probabilistic execution (§5.3)

  CompressedKeySelector key_sel{};
  KeySlice key_slice{0, 16};
  MemoryPartition partition{};

  ParamSelect p1 = ParamSelect::constant(1);
  ParamSelect p2 = ParamSelect::constant(0xFFFF'FFFFu);
  PrepFn prep = PrepFn::kNone;
  CouponPrep coupon{};
  std::uint32_t chain_gate = 0;          ///< secondary chain channel (prep)

  dataplane::StatefulOp op = dataplane::StatefulOp::kNop;
  bool output_old_value = false;         ///< SALU result = pre-update value
  std::uint32_t chain_out = 0;           ///< publish result on this channel
  bool chain_fallback = false;           ///< publish chain-in when result==0
};

/// Per-packet metadata carried between CMUs (PHV fields in hardware).
struct PhvContext {
  std::unordered_map<std::uint32_t, std::uint32_t> chain;
  /// Set when this packet is sampled for tracing; groups/CMUs append what
  /// they did to the record.  Null for untraced packets.
  telemetry::TraceRecord* trace = nullptr;

  std::uint32_t get(std::uint32_t channel) const noexcept {
    const auto it = chain.find(channel);
    return it == chain.end() ? 0u : it->second;
  }
};

class Cmu {
 public:
  /// A CMU owns one register (uniform 32-bit buckets) and its SALU with the
  /// reduced operation set pre-loaded.
  explicit Cmu(std::uint32_t register_buckets);

  // Movable (vector<Cmu> growth during group construction) but not
  // copyable: the register's atomic cells are unique and the SALU must be
  // re-pointed at the relocated register.
  Cmu(Cmu&& other) noexcept;
  Cmu(const Cmu&) = delete;
  Cmu& operator=(const Cmu&) = delete;
  Cmu& operator=(Cmu&&) = delete;

  /// Load an extra operation into the SALU's reserved fourth action slot
  /// (e.g. XOR for Odd Sketch, paper §6).  Throws when slots are exhausted.
  void preload_op(dataplane::StatefulOp op);

  /// The co-location rule: a SALU performs one memory access per packet
  /// (paper §3.3), so a task may join this CMU only when its filter misses
  /// every installed full-rate task's, unless it or they run sampled (§6).
  bool admits(const TaskFilter& filter, double sample_probability) const noexcept;

  /// Install / remove task rules.  Installation throws on an entry
  /// admits() rejects, a duplicate id, no key or a partition outside the
  /// register.
  void install(const CmuTaskEntry& entry);
  bool remove(std::uint32_t task_id);

  /// Zero every register cell an entry installed since the last clear can
  /// have written — the hull of those entries' partitions — then shrink
  /// the hull to the entries still installed.  Removing an entry keeps its
  /// partition in the hull: without a pool nothing fences a publish, so a
  /// batch still running the old plan may write it after the removal
  /// zeroed it.
  void clear_register();

  /// The control-plane state a controller checkpoint saves: the installed
  /// entries, the hull and the SALU's pre-loaded operations (installing an
  /// Odd Sketch toggle loads XOR).
  struct Staging {
    std::vector<CmuTaskEntry> entries;
    std::uint32_t hull_begin = 0, hull_end = 0;
    dataplane::Salu salu;
  };
  Staging staging() const { return {entries_, hull_begin_, hull_end_, salu_}; }
  /// Put a staging() snapshot back exactly (no install() check runs).
  void restore(Staging s);

  /// Zero the cells of `p` that lay in the hull when `before` was taken.
  /// Cells outside it were zero then, and entries installed since write
  /// nothing until a plan holding them is published, so a partition staged
  /// since `before` starts empty at a cost bounded by what earlier entries
  /// used.
  void clear_partition(const MemoryPartition& p, const Staging& before);

  const CmuTaskEntry* find(std::uint32_t task_id) const noexcept;
  const std::vector<CmuTaskEntry>& entries() const noexcept { return entries_; }

  /// Process one packet given the group's compressed keys.  Returns the
  /// SALU result if some task matched and executed.
  std::optional<std::uint32_t> process(const Packet& pkt,
                                       std::span<const std::uint32_t> unit_keys,
                                       PhvContext& ctx);

  /// Memory address a probe flow maps to under `entry` (control-plane
  /// readout uses the same hash configuration as the data plane).
  std::uint32_t probe_address(const CmuTaskEntry& entry,
                              std::span<const std::uint32_t> unit_keys) const noexcept;

  dataplane::RegisterArray& reg() noexcept { return reg_; }
  const dataplane::RegisterArray& reg() const noexcept { return reg_; }
  /// Read-only SALU view (the verifier audits pre-loaded action slots).
  const dataplane::Salu& salu() const noexcept { return salu_; }

  /// Bind this CMU's instrumentation counters into `registry` under labels
  /// group=`group`, cmu=`index`.  Called by CmuGroup at construction (to the
  /// global registry) and again when a private registry is attached.
  void bind_telemetry(telemetry::Registry& registry, unsigned group, unsigned index);

  /// Fraction of register cells that are non-zero (computed on demand).
  double register_occupancy() const noexcept;

  /// Evaluate a parameter selection for a probe packet (control-plane
  /// readout re-derives data-plane inputs, e.g. Bloom-filter bit indices).
  std::uint32_t resolve_param(const ParamSelect& sel, const Packet& pkt,
                              std::span<const std::uint32_t> unit_keys,
                              const PhvContext& ctx) const noexcept;

  // ---- snapshot accessors for the plan compiler (src/exec) ----
  /// Pre-resolved counter handles; non-null once bind_telemetry ran (the
  /// group binds at construction).  The compiled plan aggregates into the
  /// very same counters the interpreted path increments.
  telemetry::Counter* updates_counter() const noexcept { return tel_.updates; }
  telemetry::Counter* sampled_out_counter() const noexcept { return tel_.sampled_out; }
  telemetry::Counter* prep_aborts_counter() const noexcept { return tel_.prep_aborts; }
  /// Lazily-registered per-op counter series, shared between the
  /// interpreted path (first execution registers it) and the compiled plan
  /// (registration moves to publish time).
  telemetry::Counter* op_counter(dataplane::StatefulOp op);

 private:
  /// Pre-resolved counters (no registry lookup on the packet path).  Per-op
  /// counters are resolved lazily so only executed op kinds get a series.
  struct Telemetry {
    telemetry::Registry* registry = nullptr;
    unsigned group = 0;
    unsigned index = 0;
    telemetry::Counter* updates = nullptr;       ///< matched + executed
    telemetry::Counter* sampled_out = nullptr;   ///< matched, skipped by coin
    telemetry::Counter* prep_aborts = nullptr;   ///< prep cancelled the update
    std::array<telemetry::Counter*, 5> ops{};    ///< per StatefulOp kind
  };

  void extend_hull(const MemoryPartition& p) noexcept;

  dataplane::RegisterArray reg_;
  dataplane::Salu salu_;
  std::vector<CmuTaskEntry> entries_;
  /// [hull_begin_, hull_end_): cells clear_register() zeroes (empty when
  /// begin == end).
  std::uint32_t hull_begin_ = 0;
  std::uint32_t hull_end_ = 0;
  Telemetry tel_;
};

}  // namespace flymon
