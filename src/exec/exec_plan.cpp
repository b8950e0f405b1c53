#include "exec/exec_plan.hpp"

#include <algorithm>

#include "common/hash.hpp"
#include "trace/stage_profiler.hpp"

#if defined(__x86_64__) && !defined(FLYMON_DISABLE_SIMD)
#include <immintrin.h>
#define FLYMON_EXEC_HAVE_AVX2 1
#endif

namespace flymon::exec {

namespace {

inline std::uint32_t resolve(const CompiledParam& p, const Packet& pkt,
                             const std::uint32_t* lanes, std::size_t n,
                             std::size_t pi,
                             const std::uint32_t* chains) noexcept {
  switch (p.kind) {
    case CompiledParam::Kind::kConst:
      return p.value;
    case CompiledParam::Kind::kMeta:
      return static_cast<std::uint32_t>(read_meta(pkt, p.meta));
    case CompiledParam::Kind::kKey:
      return ((lanes[p.slot_a * n + pi] ^ lanes[p.slot_b * n + pi]) >>
              p.shift) &
             p.mask;
    case CompiledParam::Kind::kChain:
      return chains[p.value];
  }
  return 0;
}

// ---- SoA stage kernels -----------------------------------------------------
//
// One entry's filter / address parameters against the whole batch: the
// per-entry constants are scalar (broadcast), the per-packet inputs are
// contiguous arrays, so the loops are straight-line SIMD.  The scalar
// versions are the ground truth and the non-x86 / FLYMON_DISABLE_SIMD path;
// dispatch is one function pointer chosen at static-init from CPUID.

void fill_match_scalar(std::uint32_t fs, std::uint32_t fsm, std::uint32_t fd,
                       std::uint32_t fdm, const std::uint32_t* src,
                       const std::uint32_t* dst, std::size_t n,
                       std::uint32_t* out) noexcept {
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t miss = ((src[p] ^ fs) & fsm) | ((dst[p] ^ fd) & fdm);
    out[p] = miss == 0 ? 0xFFFF'FFFFu : 0u;
  }
}

void fill_addr_scalar(std::uint32_t key_shift, std::uint32_t key_mask,
                      std::uint32_t addr_shift, std::uint32_t addr_mask,
                      std::uint32_t addr_base, const std::uint32_t* la,
                      const std::uint32_t* lb, std::size_t n,
                      std::uint32_t* out) noexcept {
  for (std::size_t p = 0; p < n; ++p) {
    const std::uint32_t sliced = ((la[p] ^ lb[p]) >> key_shift) & key_mask;
    out[p] = addr_base + ((sliced >> addr_shift) & addr_mask);
  }
}

#if defined(FLYMON_EXEC_HAVE_AVX2)

__attribute__((target("avx2"))) void fill_match_avx2(
    std::uint32_t fs, std::uint32_t fsm, std::uint32_t fd, std::uint32_t fdm,
    const std::uint32_t* src, const std::uint32_t* dst, std::size_t n,
    std::uint32_t* out) noexcept {
  const __m256i vfs = _mm256_set1_epi32(static_cast<int>(fs));
  const __m256i vfsm = _mm256_set1_epi32(static_cast<int>(fsm));
  const __m256i vfd = _mm256_set1_epi32(static_cast<int>(fd));
  const __m256i vfdm = _mm256_set1_epi32(static_cast<int>(fdm));
  const __m256i zero = _mm256_setzero_si256();
  std::size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + p));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + p));
    const __m256i miss =
        _mm256_or_si256(_mm256_and_si256(_mm256_xor_si256(s, vfs), vfsm),
                        _mm256_and_si256(_mm256_xor_si256(d, vfd), vfdm));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p),
                        _mm256_cmpeq_epi32(miss, zero));
  }
  fill_match_scalar(fs, fsm, fd, fdm, src + p, dst + p, n - p, out + p);
}

__attribute__((target("avx2"))) void fill_addr_avx2(
    std::uint32_t key_shift, std::uint32_t key_mask, std::uint32_t addr_shift,
    std::uint32_t addr_mask, std::uint32_t addr_base, const std::uint32_t* la,
    const std::uint32_t* lb, std::size_t n, std::uint32_t* out) noexcept {
  // The shifts are uniform across the batch (per-entry constants), so the
  // scalar-count forms (_mm256_srl_epi32) cover them without AVX2's
  // per-lane variable shifts.
  const __m128i cks = _mm_cvtsi32_si128(static_cast<int>(key_shift));
  const __m128i cas = _mm_cvtsi32_si128(static_cast<int>(addr_shift));
  const __m256i vkm = _mm256_set1_epi32(static_cast<int>(key_mask));
  const __m256i vam = _mm256_set1_epi32(static_cast<int>(addr_mask));
  const __m256i vab = _mm256_set1_epi32(static_cast<int>(addr_base));
  std::size_t p = 0;
  for (; p + 8 <= n; p += 8) {
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(la + p));
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lb + p));
    const __m256i sliced = _mm256_and_si256(
        _mm256_srl_epi32(_mm256_xor_si256(a, b), cks), vkm);
    const __m256i addr = _mm256_add_epi32(
        vab, _mm256_and_si256(_mm256_srl_epi32(sliced, cas), vam));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + p), addr);
  }
  fill_addr_scalar(key_shift, key_mask, addr_shift, addr_mask, addr_base,
                   la + p, lb + p, n - p, out + p);
}

#endif  // FLYMON_EXEC_HAVE_AVX2

using FillMatchFn = void (*)(std::uint32_t, std::uint32_t, std::uint32_t,
                             std::uint32_t, const std::uint32_t*,
                             const std::uint32_t*, std::size_t,
                             std::uint32_t*) noexcept;
using FillAddrFn = void (*)(std::uint32_t, std::uint32_t, std::uint32_t,
                            std::uint32_t, std::uint32_t, const std::uint32_t*,
                            const std::uint32_t*, std::size_t,
                            std::uint32_t*) noexcept;

bool detect_avx2() noexcept {
#if defined(FLYMON_EXEC_HAVE_AVX2)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

const bool g_avx2 = detect_avx2();
#if defined(FLYMON_EXEC_HAVE_AVX2)
const FillMatchFn g_fill_match = g_avx2 ? fill_match_avx2 : fill_match_scalar;
const FillAddrFn g_fill_addr = g_avx2 ? fill_addr_avx2 : fill_addr_scalar;
#else
const FillMatchFn g_fill_match = fill_match_scalar;
const FillAddrFn g_fill_addr = fill_addr_scalar;
#endif

inline void prefetch_row(const std::atomic<std::uint32_t>* cells,
                         std::uint32_t addr) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(static_cast<const void*>(cells + addr), 1 /*write*/,
                     1 /*low temporal locality*/);
#else
  (void)cells;
  (void)addr;
#endif
}

}  // namespace

bool avx2_soa_active() noexcept { return g_avx2; }

const char* to_string(MergeKind k) noexcept {
  switch (k) {
    case MergeKind::kSum: return "sum";
    case MergeKind::kMax: return "max";
    case MergeKind::kOr: return "or";
    case MergeKind::kXor: return "xor";
  }
  return "?";
}

const char* to_string(MergeBlockerKind k) noexcept {
  switch (k) {
    case MergeBlockerKind::kChainOutput: return "chain_output";
    case MergeBlockerKind::kGatedCondAdd: return "gated_cond_add";
    case MergeBlockerKind::kAndMode: return "and_mode";
    case MergeBlockerKind::kMixedWindow: return "mixed_window";
  }
  return "?";
}

void ExecPlan::build_hot() {
  const std::size_t e = entries_.size();
  hot_ = EntryHot{};
  hot_.f_src_ip.reserve(e);
  hot_.f_src_mask.reserve(e);
  hot_.f_dst_ip.reserve(e);
  hot_.f_dst_mask.reserve(e);
  hot_.key_slot_a.reserve(e);
  hot_.key_slot_b.reserve(e);
  hot_.key_shift.reserve(e);
  hot_.key_mask.reserve(e);
  hot_.addr_shift.reserve(e);
  hot_.addr_mask.reserve(e);
  hot_.addr_base.reserve(e);
  for (const CompiledEntry& ce : entries_) {
    hot_.f_src_ip.push_back(ce.filter_src_ip);
    hot_.f_src_mask.push_back(ce.filter_src_mask);
    hot_.f_dst_ip.push_back(ce.filter_dst_ip);
    hot_.f_dst_mask.push_back(ce.filter_dst_mask);
    hot_.key_slot_a.push_back(ce.key_slot_a);
    hot_.key_slot_b.push_back(ce.key_slot_b);
    hot_.key_shift.push_back(ce.key_shift);
    hot_.key_mask.push_back(ce.key_mask);
    hot_.addr_shift.push_back(ce.addr_shift);
    hot_.addr_mask.push_back(ce.addr_mask);
    hot_.addr_base.push_back(ce.addr_base);
  }
}

namespace {

/// One SALU op of entry `e` on register value `cur`, with the same
/// arithmetic as Salu::execute: the value to store, if any, and the result.
struct SaluOut {
  bool write = false;
  std::uint32_t next = 0;
  std::uint32_t result = 0;
};

inline SaluOut salu(const CompiledEntry& e, std::uint32_t cur, std::uint32_t p1,
                    std::uint32_t p2) noexcept {
  const std::uint32_t mask = e.value_mask;
  switch (e.op) {
    case dataplane::StatefulOp::kNop:
      return {false, cur, cur};
    case dataplane::StatefulOp::kCondAdd: {
      if (cur >= p2) return {};
      const std::uint64_t sum = std::uint64_t{cur} + p1;
      const std::uint32_t next =
          sum > mask ? mask : static_cast<std::uint32_t>(sum);
      return {true, next & mask, next};
    }
    case dataplane::StatefulOp::kMax:
      if (cur < (p1 & mask)) return {true, p1 & mask, p1 & mask};
      return {};
    case dataplane::StatefulOp::kAndOr: {
      const std::uint32_t next = (p2 == 0) ? (cur & p1) : (cur | p1);
      return {true, next & mask, next};
    }
    case dataplane::StatefulOp::kXor: {
      const std::uint32_t next = cur ^ (p1 & mask);
      return {true, next & mask, next};
    }
  }
  return {};
}

/// What entry `e`'s step exports on its chain channel and trace result.
inline std::uint32_t exported(const CompiledEntry& e, std::uint32_t cur,
                              std::uint32_t p1, std::uint32_t result) noexcept {
  if (!e.output_old_value) return result;
  return e.one_hot_export ? ((cur & p1) != 0 ? 1u : 0u) : cur;
}

/// The interpreted path's trace step for entry `e` of `cmu`, built from
/// compiled state; the caller fills the post-preparation fields.
telemetry::CmuTraceStep trace_step(const CompiledCmu& cmu,
                                   const CompiledEntry& e,
                                   const std::uint32_t* lanes, std::size_t n,
                                   std::size_t p) noexcept {
  telemetry::CmuTraceStep step;
  step.group = cmu.group;
  step.cmu = cmu.index;
  step.task_id = e.phys_id;
  step.selected_key = lanes[e.key_slot_a * n + p] ^ lanes[e.key_slot_b * n + p];
  step.op = dataplane::to_string(e.op);
  return step;
}

}  // namespace

template <bool kTraced>
void ExecPlan::run_cmu(const CompiledCmu& cmu, dataplane::RegisterArray& reg,
                       const Packet& pkt, const CandidateKey& key,
                       BatchScratch& s, std::size_t n, std::size_t p,
                       std::uint32_t* chains, std::uint64_t& updates,
                       std::uint64_t& sampled_out, std::uint64_t& prep_aborts,
                       std::array<std::uint64_t, 5>& op_counts,
                       [[maybe_unused]] telemetry::TraceRecord* rec) const {
  const std::uint32_t* lanes = s.lanes.data();
  for (std::uint32_t i = cmu.entry_begin; i < cmu.entry_end; ++i) {
    // Initialization: precomputed filter verdict + sampling coin.
    if (s.match[std::size_t{i} * n + p] == 0) continue;
    const CompiledEntry& e = entries_[i];
    if (e.sampled) {
      const std::uint64_t h = hash64(
          std::span<const std::uint8_t>(key.data(), key.size()), e.sample_seed);
      const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
      if (u >= e.sample_probability) {
        ++sampled_out;
        continue;  // next matching task may run
      }
    }

    // Preparation: precomputed address + parameter resolution.
    const std::uint32_t addr = s.addr[std::size_t{i} * n + p];
    std::uint32_t p1 = resolve(e.p1, pkt, lanes, n, p, chains);
    std::uint32_t p2 = resolve(e.p2, pkt, lanes, n, p, chains);
    const std::uint32_t p2_raw = p2;

    switch (e.prep) {
      case PrepFn::kNone:
        break;
      case PrepFn::kCouponOneHot: {
        p1 ^= (p1 >> 16) | (p1 << 16);
        const double u = static_cast<double>(p1) * 0x1.0p-32;
        if (u >= e.coupon_total) {  // no coupon drawn: no update
          ++prep_aborts;
          if constexpr (kTraced) {
            if (rec != nullptr) {
              telemetry::CmuTraceStep step = trace_step(cmu, e, lanes, n, p);
              step.aborted = true;
              rec->steps.push_back(step);
            }
          }
          return;
        }
        const auto idx =
            std::min<unsigned>(static_cast<unsigned>(u / e.coupon_probability),
                               e.coupon_count - 1);
        p1 = 1u << idx;
        p2 = 1;
        break;
      }
      case PrepFn::kBitSelectOneHot:
        p1 = 1u << (p1 & 31u);
        p2 = 1;
        break;
      case PrepFn::kSubtractGated: {
        const std::uint32_t gate = chains[e.gate_chain];
        p1 = gate != 0 ? (p1 > p2 ? p1 - p2 : 0u) : 0u;
        p2 = 0;
        break;
      }
      case PrepFn::kKeepOnChainZero:
        if (chains[e.gate_chain] != 0) p1 = 0;
        break;
      case PrepFn::kBitSelectOneHotGated:
        p1 = chains[e.gate_chain] == 0 ? (1u << (p1 & 31u)) : 0u;
        break;
    }

    // Operation: inlined SALU semantics on the shared register, without
    // touching any mutable SALU state.
    const std::uint32_t cur = reg.load_relaxed(addr);
    const SaluOut op = salu(e, cur, p1, p2);
    if (op.write) reg.store_relaxed(addr, op.next);
    const std::uint32_t out = exported(e, cur, p1, op.result);
    if (e.chain_out != kNoChain) {
      chains[e.chain_out] = (e.chain_fallback && op.result == 0) ? p2_raw : out;
    }
    ++updates;
    ++op_counts[static_cast<std::size_t>(e.op)];
    if constexpr (kTraced) {
      if (rec != nullptr) {
        telemetry::CmuTraceStep step = trace_step(cmu, e, lanes, n, p);
        step.sliced_key = (step.selected_key >> e.key_shift) & e.key_mask;
        step.address = addr;
        step.p1 = p1;
        step.p2 = p2;
        step.result = out;
        rec->steps.push_back(step);
        if (&reg != cmu.reg) {  // a replica: the pool fixes the result up
          s.fixups.push_back(
              {rec->seq, static_cast<std::uint32_t>(rec->steps.size() - 1), i,
               {static_cast<std::uint32_t>(&cmu - cmus_.data()), addr}, p1, p2,
               cur});
        }
      }
    }
    return;  // at most one entry executes per CMU per packet
  }
}

void ExecPlan::run_batch(std::span<const Packet> pkts, BatchScratch& s,
                         telemetry::TraceSample sample,
                         const ShardBinding* binding) const {
  if (sample.first_traced() < pkts.size()) {
    run_batch_impl<true>(pkts, s, sample, binding);
  } else {
    run_batch_impl<false>(pkts, s, sample, binding);
  }
}

void ExecPlan::start_records(std::span<const Packet> pkts, BatchScratch& s,
                             telemetry::TraceSample sample) const {
  const std::size_t n = pkts.size();
  s.record_of.assign(n, ~std::uint32_t{0});
  for (std::size_t p = sample.first_traced(); p < n; p += sample.every) {
    s.record_of[p] = static_cast<std::uint32_t>(s.records.size());
    telemetry::TraceRecord& rec = s.records.emplace_back(
        telemetry::TraceRecord::start(sample.first_seq + p, pkts[p]));
    rec.keys.reserve(groups_.size());
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      const CompiledGroup& g = groups_[gi];
      telemetry::GroupKeys& gk = rec.keys.emplace_back();
      gk.group = static_cast<unsigned>(gi);
      gk.unit_keys.resize(g.num_units);
      for (std::size_t u = 0; u < g.num_units; ++u) {
        gk.unit_keys[u] = s.lanes[g.unit_slot[u] * n + p];
      }
    }
  }
}

void ExecPlan::batch_passes(std::span<const Packet> pkts, BatchScratch& s,
                            trace::BatchStageSample* prof) const {
  const std::size_t n = pkts.size();
  const std::size_t num_entries = entries_.size();
  std::uint64_t t0 = prof != nullptr ? trace::now_cycles() : 0;
  const auto lap = [&](trace::Stage st, std::uint64_t items) {
    if (prof == nullptr) return;
    const std::uint64_t now = trace::now_cycles();
    prof->add(st, now - t0, items);
    t0 = now;
  };

  // Compression stage, batched and slot-major: serialize every packet,
  // then run each compiled hash lane over the whole batch (one kernel's
  // constants stay hot across n packets).  Lane 0 stays zero (the
  // "unconfigured unit / no selector" lane); `lanes[slot * n + p]` so each
  // lane is a contiguous per-packet array for the SoA address pass.
  s.keys.resize(n);
  s.lanes.assign(slots_.size() * n, 0u);
  s.src_ip.resize(n);
  s.dst_ip.resize(n);
  for (std::size_t p = 0; p < n; ++p) {
    s.keys[p] = serialize_candidate_key(pkts[p]);
    s.src_ip[p] = pkts[p].ft.src_ip;
    s.dst_ip[p] = pkts[p].ft.dst_ip;
  }
  for (std::size_t sl = 1; sl < slots_.size(); ++sl) {
    const dataplane::HashUnit& unit = slots_[sl].unit;
    std::uint32_t* lane = &s.lanes[sl * n];
    for (std::size_t p = 0; p < n; ++p) lane[p] = unit.compute(s.keys[p]);
  }
  lap(trace::Stage::kCompression, n);

  // SoA stage passes: filter verdicts and translated addresses for every
  // (entry, packet) pair, entry-major.  Both are pure functions of the
  // lanes/headers computed above — sampling coins, preps and chains stay
  // in the scalar walk, which consumes these buffers.
  s.match.resize(num_entries * n);
  s.addr.resize(num_entries * n);
  for (std::size_t i = 0; i < num_entries; ++i) {
    g_fill_match(hot_.f_src_ip[i], hot_.f_src_mask[i], hot_.f_dst_ip[i],
                 hot_.f_dst_mask[i], s.src_ip.data(), s.dst_ip.data(), n,
                 &s.match[i * n]);
  }
  lap(trace::Stage::kFilter, num_entries * n);
  for (std::size_t i = 0; i < num_entries; ++i) {
    g_fill_addr(hot_.key_shift[i], hot_.key_mask[i], hot_.addr_shift[i],
                hot_.addr_mask[i], hot_.addr_base[i],
                &s.lanes[hot_.key_slot_a[i] * n],
                &s.lanes[hot_.key_slot_b[i] * n], n, &s.addr[i * n]);
  }
  lap(trace::Stage::kAddress, num_entries * n);
}

template <bool kTraced>
void ExecPlan::run_batch_impl(std::span<const Packet> pkts, BatchScratch& s,
                              [[maybe_unused]] telemetry::TraceSample sample,
                              const ShardBinding* b) const {
  const std::size_t n = pkts.size();
  if (n == 0) return;
  const std::size_t num_chains = chain_count_;
  s.chains.assign(n * num_chains, 0u);

  // Stage laps are a runtime check per stage (per batch, or per CMU for
  // the SALU walk), so profiling never reads the clock per packet.
  const bool profiled = trace::StageProfiler::global().sample_batch();
  trace::BatchStageSample prof;
  batch_passes(pkts, s, profiled ? &prof : nullptr);
  if constexpr (kTraced) start_records(pkts, s, sample);
  std::uint64_t t0 = profiled ? trace::now_cycles() : 0;

  // Attribute stages, group-major.  Within a CMU packets run in trace
  // order, so final register state is byte-identical to per-packet
  // processing; chain channels are per-packet, so reordering across CMUs
  // of different packets cannot be observed.  Counter totals aggregate per
  // batch and flush once — into the shared atomics on the live path, into
  // the shard's private block (slot layout: see counter_slots()) when a
  // binding is given.
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    const CompiledGroup& g = groups_[gi];
    const std::uint64_t hashes =
        static_cast<std::uint64_t>(n) * g.configured_units;
    if (b != nullptr) {
      b->counters[gi * 2] += n;
      b->counters[gi * 2 + 1] += hashes;
    } else {
      if (g.packets != nullptr) g.packets->inc(n);
      if (g.hashes != nullptr && hashes != 0) g.hashes->inc(hashes);
    }
    for (std::uint32_t c = g.cmu_begin; c < g.cmu_end; ++c) {
      const CompiledCmu& cmu = cmus_[c];
      if (cmu.entry_begin == cmu.entry_end) continue;
      dataplane::RegisterArray& reg = b != nullptr ? *b->regs[c] : *cmu.reg;
      const std::atomic<std::uint32_t>* reg_cells = reg.data();
      std::uint64_t updates = 0, sampled_out = 0, prep_aborts = 0;
      std::array<std::uint64_t, 5> op_counts{};
      for (std::size_t p = 0; p < n; ++p) {
        // Prefetch the register row the NEXT packet will touch: its
        // translated address is already in the SoA buffer, and
        // first-match-wins tells us which entry's row that will be
        // (sampling can still divert — then the hint is merely wasted).
        if (p + kPrefetchDistance < n) {
          const std::size_t q = p + kPrefetchDistance;
          for (std::uint32_t i = cmu.entry_begin; i < cmu.entry_end; ++i) {
            if (s.match[std::size_t{i} * n + q] != 0) {
              prefetch_row(reg_cells, s.addr[std::size_t{i} * n + q]);
              break;
            }
          }
        }
        telemetry::TraceRecord* rec = nullptr;
        if constexpr (kTraced) {
          if (s.record_of[p] != ~std::uint32_t{0}) {
            rec = &s.records[s.record_of[p]];
          }
        }
        run_cmu<kTraced>(cmu, reg, pkts[p], s.keys[p], s, n, p,
                         &s.chains[p * num_chains], updates, sampled_out,
                         prep_aborts, op_counts, rec);
      }
      if (profiled) {
        const std::uint64_t now = trace::now_cycles();
        prof.add(trace::Stage::kSalu, now - t0, n);
        t0 = now;
      }
      if (b != nullptr) {
        std::uint64_t* slot = &b->counters[groups_.size() * 2 + c * 8];
        slot[0] += updates;
        slot[1] += sampled_out;
        slot[2] += prep_aborts;
        for (std::size_t op = 0; op < op_counts.size(); ++op) {
          slot[3 + op] += op_counts[op];
        }
        continue;
      }
      // Flush the batch-aggregated counters (Counter::inc self-gates on
      // telemetry::enabled()).
      if (updates != 0 && cmu.updates != nullptr) cmu.updates->inc(updates);
      if (sampled_out != 0 && cmu.sampled_out != nullptr)
        cmu.sampled_out->inc(sampled_out);
      if (prep_aborts != 0 && cmu.prep_aborts != nullptr)
        cmu.prep_aborts->inc(prep_aborts);
      for (std::size_t op = 0; op < op_counts.size(); ++op) {
        if (op_counts[op] != 0 && cmu.op_counters[op] != nullptr) {
          cmu.op_counters[op]->inc(op_counts[op]);
        }
      }
    }
  }

  if (profiled) trace::StageProfiler::global().record_batch(prof);
}

std::vector<Cell> ExecPlan::traced_cells(std::span<const Packet> pkts,
                                         telemetry::TraceSample sample,
                                         BatchScratch& s) const {
  std::vector<Packet> traced;
  for (std::size_t p = sample.first_traced(); p < pkts.size();
       p += sample.every) {
    traced.push_back(pkts[p]);
  }
  const std::size_t m = traced.size();
  batch_passes(traced, s, nullptr);
  std::vector<Cell> cells;
  for (std::uint32_t c = 0; c < cmus_.size(); ++c) {
    for (std::size_t i = cmus_[c].entry_begin; i < cmus_[c].entry_end; ++i) {
      for (std::size_t t = 0; t < m; ++t) {
        if (s.match[i * m + t] != 0) cells.push_back({c, s.addr[i * m + t]});
      }
    }
  }
  std::sort(cells.begin(), cells.end());
  cells.erase(std::unique(cells.begin(), cells.end()), cells.end());
  return cells;
}

std::uint32_t ExecPlan::step_result(std::uint32_t entry, std::uint32_t cur,
                                    std::uint32_t p1,
                                    std::uint32_t p2) const noexcept {
  const CompiledEntry& e = entries_[entry];
  return exported(e, cur, p1, salu(e, cur, p1, p2).result);
}

void ExecPlan::flush_counter_block(std::span<std::uint64_t> block) const {
  const auto flush = [&](std::size_t slot, telemetry::Counter* c) {
    if (block[slot] != 0) {
      if (c != nullptr) c->inc(block[slot]);
      block[slot] = 0;
    }
  };
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    flush(gi * 2, groups_[gi].packets);
    flush(gi * 2 + 1, groups_[gi].hashes);
  }
  for (std::size_t c = 0; c < cmus_.size(); ++c) {
    const std::size_t base = groups_.size() * 2 + c * 8;
    flush(base, cmus_[c].updates);
    flush(base + 1, cmus_[c].sampled_out);
    flush(base + 2, cmus_[c].prep_aborts);
    for (std::size_t op = 0; op < 5; ++op) {
      flush(base + 3 + op, cmus_[c].op_counters[op]);
    }
  }
}

}  // namespace flymon::exec
