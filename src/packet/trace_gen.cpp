#include "packet/trace_gen.hpp"

#include <algorithm>
#include <cstring>
#include <unordered_set>

namespace flymon {
namespace {

FiveTuple random_tuple(Rng& rng, std::uint32_t src_base, std::uint32_t dst_base) {
  FiveTuple ft;
  ft.src_ip = src_base | (rng.next_u32() & 0x00FF'FFFF);
  ft.dst_ip = dst_base | (rng.next_u32() & 0x0000'FFFF);
  ft.src_port = static_cast<std::uint16_t>(1024 + rng.next_below(64511));
  ft.dst_port = static_cast<std::uint16_t>(rng.next_bool(0.5) ? 80 : 1024 + rng.next_below(64511));
  ft.protocol = rng.next_bool(0.9) ? 6 : 17;  // mostly TCP, some UDP
  return ft;
}

}  // namespace

TraceStream::TraceStream(const TraceConfig& cfg)
    : cfg_(cfg),
      rng_(cfg.seed),
      zipf_(cfg.num_flows, cfg.zipf_alpha),
      step_(cfg.num_packets
                ? std::max<std::uint64_t>(1, cfg.duration_ns / cfg.num_packets)
                : 1) {
  // Distinct flow identities.  The flow table is drawn before any packet,
  // exactly as the batched generator always did, so the RNG stream lines
  // up packet-for-packet with historical traces.
  flows_.reserve(cfg_.num_flows);
  std::unordered_set<std::uint64_t> seen;
  while (flows_.size() < cfg_.num_flows) {
    const FiveTuple ft = random_tuple(rng_, cfg_.src_ip_base, cfg_.dst_ip_base);
    const std::uint64_t fp = hash64_value(ft, 0xF10u);
    if (seen.insert(fp).second) flows_.push_back(ft);
  }
}

void TraceStream::generate_next() {
  // Write into the stable cur_ member, copying the flow identity with
  // memcpy: several consumers hash FiveTuple as raw bytes (padding
  // included), so every packet of a flow must carry the flow-table
  // entry's exact bytes — a memberwise struct assignment through a fresh
  // stack temporary is allowed to leave padding indeterminate.
  std::memcpy(&cur_.ft, &flows_[zipf_.sample(rng_)], sizeof(FiveTuple));
  cur_.ts_ns = emitted_ * step_ + rng_.next_below(step_);
  cur_.wire_bytes = cfg_.vary_packet_size
                        ? static_cast<std::uint32_t>(64 + rng_.next_below(1437))
                        : 1000u;
  // Queue metadata: a slowly-varying sawtooth base plus noise, so Max
  // attribute tasks have a meaningful signal.
  const std::uint32_t base = static_cast<std::uint32_t>((emitted_ / 1024) % 96);
  cur_.queue_len = base + static_cast<std::uint32_t>(rng_.next_below(32));
  cur_.queue_delay_ns =
      cur_.queue_len * 500 + static_cast<std::uint32_t>(rng_.next_below(2000));
  cur_valid_ = true;
}

const Packet& TraceStream::peek() {
  if (!cur_valid_) generate_next();
  return cur_;
}

Packet TraceStream::next() {
  if (!cur_valid_) generate_next();
  cur_valid_ = false;
  ++emitted_;
  return cur_;
}

std::vector<Packet> TraceGenerator::generate(const TraceConfig& cfg) {
  TraceStream stream(cfg);
  std::vector<Packet> trace;
  trace.reserve(cfg.num_packets);
  while (!stream.done()) trace.push_back(stream.next());
  return trace;
}

void TraceGenerator::inject_ddos(std::vector<Packet>& trace, const DdosConfig& cfg,
                                 std::uint64_t duration_ns) {
  Rng rng(cfg.seed);
  for (std::size_t v = 0; v < cfg.num_victims; ++v) {
    const std::uint32_t victim_ip = cfg.victim_ip_base + static_cast<std::uint32_t>(v);
    for (std::size_t s = 0; s < cfg.spreaders_per_victim; ++s) {
      const std::uint32_t attacker = 0x2C00'0000 | (rng.next_u32() & 0x00FF'FFFF);
      for (std::size_t k = 0; k < cfg.packets_per_spreader; ++k) {
        Packet p;
        p.ft.src_ip = attacker;
        p.ft.dst_ip = victim_ip;
        p.ft.src_port = static_cast<std::uint16_t>(1024 + rng.next_below(60000));
        p.ft.dst_port = 80;
        p.ft.protocol = 6;
        p.wire_bytes = 60;
        p.ts_ns = rng.next_below(duration_ns);
        trace.push_back(p);
      }
    }
  }
  sort_by_time(trace);
}

void TraceGenerator::sort_by_time(std::vector<Packet>& trace) {
  std::stable_sort(trace.begin(), trace.end(),
                   [](const Packet& a, const Packet& b) { return a.ts_ns < b.ts_ns; });
}

std::vector<Packet> TraceGenerator::slice(const std::vector<Packet>& trace,
                                          std::uint64_t t_begin_ns,
                                          std::uint64_t t_end_ns) {
  const auto lo = std::lower_bound(
      trace.begin(), trace.end(), t_begin_ns,
      [](const Packet& p, std::uint64_t t) { return p.ts_ns < t; });
  const auto hi = std::lower_bound(
      lo, trace.end(), t_end_ns,
      [](const Packet& p, std::uint64_t t) { return p.ts_ns < t; });
  return {lo, hi};
}

}  // namespace flymon
