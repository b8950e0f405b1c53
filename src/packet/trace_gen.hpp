// Synthetic trace generation.
//
// The paper evaluates on a WIDE/MAWI backbone trace (~10K flows per epoch,
// 9M/18M packets per 15/30 s window) which we cannot redistribute.  This
// generator produces seeded traces with the properties the experiments
// depend on: heavy-tailed (Zipf) flow sizes, configurable flow/packet
// counts, timestamps, queue metadata, plus injectors for traffic spikes and
// DDoS victim patterns.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "packet/packet.hpp"

namespace flymon {

struct TraceConfig {
  std::size_t num_flows = 10'000;
  std::size_t num_packets = 500'000;
  double zipf_alpha = 1.05;        ///< skew of per-flow packet counts
  std::uint64_t seed = 1;
  std::uint64_t duration_ns = 1'000'000'000;  ///< trace time span
  std::uint32_t src_ip_base = 0x0A00'0000;    ///< 10.0.0.0 pool
  std::uint32_t dst_ip_base = 0xC0A8'0000;    ///< 192.168.0.0 pool
  bool vary_packet_size = true;    ///< else all packets are 1000 B
};

struct DdosConfig {
  std::size_t num_victims = 20;          ///< DstIPs under attack
  std::size_t spreaders_per_victim = 2'000;  ///< distinct SrcIPs per victim
  std::size_t packets_per_spreader = 1;
  std::uint32_t victim_ip_base = 0xC0A8'6400;  ///< 192.168.100.0
  std::uint64_t seed = 7;
};

/// Streaming form of the Zipf background workload: packets are produced
/// one at a time, in non-decreasing timestamp order, with NO trace
/// materialised.  TraceGenerator::generate() drains one of these, so the
/// batched benches/tests and the streaming ingest engine (src/ingest)
/// share a single seeded implementation — a TraceStream and a
/// generate() call with the same config produce byte-identical packets.
class TraceStream {
 public:
  explicit TraceStream(const TraceConfig& cfg);

  bool done() const noexcept { return emitted_ >= cfg_.num_packets; }
  std::size_t remaining() const noexcept { return cfg_.num_packets - emitted_; }

  /// The next packet without consuming it (valid only while !done()).
  const Packet& peek();
  /// Consume and return the next packet (valid only while !done()).
  Packet next();

 private:
  void generate_next();

  TraceConfig cfg_;
  Rng rng_;
  std::vector<FiveTuple> flows_;
  ZipfSampler zipf_;
  std::uint64_t step_;
  std::size_t emitted_ = 0;
  Packet cur_{};
  bool cur_valid_ = false;
};

class TraceGenerator {
 public:
  /// Zipf background trace: flows are random distinct 5-tuples; per-packet
  /// flow choice is Zipf(alpha); timestamps increase over duration_ns.
  /// Implemented as a drained TraceStream (see above).
  static std::vector<Packet> generate(const TraceConfig& cfg);

  /// Append a DDoS pattern (many distinct sources per victim destination)
  /// on top of `trace`, interleaved in time, then re-sort by timestamp.
  static void inject_ddos(std::vector<Packet>& trace, const DdosConfig& cfg,
                          std::uint64_t duration_ns);

  /// Stable sort by timestamp (injectors append out of order).
  static void sort_by_time(std::vector<Packet>& trace);

  /// Slice [t_begin_ns, t_end_ns) of a time-sorted trace (copies packets).
  static std::vector<Packet> slice(const std::vector<Packet>& trace,
                                   std::uint64_t t_begin_ns, std::uint64_t t_end_ns);
};

}  // namespace flymon
