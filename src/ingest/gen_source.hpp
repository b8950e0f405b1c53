// On-the-fly synthetic workload source: the seeded trace builders that
// used to live in each bench .cpp, hoisted behind PacketSource so benches,
// tests, and the streaming ingest engine share ONE implementation.
//
// A workload is a sequence of PHASES played back to back on the global
// timeline.  Each phase merges (by timestamp) a set of Zipf component
// streams — e.g. a 10K-flow background plus a 30K-flow low-skew spike —
// and optionally a DDoS spreader pattern.  Component packets stream from
// packet/TraceStream with NO trace materialised (the DDoS injector's
// packets are unsorted by construction, so only those are buffered, per
// phase).  materialize() batches the same definition into a vector; a
// GeneratorSource and materialize() over the same config produce
// byte-identical packet sequences — the golden tests assert it.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ingest/packet_source.hpp"
#include "packet/trace_gen.hpp"

namespace flymon::ingest {

/// One phase of a synthetic workload.  Component timestamps are relative
/// to the phase; the source offsets them by t_begin_ns on the way out.
/// Equal-timestamp ordering is "earlier component first, DDoS last",
/// matching a stable sort of the concatenated materialised traces.
struct GeneratorPhase {
  std::uint64_t t_begin_ns = 0;
  std::vector<TraceConfig> components;
  std::vector<DdosConfig> ddos;
  /// Time span the DDoS packets are spread over (inject_ddos semantics).
  std::uint64_t ddos_duration_ns = 1'000'000'000;
};

struct GeneratorConfig {
  std::vector<GeneratorPhase> phases;
};

/// The paper's Figure 12b workload, epoch `e`: 10K-flow / 120K-packet
/// Zipf background (seed 1000+e), plus a +30K-flow / 60K-packet alpha-0.2
/// spike in epochs 6..15 (seed 9000+e).  Phase-relative timestamps.
GeneratorPhase fig12b_epoch(unsigned e,
                            std::uint64_t epoch_ns = 1'000'000'000);

/// All 20 (by default) Fig 12b epochs laid out on the global timeline.
GeneratorConfig fig12b_scenario(unsigned epochs = 20,
                                std::uint64_t epoch_ns = 1'000'000'000);

/// Materialise one phase / a whole config into a time-sorted trace with
/// the phase offsets applied — the batched form the benches consume.
std::vector<Packet> materialize(const GeneratorPhase& phase);
std::vector<Packet> materialize(const GeneratorConfig& cfg);

/// Streaming generator over a phased workload definition.
class GeneratorSource final : public PacketSource {
 public:
  explicit GeneratorSource(GeneratorConfig cfg);
  ~GeneratorSource() override;

  const char* name() const noexcept override { return "generator"; }
  std::size_t pull(std::span<Packet> out) override;
  bool done() const override;
  std::uint64_t produced() const override { return produced_; }
  bool rewind() override;

 private:
  struct Phase;  // merged component streams + buffered ddos packets

  void open_phase(std::size_t idx);
  bool next_packet(Packet& out);

  GeneratorConfig cfg_;
  std::unique_ptr<Phase> phase_;
  std::size_t phase_idx_ = 0;
  std::uint64_t produced_ = 0;
};

}  // namespace flymon::ingest
