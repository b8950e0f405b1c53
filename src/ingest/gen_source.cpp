#include "ingest/gen_source.hpp"

#include <algorithm>

namespace flymon::ingest {

GeneratorPhase fig12b_epoch(unsigned e, std::uint64_t epoch_ns) {
  GeneratorPhase phase;
  TraceConfig base;
  base.num_flows = 10'000;
  base.num_packets = 120'000;
  base.seed = 1000 + e;
  base.duration_ns = epoch_ns;
  phase.components.push_back(base);
  if (e >= 6 && e <= 15) {
    // Spike flows come from the same 10/8 pool so task A sees them.
    TraceConfig spike = base;
    spike.num_flows = 30'000;
    spike.num_packets = 60'000;
    spike.seed = 9000 + e;
    spike.zipf_alpha = 0.2;
    phase.components.push_back(spike);
  }
  return phase;
}

GeneratorConfig fig12b_scenario(unsigned epochs, std::uint64_t epoch_ns) {
  GeneratorConfig cfg;
  for (unsigned e = 0; e < epochs; ++e) {
    GeneratorPhase phase = fig12b_epoch(e, epoch_ns);
    phase.t_begin_ns = static_cast<std::uint64_t>(e) * epoch_ns;
    cfg.phases.push_back(std::move(phase));
  }
  return cfg;
}

std::vector<Packet> materialize(const GeneratorPhase& phase) {
  std::vector<Packet> trace;
  for (const TraceConfig& c : phase.components) {
    auto part = TraceGenerator::generate(c);
    trace.insert(trace.end(), part.begin(), part.end());
  }
  for (const DdosConfig& d : phase.ddos) {
    TraceGenerator::inject_ddos(trace, d, phase.ddos_duration_ns);
  }
  TraceGenerator::sort_by_time(trace);
  if (phase.t_begin_ns != 0) {
    for (Packet& p : trace) p.ts_ns += phase.t_begin_ns;
  }
  return trace;
}

std::vector<Packet> materialize(const GeneratorConfig& cfg) {
  std::vector<Packet> trace;
  for (const GeneratorPhase& phase : cfg.phases) {
    auto part = materialize(phase);
    trace.insert(trace.end(), part.begin(), part.end());
  }
  return trace;
}

// One open phase: live component streams plus the phase's buffered DDoS
// packets (time-sorted).  The merge pops the smallest timestamp each
// step, breaking ties "lowest component index first, DDoS last" — exactly
// the order a stable sort gives the materialised concatenation, so the
// stream and materialize() agree byte for byte.
struct GeneratorSource::Phase {
  std::uint64_t t_begin_ns = 0;
  std::vector<TraceStream> streams;
  std::vector<Packet> extra;  // ddos, sorted
  std::size_t extra_pos = 0;

  bool done() const {
    if (extra_pos < extra.size()) return false;
    for (const TraceStream& s : streams) {
      if (!s.done()) return false;
    }
    return true;
  }

  bool next(Packet& out) {
    TraceStream* best = nullptr;
    std::uint64_t best_ts = 0;
    for (TraceStream& s : streams) {
      if (s.done()) continue;
      const std::uint64_t ts = s.peek().ts_ns;
      if (best == nullptr || ts < best_ts) {
        best = &s;
        best_ts = ts;
      }
    }
    if (extra_pos < extra.size() &&
        (best == nullptr || extra[extra_pos].ts_ns < best_ts)) {
      out = extra[extra_pos++];
    } else if (best != nullptr) {
      out = best->next();
    } else {
      return false;
    }
    out.ts_ns += t_begin_ns;
    return true;
  }
};

GeneratorSource::GeneratorSource(GeneratorConfig cfg) : cfg_(std::move(cfg)) {
  open_phase(0);
}

GeneratorSource::~GeneratorSource() = default;

void GeneratorSource::open_phase(std::size_t idx) {
  phase_idx_ = idx;
  phase_.reset();
  if (idx >= cfg_.phases.size()) return;
  const GeneratorPhase& def = cfg_.phases[idx];
  auto phase = std::make_unique<Phase>();
  phase->t_begin_ns = def.t_begin_ns;
  phase->streams.reserve(def.components.size());
  for (const TraceConfig& c : def.components) phase->streams.emplace_back(c);
  for (const DdosConfig& d : def.ddos) {
    TraceGenerator::inject_ddos(phase->extra, d, def.ddos_duration_ns);
  }
  phase_ = std::move(phase);
}

bool GeneratorSource::next_packet(Packet& out) {
  while (phase_ != nullptr) {
    if (phase_->next(out)) return true;
    open_phase(phase_idx_ + 1);
  }
  return false;
}

std::size_t GeneratorSource::pull(std::span<Packet> out) {
  std::size_t n = 0;
  while (n < out.size() && next_packet(out[n])) ++n;
  produced_ += n;
  return n;
}

bool GeneratorSource::done() const {
  return phase_ == nullptr ||
         (phase_->done() && phase_idx_ + 1 >= cfg_.phases.size());
}

bool GeneratorSource::rewind() {
  produced_ = 0;
  open_phase(0);
  return true;
}

}  // namespace flymon::ingest
