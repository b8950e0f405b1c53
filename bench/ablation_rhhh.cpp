// Extension bench: Randomized Hierarchical Heavy Hitters composed from
// FlyMon frequency tasks sharing CMUs through probabilistic execution —
// the RHHH entry of the paper's Fig 5 algorithm list, measured against
// exact hierarchical ground truth.
#include <unordered_set>

#include "bench/bench_util.hpp"
#include "control/rhhh.hpp"

using namespace flymon;

namespace {

/// Exact HHH: residual frequency per prefix level, finest first.
std::vector<std::pair<std::uint8_t, FlowKeyValue>> exact_hhh(
    const std::vector<Packet>& trace, const std::vector<std::uint8_t>& levels,
    std::uint64_t threshold) {
  std::vector<std::pair<std::uint8_t, FlowKeyValue>> out;
  std::unordered_map<FlowKeyValue, std::uint64_t> discount;
  for (std::size_t li = levels.size(); li-- > 0;) {
    const FlowKeySpec spec = FlowKeySpec::src_ip(levels[li]);
    const FreqMap freq = ExactStats::frequency(trace, spec);
    for (const auto& [prefix, total] : freq) {
      const auto it = discount.find(prefix);
      const std::uint64_t residual =
          total > (it == discount.end() ? 0 : it->second)
              ? total - (it == discount.end() ? 0 : it->second)
              : 0;
      if (residual < threshold) continue;
      out.emplace_back(levels[li], prefix);
      for (std::size_t aj = 0; aj < li; ++aj) {
        discount[mask_candidate_key(prefix.bytes, FlowKeySpec::src_ip(levels[aj]))] +=
            residual;
      }
    }
  }
  return out;
}

}  // namespace

int main() {
  bench::header("Extension: RHHH",
                "Hierarchical heavy hitters via probabilistic execution");

  const std::vector<std::uint8_t> levels = {8, 16, 24, 32};
  constexpr std::uint64_t kThreshold = 8192;

  TraceConfig cfg;
  cfg.num_flows = 20'000;
  cfg.num_packets = 1'000'000;
  cfg.zipf_alpha = 1.1;
  const auto trace = TraceGenerator::generate(cfg);
  const auto truth = exact_hhh(trace, levels, kThreshold);
  std::printf("trace: %zu pkts; %zu true HHHs at threshold %llu\n\n", trace.size(),
              truth.size(), static_cast<unsigned long long>(kThreshold));

  std::printf("%12s %10s %10s %10s\n", "buckets/task", "reported", "true-pos",
              "F1");
  for (std::uint32_t buckets : {2048u, 4096u, 8192u, 16384u}) {
    FlyMonDataPlane dp(9);
    control::Controller ctl(dp);
    const auto task = control::RhhhTask::deploy(ctl, levels, buckets);
    if (!task.ok()) {
      std::printf("%12u deploy failed: %s\n", buckets, task.error().c_str());
      continue;
    }
    dp.process_batch(trace);

    std::vector<FlowKeyValue> candidates;
    {
      std::unordered_set<FlowKeyValue> seen;
      for (const Packet& p : trace) {
        const auto k = extract_flow_key(p, FlowKeySpec::src_ip());
        if (seen.insert(k).second) candidates.push_back(k);
      }
    }
    const auto reports = task.hierarchical_heavy_hitters(ctl, candidates, kThreshold);

    std::unordered_set<FlowKeyValue> truth_keys;
    for (const auto& [len, k] : truth) truth_keys.insert(k);
    std::size_t tp = 0;
    for (const auto& r : reports) tp += truth_keys.count(r.key);
    const double precision = reports.empty() ? 0.0 : double(tp) / reports.size();
    const double recall = truth.empty() ? 0.0 : double(tp) / truth.size();
    const double f1 =
        precision + recall > 0 ? 2 * precision * recall / (precision + recall) : 0.0;
    std::printf("%12u %10zu %10zu %10.3f\n", buckets, reports.size(), tp, f1);
  }
  std::printf("\n(each of the 4 prefix levels samples 1/4 of the packets on "
              "shared CMUs; estimates are rescaled at readout)\n");
  return 0;
}
