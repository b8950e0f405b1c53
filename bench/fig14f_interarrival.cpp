// Paper Figure 14f: maximum packet inter-arrival time ARE vs memory for
// the composite 3-CMU task (Bloom filter + last-timestamp + interval),
// at d=2 and d=3 instances.
#include "bench/bench_util.hpp"

using namespace flymon;

namespace {

double interarrival_are(unsigned d, std::size_t mem_bytes,
                        const std::vector<Packet>& trace, const FreqMap& truth) {
  TaskSpec spec;
  spec.key = FlowKeySpec::five_tuple();
  spec.attribute = AttributeKind::kMax;
  spec.algorithm = Algorithm::kMaxInterarrival;
  spec.rows = d;
  // Each instance uses 3 CMUs (gate, timestamp, interval).
  spec.memory_buckets = static_cast<std::uint32_t>(
      std::max<std::size_t>(64, mem_bytes / (4ull * 3 * d)));
  auto inst = bench::deploy_flymon(spec);
  if (!inst.ok) return -1;
  inst.dp->process_batch(trace);

  std::vector<std::pair<double, double>> pairs;
  for (const auto& [k, gap] : truth) {
    if (gap == 0) continue;
    const Packet probe = packet_from_candidate_key(k.bytes);
    const std::uint64_t est =
        inst.ctl->query_max_interarrival_ns(inst.task_id, probe);
    pairs.emplace_back(static_cast<double>(gap), static_cast<double>(est));
  }
  return analysis::average_relative_error(pairs);
}

}  // namespace

int main() {
  bench::header("Figure 14f", "Maximum inter-arrival time: ARE vs memory");

  TraceConfig cfg;
  cfg.num_flows = 20'000;
  cfg.num_packets = 600'000;
  cfg.duration_ns = 2'000'000'000;
  const auto trace = TraceGenerator::generate(cfg);
  const FreqMap truth = ExactStats::max_interarrival(trace, FlowKeySpec::five_tuple());
  std::printf("trace: %zu pkts, %zu flows\n\n", trace.size(), truth.size());

  std::printf("%10s %10s %10s\n", "memory", "d=2", "d=3");
  for (std::size_t mb : {2u, 4u, 6u, 8u, 10u}) {
    const std::size_t bytes = mb * 1024 * 1024;
    std::printf("%10s %10.3f %10.3f\n", bench::fmt_mem(bytes).c_str(),
                interarrival_are(2, bytes, trace, truth),
                interarrival_are(3, bytes, trace, truth));
  }
  std::printf("\n(paper: ARE < 4 with 5 MB at d=3, comparable to LightGuardian)\n");
  return 0;
}
