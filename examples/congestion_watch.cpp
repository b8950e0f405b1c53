// Congestion and head-of-line monitoring with the Max attribute: per-flow
// maximum queue length (SuMax) and maximum packet inter-arrival time (the
// composite 3-CMU task from paper §4).
#include <cstdio>
#include <vector>

#include "control/controller.hpp"
#include "packet/trace_gen.hpp"

using namespace flymon;

int main() {
  FlyMonDataPlane dataplane(9);
  control::Controller controller(dataplane);

  // Per-IP-pair maximum queue length observed (congestion detection).
  TaskSpec congestion;
  congestion.name = "congestion";
  congestion.key = FlowKeySpec::ip_pair();
  congestion.attribute = AttributeKind::kMax;
  congestion.param = ParamSpec::metadata(MetaField::kQueueLen);
  congestion.memory_buckets = 32768;
  congestion.rows = 2;
  const auto cg = controller.add_task(congestion);
  if (!cg.ok) {
    std::fprintf(stderr, "congestion task failed: %s\n", cg.error.c_str());
    return 1;
  }
  std::printf("congestion watch deployed (%.2f ms, %u CMUs)\n", cg.report.delay_ms(),
              cg.report.cmus_used);

  // Per-flow maximum inter-arrival time (combinatorial: Bloom filter +
  // last-timestamp CMU + interval CMU, chained across three CMU Groups).
  TaskSpec interval;
  interval.name = "max inter-arrival";
  interval.key = FlowKeySpec::five_tuple();
  interval.attribute = AttributeKind::kMax;
  interval.algorithm = Algorithm::kMaxInterarrival;
  interval.memory_buckets = 32768;
  interval.rows = 2;
  const auto iv = controller.add_task(interval);
  if (!iv.ok) {
    std::fprintf(stderr, "interval task failed: %s\n", iv.error.c_str());
    return 1;
  }
  std::printf("inter-arrival watch deployed (%.2f ms, %u CMUs across groups)\n",
              iv.report.delay_ms(), iv.report.cmus_used);

  TraceConfig cfg;
  cfg.num_flows = 3000;
  cfg.num_packets = 200'000;
  const std::vector<Packet> trace = TraceGenerator::generate(cfg);
  dataplane.process_batch(trace);

  // Readout vs ground truth for the ten busiest pairs.
  const FreqMap qtruth = ExactStats::max_value(trace, congestion.key, MetaField::kQueueLen);
  std::printf("\n%-34s %8s %8s\n", "ip pair", "true max", "est");
  unsigned shown = 0;
  for (const auto& [key, truth] : qtruth) {
    if (truth < 120) continue;
    const Packet p = packet_from_candidate_key(key.bytes);
    std::printf("%3u.%u.%u.%u -> %u.%u.%u.%u%*s %8llu %8llu\n", p.ft.src_ip >> 24,
                (p.ft.src_ip >> 16) & 255, (p.ft.src_ip >> 8) & 255, p.ft.src_ip & 255,
                p.ft.dst_ip >> 24, (p.ft.dst_ip >> 16) & 255, (p.ft.dst_ip >> 8) & 255,
                p.ft.dst_ip & 255, 4, "", static_cast<unsigned long long>(truth),
                static_cast<unsigned long long>(controller.query_value(cg.task_id, p)));
    if (++shown == 10) break;
  }

  const FreqMap gaps = ExactStats::max_interarrival(trace, interval.key);
  double sum_err = 0;
  unsigned n = 0;
  for (const auto& [key, truth] : gaps) {
    if (truth == 0) continue;
    const Packet p = packet_from_candidate_key(key.bytes);
    const std::uint64_t est = controller.query_max_interarrival_ns(iv.task_id, p);
    sum_err += truth == 0 ? 0
                          : std::abs(static_cast<double>(est) - static_cast<double>(truth)) /
                                static_cast<double>(truth);
    ++n;
  }
  std::printf("\nmax inter-arrival ARE over %u flows: %.3f\n", n,
              n ? sum_err / n : 0.0);
  return 0;
}
