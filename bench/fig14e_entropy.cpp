// Paper Figure 14e: flow entropy relative error vs memory —
// FlyMon-MRAC (EM over the counter-value histogram) vs UnivMon (G-sum).
#include "bench/bench_util.hpp"
#include "sketch/univmon.hpp"

using namespace flymon;

namespace {

double flymon_mrac_re(std::size_t mem_bytes, const std::vector<Packet>& trace,
                      double truth) {
  TaskSpec spec;
  spec.key = FlowKeySpec::five_tuple();
  spec.attribute = AttributeKind::kFrequency;
  spec.algorithm = Algorithm::kMrac;
  spec.memory_buckets =
      static_cast<std::uint32_t>(std::max<std::size_t>(64, mem_bytes / 4));
  auto inst = bench::deploy_flymon(spec);
  if (!inst.ok) return -1;
  inst.dp->process_batch(trace);
  return analysis::relative_error(truth, inst.ctl->estimate_entropy(inst.task_id));
}

double univmon_re(std::size_t mem_bytes, const std::vector<Packet>& trace,
                  double truth) {
  auto um = sketch::UnivMon::with_memory(mem_bytes);
  for (const Packet& p : trace) um.update(extract_flow_key(p, FlowKeySpec::five_tuple()));
  return analysis::relative_error(truth, um.estimate_entropy());
}

}  // namespace

int main() {
  bench::header("Figure 14e", "Flow entropy: relative error vs memory");

  TraceConfig cfg;
  cfg.num_flows = 30'000;
  cfg.num_packets = 800'000;
  cfg.zipf_alpha = 0.6;
  const auto trace = TraceGenerator::generate(cfg);
  const FreqMap freq = ExactStats::frequency(trace, FlowKeySpec::five_tuple());
  const double truth = ExactStats::flow_entropy(freq);
  std::printf("trace: %zu pkts, %zu flows, true entropy %.4f nats\n\n", trace.size(),
              freq.size(), truth);

  std::printf("%10s %12s %12s\n", "memory", "UnivMon", "FlyMon-MRAC");
  for (std::size_t kb : {64u, 128u, 200u, 256u, 384u, 512u}) {
    const std::size_t bytes = kb * 1024;
    std::printf("%10s %12.4f %12.4f\n", bench::fmt_mem(bytes).c_str(),
                univmon_re(bytes, trace, truth), flymon_mrac_re(bytes, trace, truth));
  }
  std::printf("\n(paper: MRAC reaches RE < 0.2 with ~200 KB; UnivMon needs ~340 KB)\n");
  return 0;
}
