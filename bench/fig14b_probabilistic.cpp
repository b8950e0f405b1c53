// Paper Figure 14b: heavy-hitter F1 under probabilistic execution — the
// same CMU shared by sampling packets with probability p (the workaround
// for tasks with intersecting traffic on one CMU, §3.3/§6).
#include "bench/bench_util.hpp"

using namespace flymon;

namespace {

constexpr std::uint64_t kThreshold = 1024;

double f1_at(double p, std::size_t mem_bytes, const std::vector<Packet>& trace,
             const FreqMap& truth, const std::vector<FlowKeyValue>& hh_true) {
  TaskSpec spec;
  spec.key = FlowKeySpec::five_tuple();
  spec.attribute = AttributeKind::kFrequency;
  spec.rows = 3;
  spec.sample_probability = p;
  spec.memory_buckets =
      static_cast<std::uint32_t>(std::max<std::size_t>(32, mem_bytes / (4 * spec.rows)));
  auto inst = bench::deploy_flymon(spec);
  if (!inst.ok) return -1;
  inst.dp->process_batch(trace);
  // Estimates are scaled back by 1/p at readout.
  const auto scaled_threshold =
      static_cast<std::uint64_t>(static_cast<double>(kThreshold) * p);
  const auto reported = inst.ctl->detect_over_threshold(
      inst.task_id, bench::keys_of(truth), std::max<std::uint64_t>(1, scaled_threshold));
  return analysis::score_detection(hh_true, reported).f1();
}

}  // namespace

int main() {
  bench::header("Figure 14b", "Heavy hitters under probabilistic execution");

  TraceConfig cfg;
  cfg.num_flows = 20'000;
  cfg.num_packets = 1'000'000;
  cfg.zipf_alpha = 1.05;
  const auto trace = TraceGenerator::generate(cfg);
  const FreqMap truth = ExactStats::frequency(trace, FlowKeySpec::five_tuple());
  const auto hh_true = ExactStats::over_threshold(truth, kThreshold);

  std::printf("%10s %10s %10s %10s %10s\n", "memory", "p=1.0", "p=0.5", "p=0.25",
              "p=0.125");
  for (std::size_t kb : {40u, 80u, 120u, 160u, 200u}) {
    const std::size_t bytes = kb * 1024;
    std::printf("%10s %10.3f %10.3f %10.3f %10.3f\n", bench::fmt_mem(bytes).c_str(),
                f1_at(1.0, bytes, trace, truth, hh_true),
                f1_at(0.5, bytes, trace, truth, hh_true),
                f1_at(0.25, bytes, trace, truth, hh_true),
                f1_at(0.125, bytes, trace, truth, hh_true));
  }
  std::printf("\n(paper: probabilistic execution has little effect on heavy-hitter "
              "accuracy)\n");
  return 0;
}
