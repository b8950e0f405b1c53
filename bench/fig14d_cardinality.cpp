// Paper Figure 14d: flow cardinality relative error vs memory —
// original BeauCoup (tiny but bounded accuracy) vs FlyMon-HLL (more memory
// buys much higher accuracy).
#include "bench/bench_util.hpp"
#include "sketch/beaucoup.hpp"

using namespace flymon;

namespace {

double flymon_hll_re(std::size_t mem_bytes, const std::vector<Packet>& trace,
                     double truth) {
  TaskSpec spec;
  spec.attribute = AttributeKind::kDistinct;
  spec.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  spec.algorithm = Algorithm::kHyperLogLog;
  spec.memory_buckets =
      static_cast<std::uint32_t>(std::max<std::size_t>(4, mem_bytes / 4));
  auto inst = bench::deploy_flymon(spec);
  if (!inst.ok) return -1;
  inst.dp->process_batch(trace);
  return analysis::relative_error(truth, inst.ctl->estimate_cardinality(inst.task_id));
}

double beaucoup_re(std::size_t mem_bytes, const std::vector<Packet>& trace,
                   double truth) {
  // Single-key distinct counting: every packet belongs to one logical flow;
  // the coupon configuration targets the expected traffic scale (an
  // operator-chosen constant — it must not peek at the answer).
  auto cfg = sketch::CouponConfig::for_threshold(128.0 * 1024, 32, 24);
  auto bc = sketch::BeauCoup::with_memory(1, std::max<std::size_t>(8, mem_bytes), cfg);
  const FlowKeyValue all{};  // the single whole-traffic key
  for (const Packet& p : trace) {
    const FlowKeyValue ft = extract_flow_key(p, FlowKeySpec::five_tuple());
    bc.update({all.bytes.data(), all.bytes.size()}, {ft.bytes.data(), ft.bytes.size()});
  }
  return analysis::relative_error(truth, bc.estimate({all.bytes.data(), all.bytes.size()}));
}

}  // namespace

int main() {
  bench::header("Figure 14d", "Flow cardinality: relative error vs memory");

  TraceConfig cfg;
  cfg.num_flows = 100'000;
  cfg.num_packets = 400'000;
  cfg.zipf_alpha = 0.3;
  const auto trace = TraceGenerator::generate(cfg);
  const double truth =
      static_cast<double>(ExactStats::cardinality(trace, FlowKeySpec::five_tuple()));
  std::printf("trace: %zu pkts, true cardinality %.0f\n\n", trace.size(), truth);

  std::printf("%10s %12s %12s\n", "memory", "BeauCoup", "FlyMon-HLL");
  for (std::size_t bytes : {16u, 64u, 256u, 1024u, 4096u, 8192u}) {
    std::printf("%10s %12.4f %12.4f\n", bench::fmt_mem(bytes).c_str(),
                beaucoup_re(bytes, trace, truth), flymon_hll_re(bytes, trace, truth));
  }
  std::printf("\n(paper: BeauCoup achieves RE < 0.2 with 16 B; HLL reaches much "
              "higher accuracy as memory grows toward 8 KB)\n");
  return 0;
}
