// Paper Figure 14c: DDoS victim detection F1 vs memory — FlyMon-BeauCoup
// (multiple coupon tables, cross-table AND) vs the original BeauCoup
// (per-slot checksums), both at d=1 and d=3.  Threshold: 512 distinct
// sources per destination.
#include "bench/bench_util.hpp"
#include "sketch/beaucoup.hpp"

using namespace flymon;

namespace {

constexpr std::uint64_t kThreshold = 512;

double flymon_f1(unsigned d, std::size_t mem_bytes, const std::vector<Packet>& trace,
                 const FreqMap& truth, const std::vector<FlowKeyValue>& victims) {
  TaskSpec spec;
  spec.key = FlowKeySpec::dst_ip();
  spec.attribute = AttributeKind::kDistinct;
  spec.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  spec.algorithm = Algorithm::kBeauCoup;
  spec.report_threshold = kThreshold;
  spec.rows = d;
  spec.memory_buckets =
      static_cast<std::uint32_t>(std::max<std::size_t>(32, mem_bytes / (4 * d)));
  auto inst = bench::deploy_flymon(spec);
  if (!inst.ok) return -1;
  inst.dp->process_batch(trace);
  const auto reported = inst.ctl->detect_over_threshold(
      inst.task_id, bench::keys_of(truth), kThreshold);
  return analysis::score_detection(victims, reported).f1();
}

double beaucoup_f1(unsigned d, std::size_t mem_bytes, const std::vector<Packet>& trace,
                   const FreqMap& truth, const std::vector<FlowKeyValue>& victims) {
  auto cfg = sketch::CouponConfig::for_threshold(kThreshold, 32, 32);
  auto bc = sketch::BeauCoup::with_memory(d, mem_bytes, cfg);
  for (const Packet& p : trace) {
    const FlowKeyValue k = extract_flow_key(p, FlowKeySpec::dst_ip());
    const FlowKeyValue src = extract_flow_key(p, FlowKeySpec::src_ip());
    bc.update({k.bytes.data(), k.bytes.size()}, {src.bytes.data(), src.bytes.size()});
  }
  std::vector<FlowKeyValue> reported;
  for (const auto& [k, f] : truth) {
    if (bc.reported({k.bytes.data(), k.bytes.size()})) reported.push_back(k);
  }
  return analysis::score_detection(victims, reported).f1();
}

}  // namespace

int main() {
  bench::header("Figure 14c", "DDoS victims: F1 vs memory (threshold 512 sources)");

  TraceConfig cfg;
  cfg.num_flows = 10'000;
  cfg.num_packets = 400'000;
  auto trace = TraceGenerator::generate(cfg);
  DdosConfig ddos;
  ddos.num_victims = 50;
  ddos.spreaders_per_victim = 1200;
  TraceGenerator::inject_ddos(trace, ddos, cfg.duration_ns);

  const FreqMap truth = ExactStats::distinct(trace, FlowKeySpec::dst_ip(),
                                             FlowKeySpec::src_ip());
  const auto victims = ExactStats::over_threshold(truth, kThreshold);
  std::printf("trace: %zu pkts, %zu dst keys, %zu true victims\n\n", trace.size(),
              truth.size(), victims.size());

  std::printf("%10s %14s %14s %14s %14s\n", "memory", "FM-BC (d=1)", "FM-BC (d=3)",
              "BeauCoup d=1", "BeauCoup d=3");
  for (std::size_t kb : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    const std::size_t bytes = kb * 1024;
    std::printf("%10s %14.3f %14.3f %14.3f %14.3f\n", bench::fmt_mem(bytes).c_str(),
                flymon_f1(1, bytes, trace, truth, victims),
                flymon_f1(3, bytes, trace, truth, victims),
                beaucoup_f1(1, bytes, trace, truth, victims),
                beaucoup_f1(3, bytes, trace, truth, victims));
  }
  std::printf("\n(paper: FlyMon-BeauCoup passes the original once memory exceeds "
              "~100 KB)\n");
  return 0;
}
