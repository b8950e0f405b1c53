// The troubleshooting scenario from the paper's introduction: a tenant
// reports degraded service; the operator walks through measurement tasks
// *on the fly* — cardinality, DDoS victim detection, heavy hitters —
// without ever reloading the data plane.
#include <cstdio>
#include <vector>

#include "control/controller.hpp"
#include "packet/trace_gen.hpp"

using namespace flymon;

namespace {

void banner(const char* step) { std::printf("\n=== %s ===\n", step); }

std::vector<Packet> make_traffic() {
  TraceConfig cfg;
  cfg.num_flows = 8000;
  cfg.num_packets = 300'000;
  auto trace = TraceGenerator::generate(cfg);
  DdosConfig ddos;
  ddos.num_victims = 5;
  ddos.spreaders_per_victim = 3000;
  TraceGenerator::inject_ddos(trace, ddos, cfg.duration_ns);
  return trace;
}

}  // namespace

int main() {
  FlyMonDataPlane dataplane(9);
  control::Controller controller(dataplane);
  const auto trace = make_traffic();

  // --- Step 1: is the flow count abnormal?  Deploy cardinality. ---
  banner("step 1: flow cardinality (HyperLogLog on one CMU)");
  TaskSpec card;
  card.name = "cardinality";
  card.attribute = AttributeKind::kDistinct;
  card.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  card.algorithm = Algorithm::kHyperLogLog;
  card.memory_buckets = 4096;
  const auto card_h = controller.add_task(card);
  std::printf("deployed in %.2f ms\n", card_h.report.delay_ms());

  dataplane.process_batch(trace);
  std::printf("estimated distinct 5-tuples: %.0f (true: %llu)\n",
              controller.estimate_cardinality(card_h.task_id),
              static_cast<unsigned long long>(
                  ExactStats::cardinality(trace, FlowKeySpec::five_tuple())));

  // --- Step 2: cardinality is huge -> suspect DDoS.  Reconfigure. ---
  banner("step 2: swap in DDoS victim detection (FlyMon-BeauCoup)");
  controller.remove_task(card_h.task_id);
  TaskSpec ddos;
  ddos.name = "ddos victims";
  ddos.key = FlowKeySpec::dst_ip();
  ddos.attribute = AttributeKind::kDistinct;
  ddos.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  ddos.algorithm = Algorithm::kBeauCoup;
  ddos.report_threshold = 512;
  ddos.memory_buckets = 16384;
  ddos.rows = 3;
  const auto ddos_h = controller.add_task(ddos);
  std::printf("reconfigured in %.2f ms -- traffic kept flowing\n",
              ddos_h.report.delay_ms());

  dataplane.clear_registers();
  dataplane.process_batch(trace);

  const FreqMap spread = ExactStats::distinct(trace, ddos.key, FlowKeySpec::src_ip());
  std::vector<FlowKeyValue> candidates;
  for (const auto& [k, v] : spread) candidates.push_back(k);
  const auto victims = controller.detect_over_threshold(ddos_h.task_id, candidates, 512);
  std::printf("victims reported: %zu\n", victims.size());
  for (const auto& v : victims) {
    const Packet p = packet_from_candidate_key(v.bytes);
    std::printf("  victim %u.%u.%u.%u  (true spreaders: %llu)\n", p.ft.dst_ip >> 24,
                (p.ft.dst_ip >> 16) & 255, (p.ft.dst_ip >> 8) & 255, p.ft.dst_ip & 255,
                static_cast<unsigned long long>(spread.at(v)));
  }

  // --- Step 3: find the elephant flows to reschedule. ---
  banner("step 3: add heavy-hitter detection alongside (same hardware)");
  TaskSpec hh;
  hh.name = "heavy hitters";
  hh.key = FlowKeySpec::five_tuple();
  hh.attribute = AttributeKind::kFrequency;
  hh.memory_buckets = 32768;
  hh.rows = 3;
  const auto hh_h = controller.add_task(hh);
  std::printf("added in %.2f ms; now %zu concurrent tasks\n", hh_h.report.delay_ms(),
              controller.num_tasks());

  dataplane.clear_registers();
  dataplane.process_batch(trace);

  const FreqMap sizes = ExactStats::frequency(trace, hh.key);
  std::vector<FlowKeyValue> flows;
  for (const auto& [k, v] : sizes) flows.push_back(k);
  const auto heavy = controller.detect_over_threshold(hh_h.task_id, flows, 2048);
  std::printf("flows over 2048 pkts: %zu (true: %zu)\n", heavy.size(),
              ExactStats::over_threshold(sizes, 2048).size());
  return 0;
}
