// flymon_trace: scripted reconfiguration with span tracing enabled.
//
// Runs a Table-3-style scenario — deploy a CMS + BeauCoup + Bloom mix,
// process traffic across a worker pool, then resize and split under load —
// with span tracing on, and exports the collected timeline as Chrome
// trace-event JSON (load in ui.perfetto.dev or chrome://tracing: pid 1
// groups per-thread tracks, pid 2 one track per reconfiguration).
//
//   flymon_trace [--out <trace.json>] [--json <summary.json>] [--check]
//                [--workers N] [--packets N]
//
// --check verifies the tracing contract the DESIGN doc promises: every
// reconfiguration's end-to-end span must decompose into >= 95% covered
// plan/verify/compile/publish/fence/merge children (exit 1 otherwise).
// The summary also counts each reconfiguration's exec.fence (one per live
// publish) and ctl.verify_gate spans.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/export.hpp"
#include "trace/chrome_export.hpp"
#include "trace/span.hpp"

using namespace flymon;

namespace {

struct ReconfigSummary {
  const char* name = "";
  std::uint64_t gen = 0;
  std::uint64_t dur_ns = 0;
  double coverage = 0.0;
  std::size_t fences = 0;
  std::size_t verify_gates = 0;
};

TaskSpec cms_spec(std::uint32_t buckets) {
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kFrequency;
  s.algorithm = Algorithm::kCms;
  s.memory_buckets = buckets;
  s.rows = 3;
  s.name = "cms";
  return s;
}

TaskSpec bloom_spec() {
  TaskSpec s;
  s.key = FlowKeySpec::five_tuple();
  s.attribute = AttributeKind::kExistence;
  s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  s.algorithm = Algorithm::kBloomFilter;
  s.memory_buckets = 4096;
  s.rows = 3;
  s.name = "bloom";
  return s;
}

TaskSpec hll_spec() {
  TaskSpec s;
  s.attribute = AttributeKind::kDistinct;
  s.param = ParamSpec::compressed(FlowKeySpec::five_tuple());
  s.algorithm = Algorithm::kHyperLogLog;
  s.memory_buckets = 2048;
  s.name = "hll";
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path;
  std::string json_path;
  bool check = false;
  unsigned workers = 4;
  std::size_t packets = 20000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (arg == "--packets" && i + 1 < argc) {
      packets = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: flymon_trace [--out trace.json] [--json summary]"
                   " [--check] [--workers N] [--packets N]\n");
      return 2;
    }
  }

  trace::set_enabled(true);
  telemetry::set_enabled(true);

  CmuGroupConfig cfg;
  cfg.register_buckets = 65536;
  FlyMonDataPlane dp(9, cfg);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);  // make the verify gates part of the timeline
  dp.enable_parallel(workers);

  TraceConfig tcfg;
  tcfg.num_flows = 512;
  tcfg.num_packets = static_cast<std::uint32_t>(packets);
  const std::vector<Packet> traffic = TraceGenerator::generate(tcfg);
  const auto pump = [&] {
    dp.process_batch(traffic);  // keep the pool hot so fences wait
  };

  // Scripted reconfiguration batch: add + add + add, resize, split —
  // each under live traffic, like the paper's on-the-fly scenario.
  const auto cms = ctl.add_task(cms_spec(65536));
  if (!cms.ok) {
    std::fprintf(stderr, "cms deploy failed: %s\n", cms.error.c_str());
    return 1;
  }
  pump();
  const auto bloom = ctl.add_task(bloom_spec());
  if (!bloom.ok) {
    std::fprintf(stderr, "bloom deploy failed: %s\n", bloom.error.c_str());
    return 1;
  }
  pump();
  const auto hll = ctl.add_task(hll_spec());
  if (!hll.ok) {
    std::fprintf(stderr, "hll deploy failed: %s\n", hll.error.c_str());
    return 1;
  }
  pump();
  const auto resized = ctl.resize_task(cms.task_id, 16384);
  if (!resized.ok) {
    std::fprintf(stderr, "resize failed: %s\n", resized.error.c_str());
    return 1;
  }
  pump();
  const auto split = ctl.split_task(bloom.task_id);
  if (!split.first.ok) {
    std::fprintf(stderr, "split failed: %s\n", split.first.error.c_str());
    return 1;
  }
  pump();
  dp.merge_shards();

  const auto events = trace::SpanCollector::global().collect();
  const auto stats = trace::SpanCollector::global().stats();

  // Every top-level reconfiguration span must decompose into children.
  std::vector<ReconfigSummary> reconfigs;
  double min_coverage = 1.0;
  for (const trace::SpanEvent& e : events) {
    if (e.kind != trace::EventKind::kSpan || e.depth != 0 || e.gen == 0) {
      continue;
    }
    if (std::strncmp(e.name, "ctl.", 4) != 0) continue;
    ReconfigSummary r;
    r.name = e.name;
    r.gen = e.gen;
    r.dur_ns = e.dur_ns;
    r.coverage = trace::child_coverage(events, e);
    for (const trace::SpanEvent& c : events) {
      if (c.gen != e.gen || c.kind != trace::EventKind::kSpan) continue;
      r.fences += std::strcmp(c.name, "exec.fence") == 0;
      r.verify_gates += std::strcmp(c.name, "ctl.verify_gate") == 0;
    }
    if (r.coverage < min_coverage) min_coverage = r.coverage;
    reconfigs.push_back(r);
  }

  if (!out_path.empty()) {
    if (!trace::write_chrome_trace(out_path, events)) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
  }

  std::printf("%zu span events across %zu threads (%llu dropped), %llu "
              "reconfigurations\n",
              events.size(), stats.threads,
              static_cast<unsigned long long>(stats.dropped),
              static_cast<unsigned long long>(trace::latest_reconfig()));
  std::printf("%-18s %6s %12s %9s %7s %6s\n", "reconfiguration", "gen",
              "dur (us)", "coverage", "fences", "gates");
  for (const ReconfigSummary& r : reconfigs) {
    std::printf("%-18s %6llu %12.1f %8.1f%% %7zu %6zu\n", r.name,
                static_cast<unsigned long long>(r.gen), r.dur_ns / 1000.0,
                r.coverage * 100.0, r.fences, r.verify_gates);
  }
  if (!out_path.empty()) {
    std::printf("wrote %s (load in ui.perfetto.dev)\n", out_path.c_str());
  }

  if (!json_path.empty()) {
    std::string j = "{\n  \"events\": " + std::to_string(events.size()) +
                    ",\n  \"threads\": " + std::to_string(stats.threads) +
                    ",\n  \"dropped\": " + std::to_string(stats.dropped) +
                    ",\n  \"min_coverage\": " +
                    telemetry::format_number(min_coverage) +
                    ",\n  \"reconfigs\": [\n";
    for (std::size_t i = 0; i < reconfigs.size(); ++i) {
      const ReconfigSummary& r = reconfigs[i];
      j += "    {\"name\": \"" + std::string(r.name) +
           "\", \"gen\": " + std::to_string(r.gen) +
           ", \"dur_us\": " + telemetry::format_number(r.dur_ns / 1000.0) +
           ", \"coverage\": " + telemetry::format_number(r.coverage) +
           ", \"fences\": " + std::to_string(r.fences) +
           ", \"verify_gates\": " + std::to_string(r.verify_gates) + "}";
      j += i + 1 < reconfigs.size() ? ",\n" : "\n";
    }
    j += "  ]\n}\n";
    if (!telemetry::write_file(json_path, j)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }

  if (check) {
    if (reconfigs.empty()) {
      std::fprintf(stderr, "check FAILED: no reconfiguration spans traced\n");
      return 1;
    }
    if (min_coverage < 0.95) {
      std::fprintf(stderr,
                   "check FAILED: min child coverage %.1f%% < 95%% (the span "
                   "decomposition does not explain the deploy delay)\n",
                   min_coverage * 100.0);
      return 1;
    }
    std::printf("check OK: %zu reconfigurations, min coverage %.1f%%\n",
                reconfigs.size(), min_coverage * 100.0);
  }
  return 0;
}
