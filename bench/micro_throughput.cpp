// Microbenchmarks (google-benchmark): per-packet update cost of the CMU
// pipeline versus raw software sketches, plus key primitives.
//
// `--json <path>` additionally writes one machine-readable row per
// benchmark (ns/op and items/s) for regression tracking.
#include <benchmark/benchmark.h>

#include <thread>

#include "bench/bench_util.hpp"
#include "common/crc_kernels.hpp"
#include "control/controller.hpp"
#include "exec/worker_pool.hpp"
#include "ingest/packet_source.hpp"
#include "ingest/pump.hpp"
#include "dataplane/hash_unit.hpp"
#include "dataplane/tcam.hpp"
#include "packet/trace_gen.hpp"
#include "sketch/count_min.hpp"
#include "sketch/univmon.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/span.hpp"
#include "trace/stage_profiler.hpp"

using namespace flymon;

namespace {

std::vector<Packet> small_trace() { return bench::make_zipf_trace(1000, 10'000); }

void BM_HashUnit(benchmark::State& state) {
  dataplane::HashUnit unit(0);
  unit.set_mask(FlowKeySpec::five_tuple().mask());
  const auto trace = small_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    const CandidateKey k = serialize_candidate_key(trace[i++ % trace.size()]);
    benchmark::DoNotOptimize(unit.compute(k));
  }
}
BENCHMARK(BM_HashUnit);

void BM_TcamLookup(benchmark::State& state) {
  dataplane::TcamTable<int> tcam;
  for (unsigned i = 0; i < 64; ++i) {
    tcam.install_range(i * 1024, i * 1024 + 1023, 16, i, static_cast<int>(i));
  }
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcam.lookup(key));
    key = (key + 977) & 0xFFFF;
  }
}
BENCHMARK(BM_TcamLookup);

void BM_RawCms(benchmark::State& state) {
  sketch::CountMin cms(3, 65536);
  const auto trace = small_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    const FlowKeyValue k =
        extract_flow_key(trace[i++ % trace.size()], FlowKeySpec::five_tuple());
    cms.update({k.bytes.data(), k.bytes.size()});
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RawCms);

void BM_CmuGroupProcess(benchmark::State& state) {
  FlyMonDataPlane dp(1);
  control::Controller ctl(dp);
  TaskSpec spec;
  spec.key = FlowKeySpec::five_tuple();
  spec.attribute = AttributeKind::kFrequency;
  spec.memory_buckets = 16384;
  spec.rows = 3;
  ctl.add_task(spec);
  const auto trace = small_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    dp.process(trace[i++ % trace.size()]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CmuGroupProcess);

// A realistic mixed workload: one task of each attribute.
void deploy_mixed_workload(control::Controller& ctl) {
  TaskSpec f;
  f.key = FlowKeySpec::five_tuple();
  f.attribute = AttributeKind::kFrequency;
  f.memory_buckets = 16384;
  f.rows = 3;
  ctl.add_task(f);
  TaskSpec d;
  d.key = FlowKeySpec::dst_ip();
  d.attribute = AttributeKind::kDistinct;
  d.param = ParamSpec::compressed(FlowKeySpec::src_ip());
  d.algorithm = Algorithm::kBeauCoup;
  d.report_threshold = 512;
  d.memory_buckets = 16384;
  d.rows = 3;
  ctl.add_task(d);
  TaskSpec m;
  m.key = FlowKeySpec::ip_pair();
  m.attribute = AttributeKind::kMax;
  m.param = ParamSpec::metadata(MetaField::kQueueLen);
  m.memory_buckets = 16384;
  m.rows = 3;
  ctl.add_task(m);
}

// The three execution paths over the same 9-group mixed deployment.  CI
// compares these rows: compiled must not regress vs interpreted, batched
// must clear the 2x bar.

void BM_FullPipelineInterpreted(benchmark::State& state) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  deploy_mixed_workload(ctl);
  dp.unpublish_plan();  // legacy per-packet walk of the mutable objects
  const auto trace = small_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    dp.process(trace[i++ % trace.size()]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPipelineInterpreted);

void BM_FullPipelineCompiled(benchmark::State& state) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  deploy_mixed_workload(ctl);  // publishes a compiled ExecPlan
  const auto trace = small_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    dp.process(trace[i++ % trace.size()]);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FullPipelineCompiled);

void BM_FullPipelineBatched(benchmark::State& state) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  deploy_mixed_workload(ctl);
  const auto trace = small_trace();
  for (auto _ : state) {
    dp.process_batch(trace);  // whole trace per iteration
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FullPipelineBatched);

// Sharded execution over the same deployment: the batch fans out across
// N executors (N-1 spawned threads + the submitting thread), each writing
// a private register shard; the merge runs once, outside the timed loop,
// because it is an epoch/query-boundary cost amortised over the whole
// window.  ->UseRealTime() because the submitting thread sleeps while the
// workers run — wall clock is the honest throughput measure.
void BM_FullPipelineSharded(benchmark::State& state) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  deploy_mixed_workload(ctl);
  dp.enable_parallel(static_cast<unsigned>(state.range(0)));
  const auto trace = small_trace();
  for (auto _ : state) {
    dp.process_batch(trace);  // whole trace per iteration
  }
  dp.merge_shards();
  const auto stats = dp.parallel_stats();
  state.counters["fallback_batches"] =
      static_cast<double>(stats.fallback_batches);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FullPipelineSharded)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// Streaming ingest over the same deployment: the identical packets arrive
// through the ingest pump's lock-free SPSC ring (producer thread, kBlock
// backpressure) and the dataplane drain loop feeds the sharded path.  CI
// gates streamed@4 >= FLYMON_BENCH_MIN_STREAMING_RATIO x sharded@4 with
// zero drops — the ring and drain loop must not cost the pipeline its
// sharded throughput.
void BM_FullPipelineStreamed(benchmark::State& state) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  deploy_mixed_workload(ctl);
  dp.enable_parallel(static_cast<unsigned>(state.range(0)));
  const auto trace = small_trace();
  std::uint64_t dropped = 0;
  for (auto _ : state) {
    ingest::MemorySource source{std::span<const Packet>(trace)};
    ingest::PumpConfig pcfg;
    pcfg.ring_capacity = 1u << 14;
    pcfg.batch = 1024;
    pcfg.source_label = "bench";
    ingest::IngestPump pump(source, pcfg);
    pump.start();
    ingest::RingSource ring_source(pump);
    dp.drain(ring_source);
    pump.stop();
    dropped += pump.stats().dropped;
  }
  dp.merge_shards();
  state.counters["dropped"] = static_cast<double>(dropped);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_FullPipelineStreamed)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime();

void BM_UnivMonUpdate(benchmark::State& state) {
  auto um = sketch::UnivMon::with_memory(512 * 1024);
  const auto trace = small_trace();
  std::size_t i = 0;
  for (auto _ : state) {
    um.update(extract_flow_key(trace[i++ % trace.size()], FlowKeySpec::five_tuple()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnivMonUpdate);

// Console reporter that additionally records one JsonRow per benchmark run
// (real ns/op and, where set, items/s).
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bench::JsonReport* report)
      : benchmark::ConsoleReporter(OO_Tabular), report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    if (report_ == nullptr) return;
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      bench::JsonRow& row = report_->row(run.benchmark_name());
      row.add("real_ns_per_op", run.GetAdjustedRealTime());
      row.add("cpu_ns_per_op", run.GetAdjustedCPUTime());
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) row.add("items_per_second", it->second.value);
      row.add("iterations", static_cast<double>(run.iterations));
    }
  }

 private:
  bench::JsonReport* report_;
};

// Per-stage hot-path breakdown: re-run the mixed workload with the stage
// profiler sampling every batch (both the batched and the sharded path so
// claim/execute/merge appear too), then emit one stable key triple per
// stage.  Keys are `<stage>_cycles`, `<stage>_items`,
// `<stage>_cycles_per_item`; stages with no samples are emitted as zeros so
// downstream tooling can rely on the full key set.  `reconciliation` is the
// compiled stages' (compression + filter + address + salu) cycles/pkt over
// the same batched runs' unprofiled cycles/pkt: 1.0 means the stages
// account for the wall clock.
void emit_stage_breakdown(bench::JsonReport& report) {
  using trace::Stage;
  auto& prof = trace::StageProfiler::global();
  const bool was_enabled = prof.enabled();
  prof.set_sample_every(1);
  double stage_cycles_per_pkt = 0;
  double wall_cycles_per_pkt = 0;
  {
    FlyMonDataPlane dp(9);
    control::Controller ctl(dp);
    deploy_mixed_workload(ctl);
    const auto trace = small_trace();
    constexpr int kRuns = 4;
    const double pkts = static_cast<double>(kRuns * trace.size());
    prof.set_enabled(false);
    dp.process_batch(trace);  // warm registers and scratch
    const std::uint64_t c0 = trace::now_cycles();
    for (int i = 0; i < kRuns; ++i) dp.process_batch(trace);
    wall_cycles_per_pkt = static_cast<double>(trace::now_cycles() - c0) / pkts;
    prof.set_enabled(true);
    prof.reset();
    for (int i = 0; i < kRuns; ++i) dp.process_batch(trace);
    const auto batched = prof.snapshot();
    for (const Stage s :
         {Stage::kCompression, Stage::kFilter, Stage::kAddress, Stage::kSalu}) {
      stage_cycles_per_pkt +=
          static_cast<double>(batched[static_cast<std::size_t>(s)].cycles) /
          pkts;
    }
    dp.enable_parallel(2);
    for (int i = 0; i < kRuns; ++i) dp.process_batch(trace);
    dp.merge_shards();
  }
  const auto stats = prof.snapshot();
  prof.set_enabled(was_enabled);
  bench::JsonRow& row = report.row("stages");
  for (std::size_t s = 0; s < trace::kNumStages; ++s) {
    const std::string stage = trace::to_string(static_cast<Stage>(s));
    row.add(stage + "_cycles", static_cast<double>(stats[s].cycles));
    row.add(stage + "_items", static_cast<double>(stats[s].items));
    row.add(stage + "_cycles_per_item", stats[s].cycles_per_item());
  }
  row.add("reconciliation", wall_cycles_per_pkt > 0
                                ? stage_cycles_per_pkt / wall_cycles_per_pkt
                                : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = bench::extract_json_path(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  bench::JsonReport report("micro_throughput");
  CapturingReporter reporter(json_path.empty() ? nullptr : &report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    // Execution-config row plus derived scaling metrics, so regression
    // tooling reads speedups directly instead of recomputing them.
    bench::JsonRow& cfg = report.row("config");
    cfg.add("chunk_size", static_cast<double>(flymon::exec::kBatchChunk));
    cfg.add("hardware_threads",
            static_cast<double>(std::thread::hardware_concurrency()));
    // Active observability switches as they were during the timed runs, so
    // a regression artifact records whether tracing/profiling overhead was
    // in play.
    cfg.add("trace_enabled", trace::enabled() ? 1.0 : 0.0);
    cfg.add("profiler_enabled",
            trace::StageProfiler::global().enabled() ? 1.0 : 0.0);
    cfg.add("profiler_sample_every",
            static_cast<double>(trace::StageProfiler::global().sample_every()));
    cfg.add("telemetry_enabled", telemetry::enabled() ? 1.0 : 0.0);
    // Dispatched kernel set as 0/1 flags (rows are numeric-only), so bench
    // artifacts are comparable across machines: which CRC tier actually ran
    // and whether the SoA passes took their AVX2 kernels.
    const flymon::CrcImpl crc = flymon::crc_active_impl();
    cfg.add("kernel_scalar", crc == flymon::CrcImpl::kScalar ? 1.0 : 0.0);
    cfg.add("kernel_slice8", crc == flymon::CrcImpl::kSlice8 ? 1.0 : 0.0);
    cfg.add("kernel_pclmul", crc == flymon::CrcImpl::kPclmul ? 1.0 : 0.0);
    cfg.add("kernel_avx2_soa", flymon::exec::avx2_soa_active() ? 1.0 : 0.0);
    const bench::JsonRow* batched = report.find("BM_FullPipelineBatched");
    const bench::JsonRow* sharded1 =
        report.find("BM_FullPipelineSharded/threads:1/real_time");
    const double* base_ips =
        batched != nullptr ? batched->get("items_per_second") : nullptr;
    const double* one_ips =
        sharded1 != nullptr ? sharded1->get("items_per_second") : nullptr;
    for (const int threads : {1, 2, 4, 8}) {
      bench::JsonRow* row = report.find("BM_FullPipelineSharded/threads:" +
                                        std::to_string(threads) + "/real_time");
      if (row == nullptr) continue;
      const double* ips = row->get("items_per_second");
      if (ips == nullptr) continue;
      if (base_ips != nullptr && *base_ips > 0) {
        row->add("speedup_vs_batched", *ips / *base_ips);
      }
      if (one_ips != nullptr && *one_ips > 0) {
        row->add("scaling_efficiency", (*ips / *one_ips) / threads);
      }
    }
    // Streaming vs sharded at the same thread count: the CI gate reads
    // streaming_ratio straight off the streamed row.
    for (const int threads : {1, 4}) {
      const std::string suffix =
          "/threads:" + std::to_string(threads) + "/real_time";
      bench::JsonRow* streamed =
          report.find("BM_FullPipelineStreamed" + suffix);
      const bench::JsonRow* sharded =
          report.find("BM_FullPipelineSharded" + suffix);
      if (streamed == nullptr || sharded == nullptr) continue;
      const double* s_ips = streamed->get("items_per_second");
      const double* p_ips = sharded->get("items_per_second");
      if (s_ips != nullptr && p_ips != nullptr && *p_ips > 0) {
        streamed->add("streaming_ratio", *s_ips / *p_ips);
      }
    }
    emit_stage_breakdown(report);
  }
  if (!json_path.empty() && !report.write(json_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
