#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>

#include "analysis/metrics.hpp"
#include "control/controller.hpp"
#include "control/epoch.hpp"
#include "exec/worker_pool.hpp"
#include "ingest/gen_source.hpp"
#include "packet/trace_gen.hpp"
#include "trace/span.hpp"
#include "trace/stage_profiler.hpp"

namespace perfbench {
namespace {

using namespace flymon;

/// Executors per data plane.  With the pump thread and the controller
/// thread each on a core of their own, a run uses four threads.
constexpr unsigned kWorkers = 2;
/// Packets per data-plane call where the benchmark sizes batches itself.
constexpr std::size_t kBatch = 4096;
/// Packets per process_batch_parallel call on full27_64k: large enough that
/// a scheduler hiccup on the shared machine is a small part of one call.
constexpr std::size_t kFull27Batch = 16384;
/// Probe flows read out per task at the end of a full27/churn pass.
constexpr std::size_t kProbes = 4096;

double ms_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

// ---------------------------------------------------------------------------
// Accumulation across passes
// ---------------------------------------------------------------------------

/// Timings of controller operations.  The churn workload fills one on its
/// controller thread and folds it into the Phase after joining.
struct OpLog {
  std::vector<double> reconfig_ms;  ///< from due to done
  std::vector<double> lateness_ms;  ///< from due to start
  std::map<std::string, std::vector<double>> op_ms;  ///< start to done, by kind
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;

  void record(const char* kind, std::uint64_t due, std::uint64_t start,
              std::uint64_t end, bool ok) {
    ++ops;
    if (!ok) ++failed;
    reconfig_ms.push_back(ms_between(due, end));
    lateness_ms.push_back(ms_between(due, start));
    op_ms[kind].push_back(ms_between(start, end));
  }
};

struct Phase {
  unsigned passes = 0;
  // end to end
  std::vector<double> setup_s, batch_us, close_ms;
  OpLog ops;
  std::uint64_t packets = 0;
  double stream_s = 0;
  double cpu_s = 0;
  std::uint64_t stream_cycles = 0;  ///< TSC cycles over the windows
  double window_s = 0;               ///< wall seconds over the same windows
  double rss_peak_mib = 0;
  std::uint64_t dropped = 0;
  // per layer
  std::uint64_t pulls = 0, empty_pulls = 0, pulled = 0, pull_ns = 0;
  double occupancy_sum = 0;
  double batch_us_total = 0;
  std::uint64_t batch_packets = 0;
  exec::ParallelStats par{};
  std::vector<double> clear_ms, enable_parallel_ms, deploy_ms, readout_ms,
      boundary_ms;
  std::uint64_t queries = 0;
  double query_ns = 0;
  SpanDurations spans;
  // correctness
  std::vector<std::string> mismatches;

  void mismatch(std::string what) { mismatches.push_back(std::move(what)); }

  void add_parallel(const exec::ParallelStats& s) {
    par.parallel_batches += s.parallel_batches;
    par.fallback_batches += s.fallback_batches;
    par.chunks += s.chunks;
    par.merges += s.merges;
  }

  void add_batches(const std::vector<double>& us, std::uint64_t pkts) {
    batch_us.insert(batch_us.end(), us.begin(), us.end());
    for (double v : us) batch_us_total += v;
    batch_packets += pkts;
  }

  void add_source(const TimedSource& t) {
    add_batches(t.batch_us, t.batch_packets);
    pulls += t.pulls;
    empty_pulls += t.empty_pulls;
    pulled += t.packets;
    pull_ns += t.pull_ns;
    occupancy_sum += t.occupancy_sum;
  }

  void add_ops(const OpLog& log) {
    append(ops.reconfig_ms, log.reconfig_ms);
    append(ops.lateness_ms, log.lateness_ms);
    for (const auto& [kind, v] : log.op_ms) append(ops.op_ms[kind], v);
    ops.ops += log.ops;
    ops.failed += log.failed;
  }

  /// Fold another phase (one pass) into this one.
  void absorb(const Phase& p) {
    passes += p.passes;
    append(setup_s, p.setup_s);
    append(batch_us, p.batch_us);
    append(close_ms, p.close_ms);
    add_ops(p.ops);
    packets += p.packets;
    stream_s += p.stream_s;
    cpu_s += p.cpu_s;
    stream_cycles += p.stream_cycles;
    window_s += p.window_s;
    rss_peak_mib = std::max(rss_peak_mib, p.rss_peak_mib);
    dropped += p.dropped;
    pulls += p.pulls;
    empty_pulls += p.empty_pulls;
    pulled += p.pulled;
    pull_ns += p.pull_ns;
    occupancy_sum += p.occupancy_sum;
    batch_us_total += p.batch_us_total;
    batch_packets += p.batch_packets;
    add_parallel(p.par);
    append(clear_ms, p.clear_ms);
    append(enable_parallel_ms, p.enable_parallel_ms);
    append(deploy_ms, p.deploy_ms);
    append(readout_ms, p.readout_ms);
    append(boundary_ms, p.boundary_ms);
    queries += p.queries;
    query_ns += p.query_ns;
    for (const auto& [name, v] : p.spans) append(spans[name], v);
    append(mismatches, p.mismatches);
  }

  template <class T>
  static void append(std::vector<T>& to, const std::vector<T>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }

  /// One pass's packet-processing window: from the first packet to the
  /// last batch, with the process CPU and TSC cycles spent meanwhile.
  struct Window {
    std::uint64_t start_ns = 0;
    double cpu0 = 0;
    std::uint64_t cycles0 = 0;
  };
  static Window open_window() {
    return Window{now_ns(), cpu_seconds(), trace::now_cycles()};
  }
  void close_window(const Window& w, std::uint64_t first_packet_ns,
                    std::uint64_t packets_in_pass) {
    stream_s += static_cast<double>(now_ns() - first_packet_ns) / 1e9;
    cpu_s += cpu_seconds() - w.cpu0;
    stream_cycles += trace::now_cycles() - w.cycles0;
    window_s += static_cast<double>(now_ns() - w.start_ns) / 1e9;
    packets += packets_in_pass;
  }

  void sample_rss() { rss_peak_mib = std::max(rss_peak_mib, rss_mib()); }

  double throughput_mpps() const {
    return stream_s > 0 ? static_cast<double>(packets) / stream_s / 1e6 : 0.0;
  }
};

struct PassOpts {
  bool detailed = false;  ///< traced phase: extra per-layer timing
  bool check_registers = true;  ///< digest registers at every readout
  bool corrupt = false;   ///< referee self-test: flip one cell first
  std::uint64_t seed = 0;
};

template <class Fn>
double time_ms(Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  fn();
  return ms_between(t0, now_ns());
}

/// Enable the worker pool, timed.
void enable_pool(FlyMonDataPlane& dp, Phase& ph) {
  ph.enable_parallel_ms.push_back(time_ms([&] { dp.enable_parallel(kWorkers); }));
}

/// Deploy one task at set-up, timed.  Returns the task id (0 on failure).
std::uint32_t deploy(control::Controller& ctl, const TaskSpec& spec, Phase& ph) {
  const std::uint64_t t0 = now_ns();
  const control::DeployResult r = ctl.add_task(spec);
  ph.deploy_ms.push_back(ms_between(t0, now_ns()));
  if (!r.ok) {
    ph.mismatch("set-up deploy of '" + spec.name + "' failed: " + r.error);
  }
  return r.ok ? r.task_id : 0;
}

std::vector<Packet> sample_probes(const std::vector<Packet>& trace,
                                  std::size_t n) {
  std::vector<Packet> probes;
  const std::size_t step = std::max<std::size_t>(1, trace.size() / n);
  for (std::size_t i = 0; i < trace.size() && probes.size() < n; i += step) {
    probes.push_back(trace[i]);
  }
  return probes;
}

// ---------------------------------------------------------------------------
// Turning phases into metrics
// ---------------------------------------------------------------------------

struct Baseline {
  double rss_mib = 0;     ///< after inputs were generated, before the referee
  double are = 0;         ///< accuracy of the workload's frequency task
};

/// The passes of one phase, one Phase each, and their totals.
struct Passes {
  std::vector<Phase> each;
  Phase all;

  /// Totals over the fastest third of the passes by throughput (at least
  /// one).  The end-to-end timings come from these: another tenant of the
  /// machine can slow a whole pass several-fold, and such a pass says
  /// nothing about the program.
  Phase fastest_third() const {
    std::vector<const Phase*> order;
    for (const Phase& p : each) order.push_back(&p);
    std::sort(order.begin(), order.end(), [](const Phase* a, const Phase* b) {
      return a->throughput_mpps() > b->throughput_mpps();
    });
    Phase kept;
    for (std::size_t i = 0; i < (order.size() + 2) / 3; ++i) kept.absorb(*order[i]);
    return kept;
  }
};

void end_to_end_metrics(const Passes& passes, const Baseline& base,
                        RunResult& r) {
  const Phase ph = passes.fastest_third();
  const Tail batch = tail_percentile(ph.batch_us, 99);
  const Tail reconf = tail_percentile(ph.ops.reconfig_ms, 99);
  const double mpkts = static_cast<double>(ph.packets) / 1e6;
  Metrics& m = r.metrics;
  m.set("throughput_mpps", ph.throughput_mpps(), "Mpps");
  m.set("batch_p50_us", median(ph.batch_us), "us");
  m.set("batch_p99_us", batch.value, "us");
  m.set("epoch_close_p50_ms", median(ph.close_ms), "ms");
  m.set("reconfig_p50_ms", median(ph.ops.reconfig_ms), "ms");
  m.set("are_task_a", base.are, "ratio");
  m.set("cpu_s_per_mpkt", mpkts > 0 ? ph.cpu_s / mpkts : 0.0, "s/Mpkt");
  m.set("mem_peak_mb", (passes.all.rss_peak_mib - base.rss_mib) * 1.048576,
        "MB");
  m.set("setup_s", median(ph.setup_s), "s");
  char line[256];
  std::snprintf(line, sizeof line,
                "batch_p99_us is p%.1f of %zu batches; reconfiguration tail "
                "p%.1f of %zu operations is %.4f ms; %zu epoch closes; timings "
                "from the fastest %u of %u passes",
                batch.percentile, batch.count, reconf.percentile, reconf.count,
                reconf.value, ph.close_ms.size(), ph.passes, passes.all.passes);
  r.notes.emplace_back(line);
  std::vector<double> mpps;
  for (const Phase& p : passes.each) mpps.push_back(p.throughput_mpps());
  std::sort(mpps.begin(), mpps.end());
  std::snprintf(line, sizeof line,
                "pass throughput min %.3f median %.3f max %.3f Mpps",
                mpps.front(), median(mpps), mpps.back());
  r.notes.emplace_back(line);
}

double span_median_us(const Phase& ph, const char* name) {
  const auto it = ph.spans.find(name);
  return it == ph.spans.end() ? 0.0 : median(it->second);
}

double op_median_ms(const Phase& ph, const char* kind) {
  const auto it = ph.ops.op_ms.find(kind);
  return it == ph.ops.op_ms.end() ? 0.0 : median(it->second);
}

void per_layer_metrics(const Phase& u, const Phase& t, RunResult& r) {
  Metrics& m = r.metrics;
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  // ingest
  m.set("ingest.pull_ns_per_pkt",
        ratio(static_cast<double>(t.pull_ns), static_cast<double>(t.pulled)),
        "ns/pkt");
  m.set("ingest.empty_pull_ratio",
        ratio(static_cast<double>(t.empty_pulls), static_cast<double>(t.pulls)),
        "ratio");
  m.set("ingest.ring_occupancy_mean",
        ratio(t.occupancy_sum, static_cast<double>(t.pulls)), "slots");
  m.set("ingest.dropped", static_cast<double>(t.dropped), "count");
  // core / exec
  m.set("core.batch_ns_per_pkt",
        ratio(t.batch_us_total * 1e3, static_cast<double>(t.batch_packets)),
        "ns/pkt");
  const double all_batches =
      static_cast<double>(t.par.parallel_batches + t.par.fallback_batches);
  m.set("exec.fallback_ratio",
        ratio(static_cast<double>(t.par.fallback_batches), all_batches),
        "ratio");
  m.set("exec.chunks_per_batch",
        ratio(static_cast<double>(t.par.chunks),
              static_cast<double>(t.par.parallel_batches)),
        "count");
  // Mean of the shard merges that folded something, from the stage
  // profiler (the exec.merge_shards span also fires on every no-op merge
  // a controller query makes).
  using trace::Stage;
  const auto snap = trace::StageProfiler::global().snapshot();
  auto st = [&](Stage s) { return snap[static_cast<std::size_t>(s)]; };
  const double tsc_per_ms =
      ratio(static_cast<double>(u.stream_cycles), u.window_s * 1e3);
  m.set("exec.merge_ms",
        ratio(ratio(static_cast<double>(st(Stage::kMerge).cycles),
                    static_cast<double>(st(Stage::kMerge).samples)),
              tsc_per_ms),
        "ms");
  m.set("core.clear_ms", median(t.clear_ms), "ms");
  m.set("exec.enable_parallel_ms", median(t.enable_parallel_ms), "ms");
  // stage profiler
  const double sampled_pkts = static_cast<double>(st(Stage::kCompression).items);
  const double executed_pkts = static_cast<double>(st(Stage::kExecute).items);
  double compiled_sum = 0;
  for (Stage s : {Stage::kCompression, Stage::kFilter, Stage::kAddress,
                  Stage::kSalu}) {
    const double v = ratio(static_cast<double>(st(s).cycles), sampled_pkts);
    compiled_sum += v;
    m.set(std::string("stage.") + trace::to_string(s) + "_cycles_per_pkt", v,
          "cycles/pkt");
  }
  m.set("stage.claim_cycles_per_pkt",
        ratio(static_cast<double>(st(Stage::kClaim).cycles), executed_pkts),
        "cycles/pkt");
  m.set("stage.execute_cycles_per_pkt",
        ratio(static_cast<double>(st(Stage::kExecute).cycles), executed_pkts),
        "cycles/pkt");
  m.set("stage.merge_cycles_per_pkt",
        ratio(static_cast<double>(st(Stage::kMerge).cycles),
              static_cast<double>(t.packets)),
        "cycles/pkt");
  m.set("stage.ingest_cycles_per_pkt",
        ratio(static_cast<double>(st(Stage::kIngest).cycles),
              static_cast<double>(st(Stage::kIngest).items)),
        "cycles/pkt");
  const double wall_cycles_per_pkt = ratio(
      static_cast<double>(u.stream_cycles), static_cast<double>(u.packets));
  m.set("stage.reconciliation", ratio(compiled_sum, wall_cycles_per_pkt),
        "ratio");
  // control
  m.set("control.epoch_boundary_ms", median(t.boundary_ms), "ms");
  m.set("control.readout_ms", median(t.readout_ms), "ms");
  m.set("control.query_ns", ratio(t.query_ns, static_cast<double>(t.queries)),
        "ns");
  for (const char* kind : {"add", "resize", "split", "remove"}) {
    m.set(std::string("control.") + kind + "_ms", op_median_ms(t, kind), "ms");
  }
  m.set("control.op_lateness_ms", median(t.ops.lateness_ms), "ms");
  m.set("control.reconfig_p99_ms", tail_percentile(t.ops.reconfig_ms, 99).value,
        "ms");
  m.set("control.deploy_ms", median(t.deploy_ms), "ms");
  // verify / exec publish
  m.set("verify.plan_gate_us", span_median_us(t, "ctl.plan_gate"), "us");
  m.set("verify.verify_gate_us", span_median_us(t, "ctl.verify_gate"), "us");
  m.set("exec.compile_us", span_median_us(t, "exec.compile"), "us");
  m.set("exec.publish_us", span_median_us(t, "exec.publish"), "us");
  m.set("exec.fence_us", span_median_us(t, "exec.fence"), "us");
  // trace
  m.set("trace.overhead_ratio",
        ratio(t.throughput_mpps(), u.throughput_mpps()), "ratio");
  const double attempted =
      static_cast<double>(u.packets + t.packets + u.ops.ops + t.ops.ops);
  m.set("fail_ratio",
        ratio(static_cast<double>(u.dropped + t.dropped + u.ops.failed +
                                  t.ops.failed),
              attempted),
        "ratio");
  char line[160];
  std::snprintf(line, sizeof line,
                "traced phase: %u passes, %.3f Mpps; untraced phase: %u "
                "passes, %.3f Mpps",
                t.passes, t.throughput_mpps(), u.passes, u.throughput_mpps());
  r.notes.emplace_back(line);
}

/// Runs `pass(phase, opts)` repeatedly for `seconds` (at least once).
template <class PassFn>
Passes run_for(double seconds, const PassOpts& opts, PassFn& pass) {
  Passes out;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    Phase p;
    pass(p, opts);
    p.passes = 1;
    out.all.absorb(p);
    out.each.push_back(std::move(p));
  } while (now_ns() < deadline);
  return out;
}

/// The measurement protocol every workload shares: one checked warm-up
/// pass, then either an untraced phase (end-to-end metrics) or an
/// untraced half plus a traced half (per-layer metrics).
template <class PassFn>
RunResult measure(const RunConfig& cfg, const Baseline& base,
                  bool check_every_pass, PassFn pass) {
  RunResult r;
  auto& profiler = trace::StageProfiler::global();
  trace::set_enabled(false);
  profiler.set_enabled(false);

  Phase warm;
  PassOpts opts;
  opts.seed = cfg.seed;
  opts.corrupt = cfg.corrupt;
  pass(warm, opts);
  std::vector<const Phase*> phases{&warm};

  opts.corrupt = false;
  opts.check_registers = check_every_pass;
  Passes u, t;
  if (!cfg.corrupt) {
    if (!cfg.trace) {
      u = run_for(cfg.seconds, opts, pass);
      end_to_end_metrics(u, base, r);
      phases.push_back(&u.all);
    } else {
      u = run_for(cfg.seconds / 2, opts, pass);
      trace::SpanCollector::global().clear();
      profiler.reset();
      trace::set_enabled(true);
      profiler.set_enabled(true);
      opts.detailed = true;
      t = run_for(cfg.seconds / 2, opts, pass);
      trace::set_enabled(false);
      profiler.set_enabled(false);
      per_layer_metrics(u.all, t.all, r);
      phases.push_back(&u.all);
      phases.push_back(&t.all);
    }
  }

  for (const Phase* ph : phases) {
    r.attempted += ph->packets + ph->ops.ops;
    r.failed += ph->dropped + ph->ops.failed;
    for (const std::string& w : ph->mismatches) {
      r.correct = false;
      if (r.notes.size() < 16) r.notes.push_back("referee mismatch: " + w);
    }
  }
  if (r.failed != 0) r.correct = false;
  return r;
}

// ---------------------------------------------------------------------------
// fig12b_stream
// ---------------------------------------------------------------------------

constexpr unsigned kEpochs = 20;
constexpr std::uint64_t kEpochNs = 1'000'000'000;
constexpr std::uint32_t kSmall = 8192, kLarge = 65536;

TaskSpec fig12b_task_a() {
  TaskSpec a;
  a.name = "task A";
  a.filter = TaskFilter::src(0x0A00'0000, 8);
  a.key = FlowKeySpec::src_ip();
  a.attribute = AttributeKind::kFrequency;
  a.memory_buckets = kSmall;
  a.rows = 3;
  return a;
}

TaskSpec fig12b_task_b() {
  TaskSpec b;
  b.name = "task B";
  b.filter = TaskFilter::src(0x2D00'0000, 8);
  b.key = FlowKeySpec::five_tuple();
  b.attribute = AttributeKind::kFrequency;
  b.memory_buckets = kSmall;
  b.rows = 3;
  return b;
}

struct Fig12bInputs {
  std::vector<Packet> trace;
  std::vector<std::vector<Packet>> probes;         ///< per epoch: true flows of A
  std::vector<std::vector<std::uint64_t>> truth;   ///< their exact counts
};

Fig12bInputs make_fig12b(std::uint64_t seed) {
  ingest::GeneratorConfig cfg = ingest::fig12b_scenario(kEpochs, kEpochNs);
  // Offset every component seed, so seed 0 is the paper scenario itself.
  for (auto& phase : cfg.phases) {
    for (auto& c : phase.components) c.seed += seed * 1'000'003;
  }
  Fig12bInputs in;
  in.trace = ingest::materialize(cfg);
  const TaskFilter filter = fig12b_task_a().filter;
  std::vector<std::unordered_map<FlowKeyValue, std::uint64_t>> counts(kEpochs);
  for (const Packet& p : in.trace) {
    const std::size_t e = static_cast<std::size_t>(p.ts_ns / kEpochNs);
    if (e < kEpochs && filter.matches(p.ft)) {
      ++counts[e][extract_flow_key(p, FlowKeySpec::src_ip())];
    }
  }
  for (auto& epoch : counts) {
    std::vector<std::pair<FlowKeyValue, std::uint64_t>> flows(epoch.begin(),
                                                              epoch.end());
    std::sort(flows.begin(), flows.end(), [](const auto& a, const auto& b) {
      return a.first.bytes < b.first.bytes;
    });
    std::vector<Packet> probes;
    std::vector<std::uint64_t> truth;
    for (const auto& [key, n] : flows) {
      probes.push_back(packet_from_candidate_key(key.bytes));
      truth.push_back(n);
    }
    in.probes.push_back(std::move(probes));
    in.truth.push_back(std::move(truth));
  }
  return in;
}

/// Expected per-epoch state: a digest of every register after the epoch
/// and task A's answer for every true flow.
struct EpochState {
  std::vector<std::uint64_t> digests;
  std::vector<std::vector<std::uint64_t>> answers;
};

/// The reconfiguration events of Fig 12b, applied at the boundary before
/// epoch `next` through `record(kind, op)`; updates the task ids in place.
template <class Record>
void fig12b_events(control::Controller& ctl, unsigned next, std::uint32_t& a_id,
                   std::uint32_t& b_id, Record&& record) {
  if (next == 3) {
    record("add", [&] {
      const auto r = ctl.add_task(fig12b_task_b());
      b_id = r.ok ? r.task_id : 0;
      return r.ok;
    });
  } else if (next == 6 || next == 16) {
    record("resize", [&] {
      const auto r = ctl.resize_task(a_id, next == 6 ? kLarge : kSmall);
      if (r.ok) a_id = r.task_id;
      return r.ok;
    });
  } else if (next == 10) {
    record("remove", [&] { return ctl.remove_task(b_id); });
  }
}

EpochState fig12b_referee(const Fig12bInputs& in) {
  EpochState ref;
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  std::uint32_t a_id = ctl.add_task(fig12b_task_a()).task_id;
  std::uint32_t b_id = 0;
  std::size_t at = 0;
  for (unsigned e = 0; e < kEpochs; ++e) {
    const std::uint64_t end_ts = (e + 1) * kEpochNs;
    std::size_t end = at;
    while (end < in.trace.size() && in.trace[end].ts_ns < end_ts) ++end;
    for (std::size_t i = at; i < end; i += kBatch) {
      dp.process_batch(std::span<const Packet>(&in.trace[i],
                                               std::min(kBatch, end - i)));
    }
    at = end;
    std::vector<std::uint64_t> answers;
    for (const Packet& p : in.probes[e]) answers.push_back(ctl.query_value(a_id, p));
    ref.answers.push_back(std::move(answers));
    ref.digests.push_back(register_digest(dp));
    fig12b_events(ctl, e + 1, a_id, b_id, [](const char*, auto&& op) { op(); });
    dp.clear_registers();
  }
  return ref;
}

double fig12b_are(const Fig12bInputs& in, const EpochState& ref) {
  double sum = 0;
  for (unsigned e = 0; e < kEpochs; ++e) {
    std::vector<std::pair<double, double>> pairs;
    for (std::size_t i = 0; i < in.truth[e].size(); ++i) {
      pairs.emplace_back(static_cast<double>(in.truth[e][i]),
                         static_cast<double>(ref.answers[e][i]));
    }
    sum += analysis::average_relative_error(pairs);
  }
  return sum / kEpochs;
}

void fig12b_pass(const Fig12bInputs& in, const EpochState& ref, Phase& ph,
                 const PassOpts& o) {
  EpochState got;
  got.digests.assign(kEpochs, 0);
  got.answers.resize(kEpochs);
  unsigned epochs = 0;
  std::uint64_t pulled = 0;
  {
    const std::uint64_t t0 = now_ns();
    FlyMonDataPlane dp(9);
    control::Controller ctl(dp);
    std::uint32_t a_id = deploy(ctl, fig12b_task_a(), ph);
    std::uint32_t b_id = 0;
    enable_pool(dp, ph);
    ingest::MemorySource memory{std::span<const Packet>(in.trace)};
    ingest::IngestPump pump(memory, ingest::PumpConfig{});
    ingest::RingSource ring(pump);
    TimedSource timed(ring, &pump.ring(), o.detailed);
    control::EpochRunner runner(dp, kEpochNs);

    auto readout = [&](unsigned e, std::span<const Packet>) {
      const std::uint64_t due = now_ns();
      timed.mark_boundary();
      const auto& probes = in.probes[e];
      auto& answers = got.answers[e];
      answers.resize(probes.size());
      for (std::size_t i = 0; i < probes.size(); ++i) {
        answers[i] = ctl.query_value(a_id, probes[i]);
      }
      const std::uint64_t read_end = now_ns();
      ph.readout_ms.push_back(ms_between(due, read_end));
      ph.queries += probes.size();
      ph.query_ns += static_cast<double>(read_end - due);
      if (o.check_registers) {
        if (o.corrupt && e == kEpochs / 2) corrupt_one_cell(dp, o.seed);
        got.digests[e] = register_digest(dp);
      }
      // The events are issued once the readout is done, so they fall due
      // when they start.
      fig12b_events(ctl, e + 1, a_id, b_id, [&](const char* kind, auto&& op) {
        const std::uint64_t start = now_ns();
        const bool ok = op();
        ph.ops.record(kind, start, start, now_ns(), ok);
      });
    };

    const Phase::Window w = Phase::open_window();
    pump.start();
    epochs = runner.run_stream(timed, readout, kBatch);
    ph.close_window(w, timed.first_packet_ns(), timed.packets);
    pump.stop();
    ph.setup_s.push_back(static_cast<double>(timed.first_packet_ns() - t0) / 1e9);
    ph.dropped += pump.stats().dropped;
    ph.add_source(timed);
    for (double us : timed.boundary_us) {
      ph.close_ms.push_back(us / 1e3);
    }
    // Epoch-boundary self time: boundary batch i closed epoch i (the last
    // epoch closes after the stream), minus that epoch's readout.
    for (std::size_t i = 0; epochs == kEpochs && i < timed.boundary_us.size() &&
                            i < ph.readout_ms.size();
         ++i) {
      ph.boundary_ms.push_back(timed.boundary_us[i] / 1e3 - ph.readout_ms[i]);
    }
    ph.clear_ms.push_back(time_ms([&] { dp.clear_registers(); }));
    ph.add_parallel(dp.parallel_stats());
    ph.sample_rss();
    pulled = timed.packets;
  }
  if (o.detailed) harvest_spans(ph.spans);

  if (pulled != in.trace.size()) {
    ph.mismatch("fig12b pulled " + std::to_string(pulled) + " of " +
                std::to_string(in.trace.size()) + " packets");
  }
  if (epochs != kEpochs) {
    ph.mismatch("fig12b ran " + std::to_string(epochs) + " epochs");
  }
  for (unsigned e = 0; e < kEpochs; ++e) {
    if (got.answers[e] != ref.answers[e]) {
      ph.mismatch("fig12b task A answers differ in epoch " + std::to_string(e));
    }
    if (o.check_registers && got.digests[e] != ref.digests[e]) {
      ph.mismatch("fig12b registers differ after epoch " + std::to_string(e));
    }
  }
}

// ---------------------------------------------------------------------------
// full27_64k
// ---------------------------------------------------------------------------

/// The nine-task scenario of tools/flymon_verify at 65,536 buckets per
/// row: every one of the 27 CMUs holds a full 64K-cell task row.
std::vector<TaskSpec> full27_specs() {
  auto spec = [](const char* name, FlowKeySpec key, AttributeKind attr,
                 Algorithm algo, ParamSpec param) {
    TaskSpec s;
    s.name = name;
    s.key = key;
    s.attribute = attr;
    s.algorithm = algo;
    s.param = param;
    s.memory_buckets = 65536;
    s.rows = 3;
    return s;
  };
  using A = AttributeKind;
  using G = Algorithm;
  const FlowKeySpec src = FlowKeySpec::src_ip();
  const FlowKeySpec dst = FlowKeySpec::dst_ip();
  const FlowKeySpec pair = FlowKeySpec::ip_pair();
  std::vector<TaskSpec> v;
  v.push_back(spec("heavy-hitter", src, A::kFrequency, G::kCms,
                   ParamSpec::constant(1)));
  v.push_back(spec("size-dist", pair, A::kFrequency, G::kTowerSketch,
                   ParamSpec::constant(1)));
  v.push_back(spec("blacklist", pair, A::kExistence, G::kBloomFilter,
                   ParamSpec::compressed(pair)));
  v.push_back(spec("congestion", dst, A::kMax, G::kSuMaxMax,
                   ParamSpec::metadata(MetaField::kQueueLen)));
  v.push_back(spec("port-scan", src, A::kDistinct, G::kBeauCoup,
                   ParamSpec::compressed(FlowKeySpec::dst_port())));
  v.back().report_threshold = 100;
  v.push_back(spec("heavy-hitter-10", dst, A::kFrequency, G::kCms,
                   ParamSpec::constant(1)));
  v.back().filter = TaskFilter::src(0x0A00'0000, 8);
  v.push_back(spec("flow-size", FlowKeySpec::five_tuple(), A::kFrequency,
                   G::kTowerSketch, ParamSpec::constant(1)));
  v.push_back(spec("seen-sources", src, A::kExistence, G::kBloomFilter,
                   ParamSpec::compressed(src)));
  v.push_back(spec("max-bytes", src, A::kMax, G::kSuMaxMax,
                   ParamSpec::metadata(MetaField::kWireBytes)));
  return v;
}

/// Reads every task's answer for every probe, in a fixed order.
std::vector<std::uint64_t> read_tasks(const control::Controller& ctl,
                                      const std::vector<std::uint32_t>& ids,
                                      const std::vector<Packet>& probes,
                                      Phase* ph) {
  const std::uint64_t t0 = now_ns();
  std::vector<std::uint64_t> out;
  out.reserve(ids.size() * probes.size());
  for (std::uint32_t id : ids) {
    const control::DeployedTask* t = ctl.task(id);
    const Algorithm algo = t != nullptr ? t->algorithm : Algorithm::kCms;
    for (const Packet& p : probes) {
      if (algo == Algorithm::kBloomFilter) {
        out.push_back(ctl.query_existence(id, p) ? 1 : 0);
      } else if (algo == Algorithm::kBeauCoup) {
        out.push_back(ctl.distinct_over_threshold(id, p) ? 1 : 0);
      } else {
        out.push_back(ctl.query_value(id, p));
      }
    }
  }
  if (ph != nullptr) {
    const std::uint64_t t1 = now_ns();
    ph->readout_ms.push_back(ms_between(t0, t1));
    ph->queries += out.size();
    ph->query_ns += static_cast<double>(t1 - t0);
  }
  return out;
}

/// Expected end-of-pass state of a batch workload.
struct FinalState {
  std::uint64_t digest = 0;
  std::vector<std::uint64_t> answers;
};

/// ARE of the frequency task `task` over every flow of `trace`, flows
/// being the task's own key.
double flow_are(const control::Controller& ctl, std::uint32_t task,
                const std::vector<Packet>& trace) {
  const FlowKeySpec key = ctl.task(task)->spec.key;
  std::unordered_map<FlowKeyValue, std::uint64_t> truth;
  for (const Packet& p : trace) ++truth[extract_flow_key(p, key)];
  return analysis::frequency_are(truth, [&](const FlowKeyValue& k) {
    return ctl.query_value(task, packet_from_candidate_key(k.bytes));
  });
}

struct BatchInputs {
  std::vector<Packet> trace;
  std::vector<Packet> probes;
};

/// Closes a pass of a batch workload: merge, readout, (untimed) referee
/// comparison, clear.  The timed parts are one epoch-close sample.
void close_pass(FlyMonDataPlane& dp, const control::Controller& ctl,
                const std::vector<std::uint32_t>& ids, const BatchInputs& in,
                const FinalState& ref, const PassOpts& o, const char* what,
                Phase& ph) {
  const std::uint64_t c0 = now_ns();
  dp.merge_shards();
  const std::uint64_t c1 = now_ns();
  const std::vector<std::uint64_t> answers = read_tasks(ctl, ids, in.probes, &ph);
  const std::uint64_t c2 = now_ns();
  if (o.corrupt) corrupt_one_cell(dp, o.seed);
  if (register_digest(dp) != ref.digest) {
    ph.mismatch(std::string(what) + " registers differ from the referee");
  }
  if (answers != ref.answers) {
    ph.mismatch(std::string(what) + " query answers differ from the referee");
  }
  const double clear = time_ms([&] { dp.clear_registers(); });
  const double merge = ms_between(c0, c1);
  ph.clear_ms.push_back(clear);
  ph.close_ms.push_back(merge + ms_between(c1, c2) + clear);
  ph.boundary_ms.push_back(merge + clear);
}

BatchInputs make_full27(std::uint64_t seed) {
  TraceConfig cfg;
  cfg.num_flows = 1'000'000;
  cfg.num_packets = 2'000'000;
  cfg.seed = seed;
  BatchInputs in;
  in.trace = TraceGenerator::generate(cfg);
  in.probes = sample_probes(in.trace, kProbes);
  return in;
}

void full27_pass(const BatchInputs& in, const FinalState& ref, Phase& ph,
                 const PassOpts& o) {
  {
    const std::uint64_t t0 = now_ns();
    FlyMonDataPlane dp(9);
    control::Controller ctl(dp);
    // No operation runs under traffic here; deploying the nine tasks is
    // the one controller operation of a pass.
    std::vector<std::uint32_t> ids;
    const std::uint64_t d0 = now_ns();
    for (const TaskSpec& s : full27_specs()) ids.push_back(deploy(ctl, s, ph));
    ph.ops.record("deploy", d0, d0, now_ns(), true);
    enable_pool(dp, ph);
    const Phase::Window w = Phase::open_window();
    const std::uint64_t first = now_ns();
    ph.setup_s.push_back(static_cast<double>(first - t0) / 1e9);
    std::vector<double> batch_us;
    batch_us.reserve(in.trace.size() / kFull27Batch + 1);
    for (std::size_t at = 0; at < in.trace.size(); at += kFull27Batch) {
      const std::uint64_t b0 = now_ns();
      dp.process_batch_parallel(std::span<const Packet>(
          &in.trace[at], std::min(kFull27Batch, in.trace.size() - at)));
      batch_us.push_back(static_cast<double>(now_ns() - b0) / 1e3);
    }
    ph.close_window(w, first, in.trace.size());
    ph.add_batches(batch_us, in.trace.size());
    ph.sample_rss();
    close_pass(dp, ctl, ids, in, ref, o, "full27", ph);
    ph.add_parallel(dp.parallel_stats());
  }
  if (o.detailed) harvest_spans(ph.spans);
}

// ---------------------------------------------------------------------------
// churn_paranoid
// ---------------------------------------------------------------------------

/// The mergeable mix of tools/flymon_replay: one task per exact-merge op
/// kind (Cond-ADD, OR, MAX).
std::vector<TaskSpec> churn_long_lived() {
  std::vector<TaskSpec> v(3);
  v[0].name = "cms";
  v[0].key = FlowKeySpec::five_tuple();
  v[0].attribute = AttributeKind::kFrequency;
  v[0].memory_buckets = 8192;
  v[0].rows = 3;
  v[1].name = "bloom";
  v[1].key = FlowKeySpec::src_ip();
  v[1].attribute = AttributeKind::kExistence;
  v[1].param = ParamSpec::compressed(FlowKeySpec::src_ip());
  v[1].memory_buckets = 8192;
  v[1].rows = 2;
  v[2].name = "maxq";
  v[2].key = FlowKeySpec::ip_pair();
  v[2].attribute = AttributeKind::kMax;
  v[2].param = ParamSpec::metadata(MetaField::kQueueLen);
  v[2].memory_buckets = 4096;
  v[2].rows = 2;
  return v;
}

/// A churn task: its filter (11.0.0.0/8) matches none of the traffic,
/// which is drawn from 10.0.0.0/8, so churn never changes what the
/// long-lived tasks measure.
TaskSpec churn_task(const char* name, FlowKeySpec key) {
  TaskSpec s;
  s.name = name;
  s.filter = TaskFilter::src(0x0B00'0000, 8);
  s.key = key;
  s.attribute = AttributeKind::kFrequency;
  s.memory_buckets = 4096;
  s.rows = 1;
  return s;
}

/// Operations per pass: two cycles of add, add, resize, split, remove x3.
constexpr unsigned kChurnCycles = 2;
constexpr unsigned kOpsPerCycle = 7;
constexpr unsigned kChurnOps = kChurnCycles * kOpsPerCycle;

/// Runs operation `k` of the fixed list.  `ids` carries task ids between
/// the operations of a cycle.
bool churn_op(control::Controller& ctl, unsigned k, std::uint32_t (&ids)[4],
              const char*& kind) {
  switch (k % kOpsPerCycle) {
    case 0:
    case 1: {
      kind = "add";
      const auto r = ctl.add_task(k % kOpsPerCycle == 0
                                      ? churn_task("churn-src", FlowKeySpec::src_ip())
                                      : churn_task("churn-dst", FlowKeySpec::dst_ip()));
      ids[k % kOpsPerCycle] = r.ok ? r.task_id : 0;
      return r.ok;
    }
    case 2: {
      kind = "resize";
      const auto r = ctl.resize_task(ids[0], 8192);
      if (r.ok) ids[0] = r.task_id;
      return r.ok;
    }
    case 3: {
      kind = "split";
      const auto [lo, hi] = ctl.split_task(ids[1]);
      ids[2] = lo.ok ? lo.task_id : 0;
      ids[3] = hi.ok ? hi.task_id : 0;
      return lo.ok && hi.ok;
    }
    default: {
      kind = "remove";
      const unsigned which = k % kOpsPerCycle == 4 ? 0 : k % kOpsPerCycle - 3;
      return ctl.remove_task(ids[which]);
    }
  }
}

BatchInputs make_churn(std::uint64_t seed) {
  TraceConfig cfg;
  cfg.num_flows = 50'000;
  cfg.num_packets = 2'000'000;
  cfg.seed = seed;
  BatchInputs in;
  in.trace = TraceGenerator::generate(cfg);
  in.probes = sample_probes(in.trace, kProbes);
  return in;
}

void churn_pass(const BatchInputs& in, const FinalState& ref, Phase& ph,
                const PassOpts& o) {
  const std::uint64_t interval = in.trace.size() / (kChurnOps + 1);
  {
    const std::uint64_t t0 = now_ns();
    FlyMonDataPlane dp(9);
    control::Controller ctl(dp);
    ctl.set_paranoid(true);
    std::vector<std::uint32_t> ids;
    for (const TaskSpec& s : churn_long_lived()) ids.push_back(deploy(ctl, s, ph));
    enable_pool(dp, ph);
    ingest::MemorySource memory{std::span<const Packet>(in.trace)};
    ingest::IngestPump pump(memory, ingest::PumpConfig{});
    ingest::RingSource ring(pump);
    TimedSource timed(ring, &pump.ring(), o.detailed);

    // Operation k falls due once packets_processed() passes (k+1) x
    // interval; the drain loop stamps the moment it sees that happen.
    std::array<std::atomic<std::uint64_t>, kChurnOps> due{};
    unsigned next_due = 0;
    auto stamp = [&](std::uint64_t processed) {
      while (next_due < kChurnOps && processed >= (next_due + 1) * interval) {
        due[next_due++].store(now_ns(), std::memory_order_release);
      }
    };
    timed.set_on_pull([&] { stamp(dp.packets_processed()); });

    OpLog log;
    std::thread controller([&] {
      std::uint32_t task_ids[4] = {0, 0, 0, 0};
      for (unsigned k = 0; k < kChurnOps; ++k) {
        std::uint64_t d = 0;
        while ((d = due[k].load(std::memory_order_acquire)) == 0) {
          std::this_thread::yield();
        }
        const char* kind = "op";
        const std::uint64_t start = now_ns();
        bool ok = false;
        try {
          ok = churn_op(ctl, k, task_ids, kind);
        } catch (const std::exception&) {
          ok = false;  // counted as a failed operation
        }
        log.record(kind, d, start, now_ns(), ok);
      }
    });

    const Phase::Window w = Phase::open_window();
    pump.start();
    FlyMonDataPlane::DrainStats drained;
    try {
      drained = dp.drain(timed);
    } catch (...) {
      stamp(~std::uint64_t{0});
      controller.join();
      throw;
    }
    ph.close_window(w, timed.first_packet_ns(), drained.packets);
    // Every threshold lies inside the stream; this only unblocks the
    // controller thread if the stream ended short.
    stamp(~std::uint64_t{0});
    controller.join();
    pump.stop();
    ph.setup_s.push_back(static_cast<double>(timed.first_packet_ns() - t0) / 1e9);
    ph.dropped += pump.stats().dropped;
    ph.add_source(timed);
    ph.add_ops(log);
    ph.sample_rss();
    if (drained.packets != in.trace.size()) {
      ph.mismatch("churn drained " + std::to_string(drained.packets) + " of " +
                  std::to_string(in.trace.size()) + " packets");
    }
    if (ctl.num_tasks() != ids.size()) {
      ph.mismatch("churn left " + std::to_string(ctl.num_tasks()) + " tasks");
    }
    close_pass(dp, ctl, ids, in, ref, o, "churn", ph);
    ph.add_parallel(dp.parallel_stats());
  }
  if (o.detailed) harvest_spans(ph.spans);
}

/// Sequential referee of a batch workload: the same tasks on a data plane
/// with no pool, fed the same packets through process_batch.
template <class DeployFn>
FinalState batch_referee(const BatchInputs& in, DeployFn&& deploy_all,
                         double& are) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  const std::vector<std::uint32_t> ids = deploy_all(ctl);
  for (std::size_t at = 0; at < in.trace.size(); at += kBatch) {
    dp.process_batch(std::span<const Packet>(
        &in.trace[at], std::min(kBatch, in.trace.size() - at)));
  }
  FinalState ref;
  ref.digest = register_digest(dp);
  ref.answers = read_tasks(ctl, ids, in.probes, nullptr);
  are = flow_are(ctl, ids.front(), in.trace);
  return ref;
}

std::vector<std::uint32_t> deploy_specs(control::Controller& ctl,
                                        const std::vector<TaskSpec>& specs) {
  std::vector<std::uint32_t> ids;
  for (const TaskSpec& s : specs) {
    const auto r = ctl.add_task(s);
    ids.push_back(r.ok ? r.task_id : 0);
  }
  return ids;
}

RunResult run_fig12b_stream(const RunConfig& cfg) {
  const Fig12bInputs in = make_fig12b(cfg.seed);
  Baseline base;
  base.rss_mib = baseline_rss_mib();
  const EpochState ref = fig12b_referee(in);
  base.are = fig12b_are(in, ref);
  return measure(cfg, base, false, [&](Phase& ph, const PassOpts& o) {
    fig12b_pass(in, ref, ph, o);
  });
}

RunResult run_full27_64k(const RunConfig& cfg) {
  const BatchInputs in = make_full27(cfg.seed);
  Baseline base;
  base.rss_mib = baseline_rss_mib();
  const FinalState ref = batch_referee(
      in, [](control::Controller& ctl) { return deploy_specs(ctl, full27_specs()); },
      base.are);
  return measure(cfg, base, true, [&](Phase& ph, const PassOpts& o) {
    full27_pass(in, ref, ph, o);
  });
}

RunResult run_churn_paranoid(const RunConfig& cfg) {
  const BatchInputs in = make_churn(cfg.seed);
  const TaskFilter churn_filter = churn_task("", {}).filter;
  for (const Packet& p : in.trace) {
    if (churn_filter.matches(p.ft)) {
      RunResult r;
      r.correct = false;
      r.notes.emplace_back("churn traffic matches the churn tasks' filter");
      return r;
    }
  }
  Baseline base;
  base.rss_mib = baseline_rss_mib();
  const FinalState ref = batch_referee(
      in,
      [](control::Controller& ctl) { return deploy_specs(ctl, churn_long_lived()); },
      base.are);
  return measure(cfg, base, true, [&](Phase& ph, const PassOpts& o) {
    churn_pass(in, ref, ph, o);
  });
}

}  // namespace

bool run_workload(const std::string& name, const RunConfig& cfg,
                  RunResult& out) {
  if (name == "fig12b_stream") {
    out = run_fig12b_stream(cfg);
  } else if (name == "full27_64k") {
    out = run_full27_64k(cfg);
  } else if (name == "churn_paranoid") {
    out = run_churn_paranoid(cfg);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
