// flymon_replay: stream a packet source through the measurement pipeline.
//
//   flymon_replay --gen [--flows N] [--pkts N] [--seed N] [--alpha X]
//                 stream a single-phase seeded Zipf workload
//   flymon_replay --fig12b [--epochs N]
//                 stream the paper's Figure 12b phased workload
//                 (skew spike in epochs 6..15)
//   flymon_replay --file PATH [--format pcap|fmtr]
//                 replay a capture file (format sniffed by default) and
//                 report the records it skipped (truncated, not IPv4)
//   --workers N   shard the hot path across N executors (default 1)
//   --ring[=CAP]  feed the data plane through the lock-free SPSC ring via
//                 the ingest pump (producer thread + backpressure);
//                 without it the drain loop pulls the source directly.
//                 CAP is the ring capacity (power of two, default 65536)
//   --drop        on a full ring, drop instead of blocking the producer
//   --pace MODE   real | asap (default asap); --scale X divides real time
//   --verify      also run the identical packets through a sequential
//                 process_batch instance and require byte-identical
//                 registers and query answers (exit 1 on mismatch)
//   --json PATH   write machine-readable stats
//
// The pipeline deploys the standard mergeable task mix (CMS + Bloom +
// MAX-queue) so the replay exercises real per-packet work, and reports
// sustained pps, drop counts and ring occupancy from the same telemetry
// counters production exports.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "ingest/file_source.hpp"
#include "ingest/gen_source.hpp"
#include "ingest/packet_source.hpp"
#include "ingest/pump.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace flymon;

struct Options {
  enum class Kind { kNone, kGen, kFig12b, kFile };
  Kind kind = Options::Kind::kNone;
  // --gen
  std::size_t flows = 10'000;
  std::size_t pkts = 1'000'000;
  std::uint64_t seed = 1;
  double alpha = 1.05;
  // --fig12b
  unsigned epochs = 20;
  // --file
  std::string path;
  ingest::FileReplaySource::Format format =
      ingest::FileReplaySource::Format::kAuto;
  // pipeline
  unsigned workers = 1;
  bool use_ring = false;
  std::size_t ring_capacity = 1u << 16;
  bool drop = false;
  ingest::PumpConfig::Pace pace = ingest::PumpConfig::Pace::kAsap;
  double time_scale = 1.0;
  bool verify = false;
  std::string json_path;
};

/// The mergeable mix the sharded tests gate on: one task per exact-merge
/// op kind, so the replay exercises Cond-ADD, OR and MAX register traffic.
bool deploy_mix(control::Controller& ctl, std::string& err,
                std::uint32_t& cms_id) {
  {
    TaskSpec s;
    s.name = "cms";
    s.key = FlowKeySpec::five_tuple();
    s.attribute = AttributeKind::kFrequency;
    s.memory_buckets = 8192;
    s.rows = 3;
    const auto r = ctl.add_task(s);
    if (!r.ok) { err = "cms: " + r.error; return false; }
    cms_id = r.task_id;
  }
  {
    TaskSpec s;
    s.name = "bloom";
    s.key = FlowKeySpec::src_ip();
    s.attribute = AttributeKind::kExistence;
    s.memory_buckets = 8192;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    if (!r.ok) { err = "bloom: " + r.error; return false; }
  }
  {
    TaskSpec s;
    s.name = "maxq";
    s.key = FlowKeySpec::ip_pair();
    s.attribute = AttributeKind::kMax;
    s.param = ParamSpec::metadata(MetaField::kQueueLen);
    s.memory_buckets = 4096;
    s.rows = 2;
    const auto r = ctl.add_task(s);
    if (!r.ok) { err = "maxq: " + r.error; return false; }
  }
  return true;
}

bool identical_registers(const FlyMonDataPlane& a, const FlyMonDataPlane& b,
                         std::string& where) {
  if (a.num_groups() != b.num_groups()) {
    where = "group count";
    return false;
  }
  for (unsigned g = 0; g < a.num_groups(); ++g) {
    for (unsigned c = 0; c < a.group(g).num_cmus(); ++c) {
      const auto& ra = a.group(g).cmu(c).reg();
      const auto& rb = b.group(g).cmu(c).reg();
      if (ra.size() != rb.size() ||
          ra.read_range(0, ra.size()) != rb.read_range(0, rb.size())) {
        where = "group " + std::to_string(g) + " cmu " + std::to_string(c);
        return false;
      }
    }
  }
  return true;
}

std::unique_ptr<ingest::PacketSource> make_source(const Options& opt,
                                                  std::string& err) {
  switch (opt.kind) {
    case Options::Kind::kGen: {
      TraceConfig cfg;
      cfg.num_flows = opt.flows;
      cfg.num_packets = opt.pkts;
      cfg.seed = opt.seed;
      cfg.zipf_alpha = opt.alpha;
      ingest::GeneratorConfig gen;
      gen.phases.push_back(ingest::GeneratorPhase{0, {cfg}, {}, cfg.duration_ns});
      return std::make_unique<ingest::GeneratorSource>(std::move(gen));
    }
    case Options::Kind::kFig12b:
      return std::make_unique<ingest::GeneratorSource>(
          ingest::fig12b_scenario(opt.epochs));
    case Options::Kind::kFile:
      try {
        return std::make_unique<ingest::FileReplaySource>(opt.path,
                                                          opt.format);
      } catch (const std::exception& e) {
        err = e.what();
        return nullptr;
      }
    case Options::Kind::kNone:
      break;
  }
  err = "no source selected (--gen, --fig12b or --file; --help)";
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  auto int_arg = [&](int& i) { return std::stoull(argv[++i]); };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    if (arg == "--gen") {
      opt.kind = Options::Kind::kGen;
    } else if (arg == "--fig12b") {
      opt.kind = Options::Kind::kFig12b;
    } else if (arg == "--file" && has_next) {
      opt.kind = Options::Kind::kFile;
      opt.path = argv[++i];
    } else if (arg == "--format" && has_next) {
      const std::string f = argv[++i];
      if (f == "pcap") {
        opt.format = ingest::FileReplaySource::Format::kPcap;
      } else if (f == "fmtr") {
        opt.format = ingest::FileReplaySource::Format::kFmtr;
      } else {
        std::fprintf(stderr, "error: unknown format '%s'\n", f.c_str());
        return 1;
      }
    } else if (arg == "--flows" && has_next) {
      opt.flows = static_cast<std::size_t>(int_arg(i));
    } else if (arg == "--pkts" && has_next) {
      opt.pkts = static_cast<std::size_t>(int_arg(i));
    } else if (arg == "--seed" && has_next) {
      opt.seed = int_arg(i);
    } else if (arg == "--alpha" && has_next) {
      opt.alpha = std::stod(argv[++i]);
    } else if (arg == "--epochs" && has_next) {
      opt.epochs = static_cast<unsigned>(int_arg(i));
    } else if (arg == "--workers" && has_next) {
      opt.workers = static_cast<unsigned>(int_arg(i));
    } else if (arg == "--ring") {
      opt.use_ring = true;
    } else if (arg.rfind("--ring=", 0) == 0) {
      opt.use_ring = true;
      opt.ring_capacity = std::stoull(arg.substr(7));
      if (opt.ring_capacity < 2 ||
          (opt.ring_capacity & (opt.ring_capacity - 1)) != 0) {
        std::fprintf(stderr, "error: ring capacity must be a power of two\n");
        return 1;
      }
    } else if (arg == "--drop") {
      opt.drop = true;
    } else if (arg == "--pace" && has_next) {
      const std::string p = argv[++i];
      if (p == "real") {
        opt.pace = ingest::PumpConfig::Pace::kReal;
      } else if (p == "asap") {
        opt.pace = ingest::PumpConfig::Pace::kAsap;
      } else {
        std::fprintf(stderr, "error: unknown pace '%s'\n", p.c_str());
        return 1;
      }
    } else if (arg == "--scale" && has_next) {
      opt.time_scale = std::stod(argv[++i]);
    } else if (arg == "--verify") {
      opt.verify = true;
    } else if (arg == "--json" && has_next) {
      opt.json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: flymon_replay (--gen [--flows N] [--pkts N] [--seed N] "
          "[--alpha X] | --fig12b [--epochs N] | --file PATH [--format "
          "pcap|fmtr]) [--workers N] [--ring[=CAP]] [--drop] [--pace "
          "real|asap] [--scale X] [--verify] [--json PATH]\n");
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown argument '%s' (--help)\n",
                   arg.c_str());
      return 1;
    }
  }

  // Pacing is the pump's job (the producer thread sleeps between
  // batches), so real-time replay implies the ring path.
  if (opt.pace == ingest::PumpConfig::Pace::kReal && !opt.use_ring) {
    std::fprintf(stderr, "note: --pace real enables the ingest ring\n");
    opt.use_ring = true;
  }

  std::string err;
  std::unique_ptr<ingest::PacketSource> source = make_source(opt, err);
  if (source == nullptr) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }

  telemetry::set_enabled(true);

  // A capture file counts the records it skips (truncated, not IPv4).
  const auto* file = dynamic_cast<const ingest::FileReplaySource*>(source.get());
  std::uint64_t skipped = 0;

  // --verify needs both pipelines fed the exact same packets: materialise
  // the source once and replay it from memory on both sides.
  std::vector<Packet> golden;
  if (opt.verify) {
    std::vector<Packet> buf(4096);
    ingest::for_each_batch(*source, buf, [&](std::span<const Packet> pkts) {
      golden.insert(golden.end(), pkts.begin(), pkts.end());
    }, {});
    if (file != nullptr) skipped = file->skipped();
    file = nullptr;
    source = std::make_unique<ingest::MemorySource>(
        std::span<const Packet>(golden));
  }

  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  std::uint32_t cms_id = 0;
  if (!deploy_mix(ctl, err, cms_id)) {
    std::fprintf(stderr, "error: %s\n", err.c_str());
    return 1;
  }
  if (opt.workers > 1) dp.enable_parallel(opt.workers);

  ingest::PumpStats pump_stats;
  FlyMonDataPlane::DrainStats drain_stats;
  const auto t0 = std::chrono::steady_clock::now();
  if (opt.use_ring) {
    ingest::PumpConfig pcfg;
    pcfg.ring_capacity = opt.ring_capacity;
    pcfg.pace = opt.pace;
    pcfg.time_scale = opt.time_scale;
    pcfg.on_full = opt.drop ? ingest::PumpConfig::FullPolicy::kDrop
                            : ingest::PumpConfig::FullPolicy::kBlock;
    pcfg.source_label = "replay";
    ingest::IngestPump pump(*source, pcfg);
    pump.start();
    ingest::RingSource ring_source(pump);
    drain_stats = dp.drain(ring_source);
    pump.stop();
    pump_stats = pump.stats();
  } else {
    drain_stats = dp.drain(*source);
    pump_stats.produced = source->produced();
    pump_stats.enqueued = source->produced();
  }
  const auto t1 = std::chrono::steady_clock::now();
  dp.merge_shards();
  if (file != nullptr) skipped = file->skipped();

  const double secs =
      std::chrono::duration<double>(t1 - t0).count();
  const double pps = secs > 0 ? static_cast<double>(drain_stats.packets) / secs
                              : 0.0;
  std::printf("source:    %s\n", source->name());
  std::printf("packets:   %llu in %llu batch(es)\n",
              static_cast<unsigned long long>(drain_stats.packets),
              static_cast<unsigned long long>(drain_stats.batches));
  std::printf("produced:  %llu  enqueued: %llu  dropped: %llu\n",
              static_cast<unsigned long long>(pump_stats.produced),
              static_cast<unsigned long long>(pump_stats.enqueued),
              static_cast<unsigned long long>(pump_stats.dropped));
  if (opt.kind == Options::Kind::kFile) {
    std::printf("skipped:   %llu record(s) (truncated or not IPv4)\n",
                static_cast<unsigned long long>(skipped));
  }
  std::printf("elapsed:   %.3f s  (%.2f Mpps, %u worker(s)%s)\n", secs,
              pps / 1e6, opt.workers, opt.use_ring ? ", ring" : "");

  bool verified = true;
  if (opt.verify) {
    FlyMonDataPlane ref_dp(9);
    control::Controller ref_ctl(ref_dp);
    std::uint32_t ref_cms_id = 0;
    if (!deploy_mix(ref_ctl, err, ref_cms_id)) {
      std::fprintf(stderr, "error: reference %s\n", err.c_str());
      return 1;
    }
    // Sequential batched reference: same packets, same chunking knob,
    // no pool, no ring.
    const std::size_t chunk = 4096;
    for (std::size_t at = 0; at < golden.size(); at += chunk) {
      const std::size_t n = std::min(chunk, golden.size() - at);
      ref_dp.process_batch(std::span<const Packet>(&golden[at], n));
    }
    std::string where;
    verified = identical_registers(dp, ref_dp, where);
    if (verified) {
      // Registers identical implies identical answers; probe a few query
      // paths anyway so the readout chain is exercised end to end.
      for (std::size_t i = 0; i < golden.size() && verified; i += 997) {
        if (ctl.query_value(cms_id, golden[i]) !=
            ref_ctl.query_value(ref_cms_id, golden[i])) {
          verified = false;
          where = "query_value(cms) at probe " + std::to_string(i);
        }
      }
    }
    if (verified) {
      std::printf("verify:    OK — registers and query answers byte-identical "
                  "vs sequential process_batch\n");
    } else {
      std::printf("verify:    MISMATCH at %s\n", where.c_str());
    }
  }

  if (!opt.json_path.empty()) {
    std::ostringstream os;
    os << "{\"source\": \"" << source->name() << "\""
       << ", \"packets\": " << drain_stats.packets
       << ", \"batches\": " << drain_stats.batches
       << ", \"produced\": " << pump_stats.produced
       << ", \"enqueued\": " << pump_stats.enqueued
       << ", \"dropped\": " << pump_stats.dropped << ", \"skipped\": "
       << (opt.kind == Options::Kind::kFile ? std::to_string(skipped) : "null")
       << ", \"elapsed_s\": " << secs << ", \"pps\": " << pps
       << ", \"workers\": " << opt.workers
       << ", \"ring\": " << (opt.use_ring ? "true" : "false")
       << ", \"verified\": " << (opt.verify ? (verified ? "true" : "false")
                                            : "null")
       << "}\n";
    if (!telemetry::write_file(opt.json_path, os.str())) {
      std::fprintf(stderr, "error: cannot write '%s'\n",
                   opt.json_path.c_str());
      return 1;
    }
  }
  return verified ? 0 : 1;
}
