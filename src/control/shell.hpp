// An interactive, scriptable control-plane front end (the open-source
// FlyMon artifact ships an interactive control plane; this is its
// equivalent here).  Commands are plain text lines; `execute` returns the
// response, so the shell is equally usable from a terminal or from tests.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "control/adaptive.hpp"
#include "control/controller.hpp"
#include "ingest/pump.hpp"
#include "telemetry/trace_ring.hpp"

namespace flymon::control {

/// Parse "10.1.2.3" -> host-order IPv4.  Returns nullopt on malformed input.
std::optional<std::uint32_t> parse_ipv4(const std::string& text);

/// Parse a flow-key spec: '+'-joined fields from {SrcIP[/len], DstIP[/len],
/// SrcPort, DstPort, Proto, Ts}, plus the aliases IPPair and 5Tuple.
std::optional<FlowKeySpec> parse_key_spec(const std::string& text);

class Shell {
 public:
  explicit Shell(Controller& ctl) : ctl_(&ctl), adaptive_(ctl) {}
  ~Shell();  ///< stops a running ingest session (pump + drain thread)

  /// Execute one command line; returns the printable response.
  /// Unknown or malformed commands return an "error: ..." string and
  /// change nothing.
  std::string execute(const std::string& line);

  /// Command summary (the `help` output).
  static std::string help();

 private:
  std::string cmd_add(const std::vector<std::string>& args);
  std::string cmd_remove(const std::vector<std::string>& args);
  std::string cmd_resize(const std::vector<std::string>& args);
  std::string cmd_split(const std::vector<std::string>& args);
  std::string cmd_list() const;
  std::string cmd_stats() const;
  std::string cmd_query(const std::vector<std::string>& args) const;
  std::string cmd_cardinality(const std::vector<std::string>& args) const;
  std::string cmd_entropy(const std::vector<std::string>& args) const;
  std::string cmd_occupancy(const std::vector<std::string>& args);
  std::string cmd_rebalance();
  std::string cmd_telemetry(const std::vector<std::string>& args);
  std::string cmd_trace(const std::vector<std::string>& args);
  std::string cmd_trace_spans(const std::vector<std::string>& args);
  std::string cmd_verify(const std::vector<std::string>& args);
  std::string cmd_plan(const std::vector<std::string>& args);
  std::string cmd_ingest(const std::vector<std::string>& args);

  /// Stop the pump, join the drain thread, keep the attached source.
  void stop_ingest();

  Controller* ctl_;
  AdaptiveMemoryManager adaptive_;
  std::unique_ptr<telemetry::PacketTracer> tracer_;
  /// Ops staged by the `plan` command family, applied by `plan commit`.
  std::vector<PlanOp> pending_;

  // Streaming ingest session (`ingest` command family).  Lifetime order
  // matters: the pump borrows the source, the drain thread borrows both.
  std::unique_ptr<ingest::PacketSource> source_;
  ingest::PumpConfig pump_cfg_;
  std::unique_ptr<ingest::IngestPump> pump_;
  std::thread drain_thread_;
  FlyMonDataPlane::DrainStats last_drain_;  ///< valid after stop_ingest()
  std::string drain_error_;  ///< what the source threw, valid after stop_ingest()
};

}  // namespace flymon::control
