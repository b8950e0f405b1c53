#include "control/shell.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <sstream>

#include "ingest/file_source.hpp"
#include "ingest/gen_source.hpp"
#include "telemetry/export.hpp"
#include "trace/chrome_export.hpp"
#include "trace/span.hpp"
#include "verify/mutations.hpp"
#include "verify/planner.hpp"
#include "verify/verifier.hpp"

namespace flymon::control {
namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

/// "key=value" -> value for `key`, or nullopt.
std::optional<std::string> arg_value(const std::vector<std::string>& args,
                                     const std::string& key) {
  const std::string prefix = key + "=";
  for (const std::string& a : args) {
    if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
  }
  return std::nullopt;
}

std::optional<std::uint64_t> parse_u64(const std::string& s) {
  std::uint64_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<double> parse_double(const std::string& s) {
  if (s.empty()) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return std::nullopt;
  return v;
}

std::optional<AttributeKind> parse_attr(const std::string& s) {
  if (s == "Frequency") return AttributeKind::kFrequency;
  if (s == "Distinct") return AttributeKind::kDistinct;
  if (s == "Existence") return AttributeKind::kExistence;
  if (s == "Max") return AttributeKind::kMax;
  if (s == "Similarity") return AttributeKind::kSimilarity;
  return std::nullopt;
}

std::optional<Algorithm> parse_algo(const std::string& s) {
  if (s == "Auto") return Algorithm::kAuto;
  if (s == "CMS") return Algorithm::kCms;
  if (s == "SuMaxSum") return Algorithm::kSuMaxSum;
  if (s == "MRAC") return Algorithm::kMrac;
  if (s == "Tower") return Algorithm::kTowerSketch;
  if (s == "CounterBraids") return Algorithm::kCounterBraids;
  if (s == "BeauCoup") return Algorithm::kBeauCoup;
  if (s == "HLL") return Algorithm::kHyperLogLog;
  if (s == "LinearCounting") return Algorithm::kLinearCounting;
  if (s == "BloomFilter") return Algorithm::kBloomFilter;
  if (s == "SuMaxMax") return Algorithm::kSuMaxMax;
  if (s == "MaxInterarrival") return Algorithm::kMaxInterarrival;
  if (s == "OddSketch") return Algorithm::kOddSketch;
  return std::nullopt;
}

std::optional<MetaField> parse_meta(const std::string& s) {
  if (s == "One") return MetaField::kOne;
  if (s == "Bytes") return MetaField::kWireBytes;
  if (s == "QueueLen") return MetaField::kQueueLen;
  if (s == "QueueDelay") return MetaField::kQueueDelay;
  if (s == "Timestamp") return MetaField::kTimestamp;
  return std::nullopt;
}

/// Shared by `add` and `plan add`; defined below cmd_add.
std::string parse_task_spec(const std::vector<std::string>& args,
                            TaskSpec& spec);

/// "10.0.0.0/8" -> (ip, len).
std::optional<std::pair<std::uint32_t, std::uint8_t>> parse_prefix(const std::string& s) {
  const auto slash = s.find('/');
  const std::string ip_part = slash == std::string::npos ? s : s.substr(0, slash);
  const auto ip = parse_ipv4(ip_part);
  if (!ip) return std::nullopt;
  std::uint8_t len = 32;
  if (slash != std::string::npos) {
    const auto l = parse_u64(s.substr(slash + 1));
    if (!l || *l > 32) return std::nullopt;
    len = static_cast<std::uint8_t>(*l);
  }
  return std::make_pair(*ip, len);
}

}  // namespace

std::optional<std::uint32_t> parse_ipv4(const std::string& text) {
  std::uint32_t ip = 0;
  std::size_t pos = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet > 0) {
      if (pos >= text.size() || text[pos] != '.') return std::nullopt;
      ++pos;
    }
    std::uint32_t v = 0;
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} || ptr == begin || v > 255) return std::nullopt;
    pos = static_cast<std::size_t>(ptr - text.data());
    ip = (ip << 8) | v;
  }
  return pos == text.size() ? std::optional<std::uint32_t>(ip) : std::nullopt;
}

std::optional<FlowKeySpec> parse_key_spec(const std::string& text) {
  if (text == "IPPair") return FlowKeySpec::ip_pair();
  if (text == "5Tuple") return FlowKeySpec::five_tuple();
  FlowKeySpec spec;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t plus = text.find('+', begin);
    const std::string field =
        text.substr(begin, plus == std::string::npos ? std::string::npos : plus - begin);
    std::string name = field;
    std::uint8_t len = 0;
    const auto slash = field.find('/');
    if (slash != std::string::npos) {
      name = field.substr(0, slash);
      const auto l = parse_u64(field.substr(slash + 1));
      if (!l || *l > 32) return std::nullopt;
      len = static_cast<std::uint8_t>(*l);
    }
    // Each field may appear at most once.
    if (name == "SrcIP" && spec.src_ip_bits == 0) {
      spec.src_ip_bits = len == 0 ? 32 : len;
    } else if (name == "DstIP" && spec.dst_ip_bits == 0) {
      spec.dst_ip_bits = len == 0 ? 32 : len;
    } else if (name == "SrcPort" && spec.src_port_bits == 0) {
      spec.src_port_bits = 16;
    } else if (name == "DstPort" && spec.dst_port_bits == 0) {
      spec.dst_port_bits = 16;
    } else if (name == "Proto" && spec.proto_bits == 0) {
      spec.proto_bits = 8;
    } else if (name == "Ts" && spec.ts_bits == 0) {
      spec.ts_bits = 32;
    } else {
      return std::nullopt;
    }
    if (plus == std::string::npos) break;
    begin = plus + 1;
  }
  if (spec.empty()) return std::nullopt;
  return spec;
}

std::string Shell::help() {
  return
      "commands:\n"
      "  add key=<spec> attr=<Frequency|Distinct|Existence|Max|Similarity>\n"
      "      [param=<One|Bytes|QueueLen|QueueDelay|Timestamp|key:<spec>>]\n"
      "      [algo=<CMS|SuMaxSum|MRAC|Tower|CounterBraids|BeauCoup|HLL|\n"
      "             LinearCounting|BloomFilter|SuMaxMax|MaxInterarrival|OddSketch>]\n"
      "      [mem=<buckets>] [rows=<d>] [filter=<ip/len>] [dstfilter=<ip/len>]\n"
      "      [threshold=<n>] [name=<text>]\n"
      "      [eps=<err>] [delta=<prob>] [flows=<n>]   accuracy targets\n"
      "  remove <id>            retire a task and reclaim its resources\n"
      "  resize <id> <buckets>  reallocate memory (id is stable)\n"
      "  split <id>             split into two filter-halved subtasks\n"
      "  query <id> src=<ip> [dst=<ip>] [sport=<n>] [dport=<n>] [proto=<n>]\n"
      "  cardinality <id>       distinct-count estimate (HLL/LinearCounting)\n"
      "  entropy <id>           flow entropy estimate (MRAC)\n"
      "  occupancy <id>         register load factor of a task\n"
      "  rebalance              adaptive grow/shrink of every task's memory\n"
      "  telemetry              live per-group/CMU counters + task health\n"
      "  telemetry on|off       enable/disable metric collection\n"
      "  telemetry json|prom [path]   export metrics (JSON / Prometheus text)\n"
      "  telemetry reset        zero every metric\n"
      "  trace on [1-in-N]      sample packet traces into a ring buffer\n"
      "  trace off | status     stop sampling / show tracer state\n"
      "  trace dump [path]      dump sampled PHV traces as JSON\n"
      "  trace spans on|off     record control-path spans (reconfig timeline)\n"
      "  trace spans dump [path] export spans as Chrome trace JSON (Perfetto)\n"
      "  trace spans status|clear  span collector stats / reset rings\n"
      "  verify                 run every static analyzer over the deployment\n"
      "  verify list            list the registered analyzers\n"
      "  verify <analyzer>      run one analyzer (resources|tcam|memory|tasks|\n"
      "                         dataflow-key|dataflow-range|dataflow-accuracy)\n"
      "  verify paranoid on|off re-verify after every deploy/resize/remove\n"
      "  verify selftest        seeded-corruption detection self-test\n"
      "  plan [show]            list the staged reconfiguration batch\n"
      "  plan add <add-args>    stage a deploy (same arguments as 'add')\n"
      "  plan remove <id> | resize <id> <buckets> | split <id>\n"
      "  plan run               dry-run the batch on the live world + verify\n"
      "  plan diff              compiled-entry diff the batch would cause\n"
      "  plan commit            apply the batch for real (only if clean)\n"
      "  plan clear             drop the staged batch\n"
      "  ingest attach gen [fig12b] [flows=N] [pkts=N] [seed=N] [alpha=F]\n"
      "                         [dur=NS]    attach a synthetic traffic source\n"
      "  ingest attach file <path> [format=pcap|fmtr]  attach a capture file\n"
      "  ingest start [ring=N] [batch=N] [drop] [pace=real|asap] [scale=X]\n"
      "                         stream the source through the data plane\n"
      "  ingest stop | stats | detach   control / observe the stream\n"
      "  list | stats | help";
}

std::string Shell::execute(const std::string& line) {
  const std::vector<std::string> tokens = tokenize(line);
  if (tokens.empty()) return "";
  const std::string& cmd = tokens[0];
  const std::vector<std::string> args(tokens.begin() + 1, tokens.end());
  if (cmd == "help") return help();
  if (cmd == "add") return cmd_add(args);
  if (cmd == "remove") return cmd_remove(args);
  if (cmd == "resize") return cmd_resize(args);
  if (cmd == "split") return cmd_split(args);
  if (cmd == "list") return cmd_list();
  if (cmd == "stats") return cmd_stats();
  if (cmd == "query") return cmd_query(args);
  if (cmd == "cardinality") return cmd_cardinality(args);
  if (cmd == "entropy") return cmd_entropy(args);
  if (cmd == "occupancy") return cmd_occupancy(args);
  if (cmd == "rebalance") return cmd_rebalance();
  if (cmd == "telemetry") return cmd_telemetry(args);
  if (cmd == "trace") return cmd_trace(args);
  if (cmd == "verify") return cmd_verify(args);
  if (cmd == "plan") return cmd_plan(args);
  if (cmd == "ingest") return cmd_ingest(args);
  return "error: unknown command '" + cmd + "' (try 'help')";
}

std::string Shell::cmd_plan(const std::vector<std::string>& args) {
  if (args.empty() || args[0] == "show") {
    if (pending_.empty()) return "(no staged ops; 'plan add ...' to stage)";
    std::ostringstream out;
    for (std::size_t i = 0; i < pending_.size(); ++i) {
      out << i + 1 << ". " << describe(pending_[i]) << '\n';
    }
    out << pending_.size() << " op(s) staged ('plan run' to dry-run)";
    return out.str();
  }
  const std::string& sub = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (sub == "add") {
    TaskSpec spec;
    if (const std::string err = parse_task_spec(rest, spec); !err.empty()) {
      return err;
    }
    pending_.push_back(PlanOp::add(std::move(spec)));
    return "staged op " + std::to_string(pending_.size()) + ": add";
  }
  if (sub == "remove" || sub == "split") {
    if (rest.size() != 1) return "error: usage: plan " + sub + " <id>";
    // Ids are checked by `plan run`, not here: an earlier staged op may
    // mint the id this one names.
    const auto id = parse_u64(rest[0]);
    if (!id) return "error: bad arguments";
    pending_.push_back(sub == "remove"
                           ? PlanOp::remove(static_cast<std::uint32_t>(*id))
                           : PlanOp::split(static_cast<std::uint32_t>(*id)));
    return "staged op " + std::to_string(pending_.size()) + ": " + sub;
  }
  if (sub == "resize") {
    if (rest.size() != 2) return "error: usage: plan resize <id> <buckets>";
    const auto id = parse_u64(rest[0]);
    const auto buckets = parse_u64(rest[1]);
    if (!id || !buckets) return "error: bad arguments";
    pending_.push_back(PlanOp::resize(static_cast<std::uint32_t>(*id),
                                      static_cast<std::uint32_t>(*buckets)));
    return "staged op " + std::to_string(pending_.size()) + ": resize";
  }
  if (sub == "clear") {
    const std::size_t n = pending_.size();
    pending_.clear();
    return "cleared " + std::to_string(n) + " staged op(s)";
  }
  if (sub == "run") {
    const verify::PlanResult result = ctl_->plan(pending_);
    return result.format() + "(dry run; data plane untouched)";
  }
  if (sub == "diff") {
    const verify::PlanResult result = ctl_->plan(pending_);
    std::string out = verify::format_plan_diff(result.compiled_before,
                                               result.compiled_after);
    if (!result.ok) out += "note: plan FAILED: " + result.error + "\n";
    return out + "(dry run; data plane untouched)";
  }
  if (sub == "commit") {
    const verify::PlanResult result = ctl_->plan(pending_);
    if (!result.ok) {
      return result.format() +
             "commit aborted; staged ops kept ('plan clear' to drop)";
    }
    std::ostringstream out;
    for (const PlanOp& op : pending_) {
      const ApplyResult r = ctl_->apply(op);
      if (!r.ok) {
        return out.str() + "error applying " + describe(op) + ": " + r.detail;
      }
      out << describe(op) << ": " << r.detail << '\n';
    }
    out << pending_.size() << " op(s) committed";
    pending_.clear();
    return out.str();
  }
  return "error: usage: plan [show|add <args>|remove <id>|resize <id> "
         "<buckets>|split <id>|run|diff|commit|clear]";
}

namespace {

/// Parse the `add` argument family into a TaskSpec.  Returns an error
/// string ("" on success) so `add` and `plan add` share one parser.
std::string parse_task_spec(const std::vector<std::string>& args,
                            TaskSpec& spec) {
  if (const auto v = arg_value(args, "name")) spec.name = *v;

  if (const auto v = arg_value(args, "key")) {
    const auto key = parse_key_spec(*v);
    if (!key) return "error: bad key spec '" + *v + "'";
    spec.key = *key;
  }
  const auto attr_text = arg_value(args, "attr");
  if (!attr_text) return "error: attr= is required";
  const auto attr = parse_attr(*attr_text);
  if (!attr) return "error: bad attribute '" + *attr_text + "'";
  spec.attribute = *attr;

  if (const auto v = arg_value(args, "param")) {
    if (v->rfind("key:", 0) == 0) {
      const auto key = parse_key_spec(v->substr(4));
      if (!key) return "error: bad param key spec";
      spec.param = ParamSpec::compressed(*key);
    } else if (const auto meta = parse_meta(*v)) {
      spec.param = ParamSpec::metadata(*meta);
    } else if (const auto n = parse_u64(*v)) {
      spec.param = ParamSpec::constant(static_cast<std::uint32_t>(*n));
    } else {
      return "error: bad param '" + *v + "'";
    }
  } else if (spec.attribute == AttributeKind::kDistinct ||
             spec.attribute == AttributeKind::kExistence ||
             spec.attribute == AttributeKind::kSimilarity) {
    spec.param = ParamSpec::compressed(
        spec.key.empty() ? FlowKeySpec::five_tuple() : spec.key);
  }

  if (const auto v = arg_value(args, "algo")) {
    const auto algo = parse_algo(*v);
    if (!algo) return "error: bad algorithm '" + *v + "'";
    spec.algorithm = *algo;
  }
  if (const auto v = arg_value(args, "mem")) {
    const auto n = parse_u64(*v);
    if (!n || *n == 0) return "error: bad mem";
    spec.memory_buckets = static_cast<std::uint32_t>(*n);
  }
  if (const auto v = arg_value(args, "rows")) {
    const auto n = parse_u64(*v);
    if (!n || *n == 0 || *n > 3) return "error: rows must be 1..3";
    spec.rows = static_cast<unsigned>(*n);
  }
  if (const auto v = arg_value(args, "threshold")) {
    const auto n = parse_u64(*v);
    if (!n) return "error: bad threshold";
    spec.report_threshold = *n;
  }
  if (const auto v = arg_value(args, "filter")) {
    const auto p = parse_prefix(*v);
    if (!p) return "error: bad filter '" + *v + "'";
    spec.filter.src_ip = p->first;
    spec.filter.src_len = p->second;
  }
  if (const auto v = arg_value(args, "dstfilter")) {
    const auto p = parse_prefix(*v);
    if (!p) return "error: bad dstfilter '" + *v + "'";
    spec.filter.dst_ip = p->first;
    spec.filter.dst_len = p->second;
  }
  // Accuracy targets for the dataflow-accuracy analyzer.
  if (const auto v = arg_value(args, "eps")) {
    const auto d = parse_double(*v);
    if (!d || *d <= 0) return "error: bad eps";
    spec.target_epsilon = *d;
  }
  if (const auto v = arg_value(args, "delta")) {
    const auto d = parse_double(*v);
    if (!d || *d <= 0) return "error: bad delta";
    spec.target_delta = *d;
  }
  if (const auto v = arg_value(args, "flows")) {
    const auto n = parse_u64(*v);
    if (!n) return "error: bad flows";
    spec.expected_items = *n;
  }
  return {};
}

}  // namespace

std::string Shell::cmd_add(const std::vector<std::string>& args) {
  TaskSpec spec;
  if (const std::string err = parse_task_spec(args, spec); !err.empty()) {
    return err;
  }

  const DeployResult r = ctl_->add_task(spec);
  if (!r.ok) return "error: " + r.error;
  std::ostringstream out;
  out << "task " << r.task_id << " deployed: " << r.report.table_rules
      << " table rules, " << r.report.hash_mask_rules << " hash masks, "
      << r.report.cmus_used << " CMUs, " << r.report.delay_ms() << " ms";
  return out.str();
}

std::string Shell::cmd_remove(const std::vector<std::string>& args) {
  if (args.size() != 1) return "error: usage: remove <id>";
  const auto id = parse_u64(args[0]);
  if (!id) return "error: bad id";
  return ctl_->remove_task(static_cast<std::uint32_t>(*id)) ? "removed"
                                                            : "error: unknown task";
}

std::string Shell::cmd_resize(const std::vector<std::string>& args) {
  if (args.size() != 2) return "error: usage: resize <id> <buckets>";
  const auto id = parse_u64(args[0]);
  const auto buckets = parse_u64(args[1]);
  if (!id || !buckets) return "error: bad arguments";
  const DeployResult r =
      ctl_->resize_task(static_cast<std::uint32_t>(*id), static_cast<std::uint32_t>(*buckets));
  if (!r.ok) return "error: " + r.error;
  std::ostringstream out;
  out << "task " << r.task_id << " resized to "
      << ctl_->task(r.task_id)->buckets << " buckets in " << r.report.delay_ms()
      << " ms";
  return out.str();
}

std::string Shell::cmd_split(const std::vector<std::string>& args) {
  if (args.size() != 1) return "error: usage: split <id>";
  const auto id = parse_u64(args[0]);
  if (!id) return "error: bad id";
  const auto [lo, hi] = ctl_->split_task(static_cast<std::uint32_t>(*id));
  if (!lo.ok) return "error: " + lo.error;
  std::ostringstream out;
  out << "split into tasks " << lo.task_id << " and " << hi.task_id;
  return out.str();
}

std::string Shell::cmd_list() const {
  std::ostringstream out;
  out << "id   algorithm        attr        rows  buckets  name\n";
  for (std::uint32_t id : ctl_->task_ids()) {
    const DeployedTask* t = ctl_->task(id);
    char line[160];
    std::snprintf(line, sizeof line, "%-4u %-16s %-11s %-5zu %-8u %s\n", id,
                  to_string(t->algorithm), to_string(t->spec.attribute),
                  t->rows.size(), t->buckets, t->spec.name.c_str());
    out << line;
  }
  if (ctl_->task_ids().empty()) out << "(no tasks)\n";
  return out.str();
}

std::string Shell::cmd_stats() const {
  std::ostringstream out;
  auto& dp = ctl_->dataplane();
  out << "group cmu free-buckets\n";
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      const std::uint32_t free = ctl_->free_buckets(g, c);
      if (free != dp.group(g).config().register_buckets) {
        char line[64];
        std::snprintf(line, sizeof line, "%-5u %-3u %u\n", g, c, free);
        out << line;
      }
    }
  }
  out << "tasks: " << ctl_->num_tasks();
  out << "\npackets processed: " << dp.packets_processed();
  out << "\ntelemetry: " << (telemetry::enabled() ? "on" : "off");
  out << ", tracing: ";
  if (dp.tracer() != nullptr) {
    out << "on (1-in-" << dp.tracer()->sample_every() << ", "
        << dp.tracer()->size() << "/" << dp.tracer()->capacity() << " records)";
  } else {
    out << "off";
  }
  return out.str();
}

std::string Shell::cmd_telemetry(const std::vector<std::string>& args) {
  telemetry::Registry& reg = ctl_->registry();
  if (!args.empty()) {
    const std::string& sub = args[0];
    if (sub == "on") {
      telemetry::set_enabled(true);
      return "telemetry enabled";
    }
    if (sub == "off") {
      telemetry::set_enabled(false);
      return "telemetry disabled";
    }
    if (sub == "reset") {
      reg.reset_values();
      return "telemetry metrics zeroed";
    }
    if (sub == "json" || sub == "prom") {
      ctl_->collect_telemetry();
      const std::string text = sub == "json" ? telemetry::to_json(reg)
                                             : telemetry::to_prometheus(reg);
      if (args.size() >= 2) {
        if (!telemetry::write_file(args[1], text)) {
          return "error: cannot write '" + args[1] + "'";
        }
        return "wrote " + std::to_string(text.size()) + " bytes to " + args[1];
      }
      return text;
    }
    return "error: usage: telemetry [on|off|reset|json|prom [path]]";
  }

  // Human-readable summary of the live counters and per-task health.
  ctl_->collect_telemetry();
  std::ostringstream out;
  auto& dp = ctl_->dataplane();
  out << "telemetry " << (telemetry::enabled() ? "on" : "off") << ", "
      << dp.packets_processed() << " packets processed\n";
  out << "group cmu updates      sampled-out  aborts       occupancy  tasks\n";
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      const telemetry::Labels labels = {{"group", std::to_string(g)},
                                        {"cmu", std::to_string(c)}};
      const std::uint64_t updates =
          reg.counter("flymon_cmu_updates_total", labels).value();
      const std::uint64_t sampled =
          reg.counter("flymon_cmu_sampled_out_total", labels).value();
      const std::uint64_t aborts =
          reg.counter("flymon_cmu_prep_aborts_total", labels).value();
      const std::size_t installed = dp.group(g).cmu(c).entries().size();
      if (updates == 0 && sampled == 0 && aborts == 0 && installed == 0) continue;
      char line[160];
      std::snprintf(line, sizeof line, "%-5u %-3u %-12llu %-12llu %-12llu %-10.4f %zu\n",
                    g, c, static_cast<unsigned long long>(updates),
                    static_cast<unsigned long long>(sampled),
                    static_cast<unsigned long long>(aborts),
                    dp.group(g).cmu(c).register_occupancy(), installed);
      out << line;
    }
  }
  out << "task  algorithm        rows  buckets  rules  delay-ms  saturation\n";
  for (const TaskHealth& h : ctl_->health()) {
    char line[200];
    std::snprintf(line, sizeof line, "%-5u %-16s %-5u %-8u %-6u %-9.1f",
                  h.task_id, to_string(h.algorithm), h.rows, h.buckets,
                  h.table_rules + h.hash_mask_rules, h.cumulative_delay_ms);
    out << line;
    for (std::size_t r = 0; r < h.row_saturation.size(); ++r) {
      char sat[16];
      std::snprintf(sat, sizeof sat, "%s%.4f", r == 0 ? "" : "/",
                    h.row_saturation[r]);
      out << sat;
    }
    out << "\n";
  }
  if (ctl_->num_tasks() == 0) out << "(no tasks)\n";
  out << "(use 'telemetry json|prom [path]' to export)";
  return out.str();
}

std::string Shell::cmd_trace(const std::vector<std::string>& args) {
  auto& dp = ctl_->dataplane();
  if (!args.empty() && args[0] == "spans") {
    return cmd_trace_spans({args.begin() + 1, args.end()});
  }
  if (args.empty() || args[0] == "status") {
    std::ostringstream out;
    if (dp.tracer() != nullptr) {
      out << "tracing on: 1-in-" << tracer_->sample_every() << ", "
          << tracer_->size() << "/" << tracer_->capacity() << " records, "
          << tracer_->packets_seen() << " packets seen";
    } else if (tracer_ != nullptr) {
      out << "tracing off (" << tracer_->size() << " records buffered; 'trace dump')";
    } else {
      out << "tracing off";
    }
    return out.str();
  }
  const std::string& sub = args[0];
  if (sub == "on") {
    std::uint64_t every = 64;
    if (args.size() >= 2) {
      const auto n = parse_u64(args[1]);
      if (!n || *n == 0) return "error: bad sample rate";
      every = *n;
    }
    if (tracer_ == nullptr) tracer_ = std::make_unique<telemetry::PacketTracer>(256, every);
    tracer_->set_sample_every(every);
    dp.set_tracer(tracer_.get());
    return "tracing on: 1 in " + std::to_string(every) + " packets, ring of " +
           std::to_string(tracer_->capacity());
  }
  if (sub == "off") {
    dp.set_tracer(nullptr);
    return "tracing off";
  }
  if (sub == "dump") {
    if (tracer_ == nullptr) return "error: tracer never started";
    const std::string text = tracer_->to_json();
    if (args.size() >= 2) {
      if (!telemetry::write_file(args[1], text)) {
        return "error: cannot write '" + args[1] + "'";
      }
      return "wrote " + std::to_string(tracer_->size()) + " trace records to " + args[1];
    }
    return text;
  }
  return "error: usage: trace [on [1-in-N]|off|dump [path]|status|spans ...]";
}

std::string Shell::cmd_trace_spans(const std::vector<std::string>& args) {
  auto& collector = trace::SpanCollector::global();
  if (args.empty() || args[0] == "status") {
    const auto s = collector.stats();
    std::ostringstream out;
    out << "span tracing " << (trace::enabled() ? "on" : "off") << ": "
        << s.emitted << " events across " << s.threads << " threads ("
        << s.dropped << " dropped); " << trace::latest_reconfig()
        << " reconfigurations tagged";
    return out.str();
  }
  const std::string& sub = args[0];
  if (sub == "on") {
    trace::set_enabled(true);
    return "span tracing on (control-path spans record into per-thread rings)";
  }
  if (sub == "off") {
    trace::set_enabled(false);
    return "span tracing off";
  }
  if (sub == "clear") {
    collector.clear();
    return "span rings cleared";
  }
  if (sub == "dump") {
    const auto events = collector.collect();
    const std::string text = trace::to_chrome_trace_json(events);
    if (args.size() >= 2) {
      if (!telemetry::write_file(args[1], text)) {
        return "error: cannot write '" + args[1] + "'";
      }
      return "wrote " + std::to_string(events.size()) +
             " span events to " + args[1] +
             " (load in ui.perfetto.dev or chrome://tracing)";
    }
    return text;
  }
  return "error: usage: trace spans [on|off|dump [path]|clear|status]";
}

std::string Shell::cmd_verify(const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "paranoid") {
    if (args.size() != 2 || (args[1] != "on" && args[1] != "off")) {
      return "error: usage: verify paranoid on|off";
    }
    ctl_->set_paranoid(args[1] == "on");
    return std::string("paranoid mode ") + (ctl_->paranoid() ? "on" : "off");
  }
  if (!args.empty() && args[0] == "list") {
    std::ostringstream out;
    const verify::Verifier verifier;
    for (const auto& a : verifier.analyzers()) {
      char line[160];
      std::snprintf(line, sizeof line, "%-10s %s\n", std::string(a->name()).c_str(),
                    std::string(a->description()).c_str());
      out << line;
    }
    return out.str();
  }
  if (!args.empty() && args[0] == "selftest") {
    const auto result = verify::run_mutation_self_test();
    return verify::format(result) +
           (result.passed() ? "selftest passed" : "selftest FAILED");
  }

  verify::VerifyContext ctx;
  ctx.controller = ctl_;
  ctx.dataplane = &ctl_->dataplane();
  verify::VerifyReport report;
  try {
    report = args.empty() ? verify::Verifier{}.run(ctx)
                          : verify::Verifier{}.run_one(args[0], ctx);
  } catch (const std::invalid_argument& ex) {
    return std::string("error: ") + ex.what() + " (try 'verify list')";
  }
  std::ostringstream out;
  out << report.format();
  out << report.count(verify::Severity::kError) << " error(s), "
      << report.count(verify::Severity::kWarning) << " warning(s)";
  return out.str();
}

std::string Shell::cmd_query(const std::vector<std::string>& args) const {
  if (args.empty()) return "error: usage: query <id> src=<ip> ...";
  const auto id = parse_u64(args[0]);
  if (!id || ctl_->task(static_cast<std::uint32_t>(*id)) == nullptr) {
    return "error: unknown task";
  }
  Packet probe;
  if (const auto v = arg_value(args, "src")) {
    const auto ip = parse_ipv4(*v);
    if (!ip) return "error: bad src ip";
    probe.ft.src_ip = *ip;
  }
  if (const auto v = arg_value(args, "dst")) {
    const auto ip = parse_ipv4(*v);
    if (!ip) return "error: bad dst ip";
    probe.ft.dst_ip = *ip;
  }
  if (const auto v = arg_value(args, "sport")) {
    probe.ft.src_port = static_cast<std::uint16_t>(parse_u64(*v).value_or(0));
  }
  if (const auto v = arg_value(args, "dport")) {
    probe.ft.dst_port = static_cast<std::uint16_t>(parse_u64(*v).value_or(0));
  }
  if (const auto v = arg_value(args, "proto")) {
    probe.ft.protocol = static_cast<std::uint8_t>(parse_u64(*v).value_or(0));
  }

  const auto tid = static_cast<std::uint32_t>(*id);
  const DeployedTask* t = ctl_->task(tid);
  std::ostringstream out;
  switch (t->spec.attribute) {
    case AttributeKind::kExistence:
      out << (ctl_->query_existence(tid, probe) ? "present" : "absent");
      break;
    case AttributeKind::kDistinct:
      if (t->algorithm == Algorithm::kBeauCoup) {
        out << "distinct ~ " << ctl_->estimate_distinct(tid, probe)
            << (ctl_->distinct_over_threshold(tid, probe) ? " (over threshold)" : "");
      } else {
        out << "cardinality ~ " << ctl_->estimate_cardinality(tid);
      }
      break;
    case AttributeKind::kMax:
      if (t->algorithm == Algorithm::kMaxInterarrival) {
        out << "max inter-arrival " << ctl_->query_max_interarrival_ns(tid, probe)
            << " ns";
      } else {
        out << "max " << ctl_->query_value(tid, probe);
      }
      break;
    case AttributeKind::kSimilarity:
      out << "set size ~ " << ctl_->estimate_set_size(tid);
      break;
    default:
      out << "value " << ctl_->query_value(tid, probe);
  }
  return out.str();
}

std::string Shell::cmd_cardinality(const std::vector<std::string>& args) const {
  if (args.size() != 1) return "error: usage: cardinality <id>";
  const auto id = parse_u64(args[0]);
  if (!id || ctl_->task(static_cast<std::uint32_t>(*id)) == nullptr) {
    return "error: unknown task";
  }
  std::ostringstream out;
  out << ctl_->estimate_cardinality(static_cast<std::uint32_t>(*id));
  return out.str();
}

std::string Shell::cmd_entropy(const std::vector<std::string>& args) const {
  if (args.size() != 1) return "error: usage: entropy <id>";
  const auto id = parse_u64(args[0]);
  if (!id || ctl_->task(static_cast<std::uint32_t>(*id)) == nullptr) {
    return "error: unknown task";
  }
  std::ostringstream out;
  out << ctl_->estimate_entropy(static_cast<std::uint32_t>(*id)) << " nats";
  return out.str();
}

std::string Shell::cmd_occupancy(const std::vector<std::string>& args) {
  if (args.size() != 1) return "error: usage: occupancy <id>";
  const auto id = parse_u64(args[0]);
  if (!id || ctl_->task(static_cast<std::uint32_t>(*id)) == nullptr) {
    return "error: unknown task";
  }
  std::ostringstream out;
  out << adaptive_.occupancy(static_cast<std::uint32_t>(*id));
  return out.str();
}

std::string Shell::cmd_rebalance() {
  const auto decisions = adaptive_.rebalance();
  std::ostringstream out;
  unsigned resized = 0;
  for (const auto& d : decisions) {
    if (!d.attempted) continue;
    char line[128];
    std::snprintf(line, sizeof line, "task %u: occupancy %.2f, %u -> %u buckets%s\n",
                  d.task_id, d.occupancy, d.old_buckets, d.new_buckets,
                  d.resized ? "" : " (resize failed)");
    out << line;
    resized += d.resized;
  }
  out << resized << " task(s) resized";
  return out.str();
}

Shell::~Shell() { stop_ingest(); }

void Shell::stop_ingest() {
  if (pump_ != nullptr) pump_->stop();  // producer exits; ring stays poppable
  if (drain_thread_.joinable()) drain_thread_.join();  // drains the remainder
  pump_.reset();
}

std::string Shell::cmd_ingest(const std::vector<std::string>& args) {
  const bool running = drain_thread_.joinable();
  if (args.empty() || args[0] == "stats") {
    if (source_ == nullptr) return "ingest: no source attached";
    std::ostringstream out;
    out << "source: " << source_->name()
        << (running ? " (streaming)" : " (idle)") << "\n";
    if (const auto* file = dynamic_cast<const ingest::FileReplaySource*>(source_.get())) {
      out << "skipped: " << file->skipped() << " record(s) (truncated or not IPv4)\n";
    }
    if (pump_ != nullptr) {
      const ingest::PumpStats s = pump_->stats();
      out << "produced: " << s.produced << "  enqueued: " << s.enqueued
          << "  dropped: " << s.dropped << "\n";
      out << "ring: " << s.ring_occupancy << "/" << pump_->ring().capacity()
          << " occupied, producer "
          << (s.finished ? "finished" : (s.running ? "running" : "stopped"))
          << "\n";
    }
    if (!running && last_drain_.packets != 0) {
      out << "drained: " << last_drain_.packets << " packets in "
          << last_drain_.batches << " batches (plan generation "
          << last_drain_.last_generation << ")\n";
    }
    out << "data plane: " << ctl_->dataplane().packets_processed()
        << " packets processed";
    return out.str();
  }

  const std::string& sub = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());

  if (sub == "attach") {
    if (running) return "error: ingest is streaming; 'ingest stop' first";
    if (rest.empty()) return "error: usage: ingest attach gen|file ...";
    if (rest[0] == "gen") {
      if (std::find(rest.begin(), rest.end(), "fig12b") != rest.end()) {
        unsigned epochs = 20;
        if (const auto v = arg_value(rest, "epochs")) {
          const auto n = parse_u64(*v);
          if (!n || *n == 0) return "error: bad epochs";
          epochs = static_cast<unsigned>(*n);
        }
        source_ = std::make_unique<ingest::GeneratorSource>(
            ingest::fig12b_scenario(epochs));
        return "attached generator (fig12b scenario, " +
               std::to_string(epochs) + " epochs)";
      }
      TraceConfig cfg;
      if (const auto v = arg_value(rest, "flows")) {
        const auto n = parse_u64(*v);
        if (!n) return "error: bad flows";
        cfg.num_flows = *n;
      }
      if (const auto v = arg_value(rest, "pkts")) {
        const auto n = parse_u64(*v);
        if (!n) return "error: bad pkts";
        cfg.num_packets = *n;
      }
      if (const auto v = arg_value(rest, "seed")) {
        const auto n = parse_u64(*v);
        if (!n) return "error: bad seed";
        cfg.seed = *n;
      }
      if (const auto v = arg_value(rest, "alpha")) {
        const auto d = parse_double(*v);
        if (!d) return "error: bad alpha";
        cfg.zipf_alpha = *d;
      }
      if (const auto v = arg_value(rest, "dur")) {
        const auto n = parse_u64(*v);
        if (!n || *n == 0) return "error: bad dur";
        cfg.duration_ns = *n;
      }
      ingest::GeneratorConfig gen;
      gen.phases.push_back(ingest::GeneratorPhase{0, {cfg}, {}, cfg.duration_ns});
      source_ = std::make_unique<ingest::GeneratorSource>(std::move(gen));
      return "attached generator (" + std::to_string(cfg.num_packets) +
             " packets, " + std::to_string(cfg.num_flows) + " flows)";
    }
    if (rest[0] == "file") {
      if (rest.size() < 2) return "error: usage: ingest attach file <path>";
      auto format = ingest::FileReplaySource::Format::kAuto;
      if (const auto v = arg_value(rest, "format")) {
        if (*v == "pcap") {
          format = ingest::FileReplaySource::Format::kPcap;
        } else if (*v == "fmtr") {
          format = ingest::FileReplaySource::Format::kFmtr;
        } else {
          return "error: bad format (pcap|fmtr)";
        }
      }
      try {
        source_ = std::make_unique<ingest::FileReplaySource>(rest[1], format);
      } catch (const std::exception& e) {
        return std::string("error: ") + e.what();
      }
      return "attached file " + rest[1];
    }
    return "error: usage: ingest attach gen|file ...";
  }

  if (sub == "detach") {
    if (running) return "error: ingest is streaming; 'ingest stop' first";
    pump_.reset();
    source_.reset();
    return "ingest source detached";
  }

  if (sub == "start") {
    if (source_ == nullptr) return "error: no source ('ingest attach' first)";
    if (running) return "error: ingest already streaming";
    pump_cfg_ = ingest::PumpConfig{};
    for (const std::string& a : rest) {
      if (a == "drop") pump_cfg_.on_full = ingest::PumpConfig::FullPolicy::kDrop;
    }
    if (const auto v = arg_value(rest, "ring")) {
      const auto n = parse_u64(*v);
      if (!n || *n < 2 || (*n & (*n - 1)) != 0) {
        return "error: ring must be a power of two >= 2";
      }
      pump_cfg_.ring_capacity = *n;
    }
    if (const auto v = arg_value(rest, "batch")) {
      const auto n = parse_u64(*v);
      if (!n || *n == 0) return "error: bad batch";
      pump_cfg_.batch = *n;
    }
    if (const auto v = arg_value(rest, "pace")) {
      if (*v == "real") {
        pump_cfg_.pace = ingest::PumpConfig::Pace::kReal;
      } else if (*v == "asap") {
        pump_cfg_.pace = ingest::PumpConfig::Pace::kAsap;
      } else {
        return "error: bad pace (real|asap)";
      }
    }
    if (const auto v = arg_value(rest, "scale")) {
      const auto d = parse_double(*v);
      if (!d || *d <= 0) return "error: bad scale";
      pump_cfg_.time_scale = *d;
    }
    if (source_->produced() != 0) source_->rewind();  // fresh run on restart
    last_drain_ = {};
    drain_error_.clear();
    pump_ = std::make_unique<ingest::IngestPump>(*source_, pump_cfg_);
    pump_->start();
    drain_thread_ = std::thread([this] {
      ingest::RingSource ring_source(*pump_);
      try {
        last_drain_ = ctl_->dataplane().drain(ring_source);
      } catch (const std::exception& e) {
        drain_error_ = e.what();
      }
    });
    return "ingest streaming started (ring " +
           std::to_string(pump_cfg_.ring_capacity) + ", " +
           (pump_cfg_.on_full == ingest::PumpConfig::FullPolicy::kDrop
                ? "drop on full"
                : "backpressure") +
           ")";
  }

  if (sub == "stop") {
    if (pump_ == nullptr && !running) return "ingest: nothing to stop";
    stop_ingest();
    if (!drain_error_.empty()) return "error: ingest source failed: " + drain_error_;
    std::ostringstream out;
    out << "ingest stopped: drained " << last_drain_.packets << " packets in "
        << last_drain_.batches << " batches";
    return out.str();
  }

  return "error: usage: ingest [attach|start|stop|stats|detach]";
}

}  // namespace flymon::control
