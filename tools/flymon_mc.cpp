// flymon_mc: the concurrency model checker's CLI (CI entry point).
//
//   flymon_mc --check           exhaustively explore the clean acceptance
//                               scenario (2 workers x 2 publishes with a
//                               preempting fence); exit 0 only when
//                               every inequivalent interleaving passed and
//                               the lock-order analyzer reports no errors
//   flymon_mc --selftest        run every seeded concurrency mutation on its
//                               minimal scenario; each must be caught by the
//                               model checker (race / invariant / deadlock)
//                               or by the lock-order analyzer (inversion);
//                               exit 0 only when all are caught
//   flymon_mc --mutate NAME     run one mutation and print its verdict
//                               (exit 1 when caught — the expected outcome,
//                               mirroring flymon_verify --mutate)
//   flymon_mc --list            list the seeded mutations
//   flymon_mc --ring            exhaustively explore the ingest SPSC ring
//                               model (3 values wrapping a capacity-2 ring
//                               under concurrent pops, with the plan
//                               republisher) — the shipped BasicSpscRing
//                               template under SimSync
//   flymon_mc --ring-selftest   run every seeded ring memory-order
//                               weakening; each must be caught as a slot
//                               data race
//   flymon_mc --ring-mutate NAME   run one ring mutation (exit 1 = caught)
//   flymon_mc --workers N --publishes N --batches N --chunks N
//             [--collector | --no-collector]
//                               override the --check scenario bounds
//   flymon_mc --max-executions N / --max-steps N
//                               exploration limits (defaults in sim.hpp)
//   flymon_mc --json PATH       write the machine-readable result to PATH
//
// Under ThreadSanitizer the fiber scheduler cannot run; every mode prints a
// notice and exits 0 so sanitizer CI legs stay green (the production
// protocol is what TSan builds exercise directly).
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/lock_witness.hpp"
#include "telemetry/export.hpp"
#include "verify/concur/model.hpp"
#include "verify/concur/ring_model.hpp"
#include "verify/verifier.hpp"

namespace {

using flymon::verify::concur::ExploreOptions;
using flymon::verify::concur::ExploreResult;
using flymon::verify::concur::ModelConfig;
using flymon::verify::concur::Mutation;
using flymon::verify::concur::RingModelConfig;
using flymon::verify::concur::RingMutation;

/// Run the `concur` analyzer over whatever the lock witness has
/// accumulated (no controller/dataplane snapshot: the lock graph is
/// process-global).
flymon::verify::VerifyReport analyze_lock_order() {
  return flymon::verify::Verifier{}.run_one("concur",
                                            flymon::verify::VerifyContext{});
}

std::string describe(const ExploreResult& r) {
  std::ostringstream os;
  os << r.executions << " execution(s), " << r.steps << " step(s), "
     << (r.complete ? "complete" : "TRUNCATED (bounds hit)");
  if (r.failed) {
    os << "\n  FAILED: " << r.error;
    for (const std::string& t : r.trace) os << "\n    " << t;
  }
  return os.str();
}

struct CaseResult {
  std::string name;
  bool caught = false;
  std::string detector;  ///< "model-checker" / "lock-order" / ""
  std::string detail;
  std::uint64_t executions = 0;
};

std::string cases_to_json(const std::vector<CaseResult>& cases, bool passed) {
  std::ostringstream os;
  os << "{\"passed\": " << (passed ? "true" : "false") << ", \"cases\": [";
  bool first = true;
  for (const CaseResult& c : cases) {
    if (!first) os << ", ";
    first = false;
    os << "{\"mutation\": \"" << flymon::telemetry::json_escape(c.name)
       << "\", \"caught\": " << (c.caught ? "true" : "false")
       << ", \"detector\": \"" << flymon::telemetry::json_escape(c.detector)
       << "\", \"executions\": " << c.executions << ", \"detail\": \""
       << flymon::telemetry::json_escape(c.detail) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

/// Explore `m`'s minimal scenario with the witness on; decide which
/// detector (if any) caught it.  The witness is cleared on entry and exit
/// so mutations never pollute each other or a later clean analysis.
CaseResult run_mutation(Mutation m, const ExploreOptions& opts) {
  auto& witness = flymon::common::LockWitness::global();
  witness.clear();
  witness.enable(true);
  const ExploreResult r =
      flymon::verify::concur::check_protocol(scenario_for(m), opts);
  witness.enable(false);

  CaseResult out;
  out.name = flymon::verify::concur::to_string(m);
  out.executions = r.executions;
  if (r.failed) {
    out.caught = true;
    out.detector = "model-checker";
    out.detail = r.error;
  } else {
    const flymon::verify::VerifyReport report = analyze_lock_order();
    if (report.has_errors()) {
      out.caught = true;
      out.detector = "lock-order";
      out.detail = report.format(flymon::verify::Severity::kError);
      // format() ends with a newline; keep the detail single-line-ish.
      while (!out.detail.empty() && out.detail.back() == '\n') {
        out.detail.pop_back();
      }
    } else if (!r.complete) {
      out.detail = "exploration truncated before any detector fired";
    } else {
      out.detail = "exhaustive exploration found nothing";
    }
  }
  witness.clear();
  return out;
}

int run_selftest(const ExploreOptions& opts, const std::string& json_path) {
  std::vector<CaseResult> cases;
  bool all = true;
  for (Mutation m : flymon::verify::concur::all_mutations()) {
    CaseResult c = run_mutation(m, opts);
    std::cout << (c.caught ? "CAUGHT " : "MISSED ") << c.name << " ["
              << (c.detector.empty() ? "none" : c.detector) << ", "
              << c.executions << " execution(s)]\n";
    if (!c.detail.empty()) std::cout << "  " << c.detail << '\n';
    all = all && c.caught;
    cases.push_back(std::move(c));
  }
  std::cout << (all ? "selftest passed" : "selftest FAILED") << ": "
            << cases.size() << " seeded mutation(s)\n";
  if (!json_path.empty() &&
      !flymon::telemetry::write_file(json_path, cases_to_json(cases, all))) {
    std::cerr << "error: cannot write '" << json_path << "'\n";
    return 1;
  }
  return all ? 0 : 1;
}

/// Explore one seeded ring memory-order weakening.  Ring mutations are
/// pure memory-model bugs, so the model checker (slot race) is the only
/// expected detector — no lock-order fallback.
CaseResult run_ring_mutation(RingMutation m, const ExploreOptions& opts) {
  const ExploreResult r = flymon::verify::concur::check_ring(
      flymon::verify::concur::ring_scenario_for(m), opts);
  CaseResult out;
  out.name = flymon::verify::concur::to_string(m);
  out.executions = r.executions;
  if (r.failed) {
    out.caught = true;
    out.detector = "model-checker";
    out.detail = r.error;
  } else {
    out.detail = r.complete ? "exhaustive exploration found nothing"
                            : "exploration truncated before the race fired";
  }
  return out;
}

int run_ring_selftest(const ExploreOptions& opts,
                      const std::string& json_path) {
  std::vector<CaseResult> cases;
  bool all = true;
  for (RingMutation m : flymon::verify::concur::all_ring_mutations()) {
    CaseResult c = run_ring_mutation(m, opts);
    std::cout << (c.caught ? "CAUGHT " : "MISSED ") << c.name << " ["
              << (c.detector.empty() ? "none" : c.detector) << ", "
              << c.executions << " execution(s)]\n";
    if (!c.detail.empty()) std::cout << "  " << c.detail << '\n';
    all = all && c.caught;
    cases.push_back(std::move(c));
  }
  std::cout << (all ? "ring selftest passed" : "ring selftest FAILED")
            << ": " << cases.size() << " seeded weakening(s)\n";
  if (!json_path.empty() &&
      !flymon::telemetry::write_file(json_path, cases_to_json(cases, all))) {
    std::cerr << "error: cannot write '" << json_path << "'\n";
    return 1;
  }
  return all ? 0 : 1;
}

int run_ring_check(const ExploreOptions& opts, const std::string& json_path) {
  const RingModelConfig cfg =
      flymon::verify::concur::ring_acceptance_config();
  const ExploreResult r = flymon::verify::concur::check_ring(cfg, opts);
  std::cout << "ingest ring (capacity " << cfg.capacity << ", " << cfg.items
            << " value(s), batch " << cfg.push_batch << "/" << cfg.pop_batch
            << (cfg.republish ? ", republisher" : "") << "): " << describe(r)
            << '\n';
  const bool passed = r.ok();
  std::cout << (passed ? "ring model check passed"
                       : r.failed
                             ? "ring model check FAILED"
                             : "ring model check INCOMPLETE (raise "
                               "--max-executions)")
            << '\n';
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"passed\": " << (passed ? "true" : "false")
       << ", \"complete\": " << (r.complete ? "true" : "false")
       << ", \"failed\": " << (r.failed ? "true" : "false")
       << ", \"executions\": " << r.executions << ", \"steps\": " << r.steps
       << ", \"error\": \"" << flymon::telemetry::json_escape(r.error)
       << "\"}\n";
    if (!flymon::telemetry::write_file(json_path, os.str())) {
      std::cerr << "error: cannot write '" << json_path << "'\n";
      return 1;
    }
  }
  return passed ? 0 : 1;
}

int run_check(const ModelConfig& cfg, const ExploreOptions& opts,
              const std::string& json_path) {
  auto& witness = flymon::common::LockWitness::global();
  witness.clear();
  witness.enable(true);
  const ExploreResult r = flymon::verify::concur::check_protocol(cfg, opts);
  witness.enable(false);
  std::cout << "clean protocol (" << cfg.workers << " worker(s), "
            << cfg.publishes << " publish(es), " << cfg.batches
            << " batch(es) x " << cfg.chunks << " chunk(s)"
            << (cfg.collector ? ", collector" : "") << "): " << describe(r)
            << '\n';

  const flymon::verify::VerifyReport report = analyze_lock_order();
  std::cout << report.format();
  const bool lock_clean = !report.has_errors();
  witness.clear();

  const bool passed = r.ok() && lock_clean;
  std::cout << (passed ? "model check passed"
                       : r.failed  ? "model check FAILED"
                         : !r.complete
                             ? "model check INCOMPLETE (raise --max-executions)"
                             : "lock-order analysis FAILED")
            << '\n';
  if (!json_path.empty()) {
    std::ostringstream os;
    os << "{\"passed\": " << (passed ? "true" : "false")
       << ", \"complete\": " << (r.complete ? "true" : "false")
       << ", \"failed\": " << (r.failed ? "true" : "false")
       << ", \"executions\": " << r.executions << ", \"steps\": " << r.steps
       << ", \"lock_order_clean\": " << (lock_clean ? "true" : "false")
       << ", \"error\": \"" << flymon::telemetry::json_escape(r.error)
       << "\"}\n";
    if (!flymon::telemetry::write_file(json_path, os.str())) {
      std::cerr << "error: cannot write '" << json_path << "'\n";
      return 1;
    }
  }
  return passed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool selftest = false;
  bool list = false;
  bool ring = false;
  bool ring_selftest = false;
  std::string ring_mutate_name;
  std::string mutate_name;
  std::string json_path;
  ModelConfig cfg = flymon::verify::concur::clean_acceptance_config();
  ExploreOptions opts;

  auto int_arg = [&](int& i) { return std::stoll(argv[++i]); };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_next = i + 1 < argc;
    if (arg == "--check") {
      check = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--list") {
      list = true;
    } else if (arg == "--ring") {
      ring = true;
    } else if (arg == "--ring-selftest") {
      ring_selftest = true;
    } else if (arg == "--ring-mutate" && has_next) {
      ring_mutate_name = argv[++i];
    } else if (arg == "--mutate" && has_next) {
      mutate_name = argv[++i];
    } else if (arg == "--json" && has_next) {
      json_path = argv[++i];
    } else if (arg == "--workers" && has_next) {
      cfg.workers = static_cast<int>(int_arg(i));
    } else if (arg == "--publishes" && has_next) {
      cfg.publishes = static_cast<int>(int_arg(i));
    } else if (arg == "--batches" && has_next) {
      cfg.batches = static_cast<int>(int_arg(i));
    } else if (arg == "--chunks" && has_next) {
      cfg.chunks = static_cast<int>(int_arg(i));
    } else if (arg == "--collector") {
      cfg.collector = true;
    } else if (arg == "--no-collector") {
      cfg.collector = false;
    } else if (arg == "--max-executions" && has_next) {
      opts.max_executions = static_cast<std::uint64_t>(int_arg(i));
    } else if (arg == "--max-steps" && has_next) {
      opts.max_steps = static_cast<std::uint64_t>(int_arg(i));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: flymon_mc [--check] [--selftest] [--mutate <name>] "
                   "[--ring] [--ring-selftest] [--ring-mutate <name>] "
                   "[--list] [--workers N] [--publishes N] [--batches N] "
                   "[--chunks N] [--collector] [--no-collector] [--max-executions N] "
                   "[--max-steps N] [--json <path>]\n";
      return 0;
    } else {
      std::cerr << "error: unknown argument '" << arg << "' (--help)\n";
      return 1;
    }
  }

  if (list) {
    for (Mutation m : flymon::verify::concur::all_mutations()) {
      std::cout << flymon::verify::concur::to_string(m) << ": "
                << flymon::verify::concur::mutation_description(m) << '\n';
    }
    for (RingMutation m : flymon::verify::concur::all_ring_mutations()) {
      std::cout << flymon::verify::concur::to_string(m) << ": "
                << flymon::verify::concur::ring_mutation_description(m)
                << '\n';
    }
    return 0;
  }

  if (!flymon::verify::concur::checker_supported()) {
    std::cout << "flymon_mc: fiber scheduler unsupported in this build "
                 "(ThreadSanitizer); skipping\n";
    if (!json_path.empty()) {
      flymon::telemetry::write_file(json_path,
                                    "{\"passed\": true, \"skipped\": true}\n");
    }
    return 0;
  }

  if (!mutate_name.empty()) {
    for (Mutation m : flymon::verify::concur::all_mutations()) {
      if (mutate_name == flymon::verify::concur::to_string(m)) {
        const CaseResult c = run_mutation(m, opts);
        std::cout << c.name << ": "
                  << (c.caught ? "caught by " + c.detector : "NOT caught")
                  << " after " << c.executions << " execution(s)\n";
        if (!c.detail.empty()) std::cout << c.detail << '\n';
        if (!json_path.empty() &&
            !flymon::telemetry::write_file(
                json_path, cases_to_json({c}, c.caught))) {
          std::cerr << "error: cannot write '" << json_path << "'\n";
          return 1;
        }
        // Inverted exit like flymon_verify --mutate: caught is the
        // expected outcome.
        return c.caught ? 1 : 0;
      }
    }
    std::cerr << "error: unknown mutation '" << mutate_name
              << "' (--list shows them)\n";
    return 1;
  }

  if (!ring_mutate_name.empty()) {
    for (RingMutation m : flymon::verify::concur::all_ring_mutations()) {
      if (ring_mutate_name == flymon::verify::concur::to_string(m)) {
        const CaseResult c = run_ring_mutation(m, opts);
        std::cout << c.name << ": "
                  << (c.caught ? "caught by " + c.detector : "NOT caught")
                  << " after " << c.executions << " execution(s)\n";
        if (!c.detail.empty()) std::cout << c.detail << '\n';
        if (!json_path.empty() &&
            !flymon::telemetry::write_file(json_path,
                                           cases_to_json({c}, c.caught))) {
          std::cerr << "error: cannot write '" << json_path << "'\n";
          return 1;
        }
        return c.caught ? 1 : 0;  // inverted exit, like --mutate
      }
    }
    std::cerr << "error: unknown ring mutation '" << ring_mutate_name
              << "' (--list shows them)\n";
    return 1;
  }

  if (ring_selftest) return run_ring_selftest(opts, json_path);
  if (ring) return run_ring_check(opts, json_path);
  if (selftest) return run_selftest(opts, json_path);
  if (check) return run_check(cfg, opts, json_path);

  std::cout << "nothing to do: pass --check, --selftest, --mutate or --list "
               "(--help)\n";
  return 1;
}
