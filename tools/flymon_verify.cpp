// flymon_verify: CI entry point for the static deployment verifier.
//
//   flymon_verify                 verify the built-in full-capacity scenario
//                                 (9 groups / 27 CMUs of mixed Table-1 tasks)
//   flymon_verify --scenario F    execute shell command lines from file F
//                                 (one per line, '#' comments), then verify
//   flymon_verify --selftest[=P]  seeded-corruption catalogue: every mutation
//                                 must be flagged with its expected check id
//                                 (P restricts to mutation names starting
//                                 with P, e.g. --selftest=dataflow-)
//   flymon_verify --mutate NAME   corrupt a fresh world with one mutation and
//                                 report its diagnostics (exit 1 when any
//                                 diagnostic fires — the expected outcome)
//   flymon_verify --dataflow      verify through the dry-run planner
//                                 (Controller::plan with an empty batch)
//   flymon_verify --translate     translation-validate the scenario's
//                                 compiled ExecPlan: symbolically check every
//                                 compiled entry against the interpreted CMU
//                                 semantics and prove the shard merge sound
//                                 (exit 1 on any divergence diagnostic)
//   flymon_verify --concur        run the scenario with the lock witness on
//                                 (deploys, a 2-worker sharded batch, a
//                                 fence + merge), then run the `concur`
//                                 lock-order analyzer over the declared +
//                                 witnessed acquisition graph (exit 1 on
//                                 any cycle/inversion error)
//   flymon_verify --plan-diff F   stage the 'plan' sub-commands from file F
//                                 (one per line, without the 'plan ' prefix,
//                                 e.g. "add name=x ..." / "remove 3") against
//                                 the scenario deployment and print which
//                                 compiled ExecPlan entries the batch would
//                                 add/remove — without touching the pipeline
//   flymon_verify --paranoid      additionally gate every deploy on the
//                                 verifier while the scenario runs
//   flymon_verify --json PATH     also write the machine-readable report
//                                 (verify report or self-test result) to PATH
//
// Exit status: 0 when verification is clean of errors (and the self-test
// passes), 1 otherwise.  --mutate inverts the meaning: a clean report is the
// failure, a flagged one the success (exit 1 marks "diagnostics present"
// so CI asserts each seeded corruption actually fires).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/lock_witness.hpp"
#include "control/controller.hpp"
#include "control/crossstack.hpp"
#include "control/shell.hpp"
#include "core/flymon_dataplane.hpp"
#include "packet/trace_gen.hpp"
#include "telemetry/export.hpp"
#include "verify/mutations.hpp"
#include "verify/planner.hpp"
#include "verify/translate/translate.hpp"
#include "verify/verifier.hpp"

namespace {

// Nine 3-row tasks with pairwise-intersecting full-rate filters: the
// controller spreads them one per CMU Group, so all 27 CMUs host a task.
const char* const kDefaultScenario[] = {
    "add name=heavy-hitter key=SrcIP attr=Frequency algo=CMS mem=4096",
    "add name=size-dist key=SrcIP+DstIP attr=Frequency algo=Tower mem=8192",
    "add name=blacklist key=IPPair attr=Existence algo=BloomFilter mem=16384",
    "add name=congestion key=DstIP attr=Max algo=SuMaxMax param=QueueLen mem=4096",
    "add name=port-scan key=SrcIP attr=Distinct algo=BeauCoup param=key:DstPort "
    "threshold=100 mem=8192",
    "add name=heavy-hitter-10 key=DstIP attr=Frequency algo=CMS mem=4096 "
    "filter=10.0.0.0/8",
    "add name=flow-size key=5Tuple attr=Frequency algo=Tower mem=8192",
    "add name=seen-sources key=SrcIP attr=Existence algo=BloomFilter mem=8192",
    "add name=max-bytes key=SrcIP attr=Max algo=SuMaxMax param=Bytes mem=4096",
};

bool write_json(const std::string& path, const std::string& text) {
  if (path.empty()) return true;
  if (!flymon::telemetry::write_file(path, text)) {
    std::cerr << "error: cannot write '" << path << "'\n";
    return false;
  }
  return true;
}

int run_selftest(const std::string& prefix, const std::string& json_path) {
  const auto result = flymon::verify::run_mutation_self_test(prefix);
  std::cout << flymon::verify::format(result);
  if (result.cases.empty()) {
    std::cerr << "error: no mutation matches prefix '" << prefix << "'\n";
    return 1;
  }
  std::cout << (result.passed() ? "selftest passed" : "selftest FAILED") << '\n';
  if (!write_json(json_path, flymon::verify::to_json(result))) return 1;
  return result.passed() ? 0 : 1;
}

int run_mutate(const std::string& name, const std::string& json_path) {
  const auto report = flymon::verify::run_single_mutation(name);
  if (!report) {
    std::cerr << "error: unknown mutation '" << name << "' (--selftest lists)\n";
    return 1;
  }
  std::cout << report->format();
  if (!write_json(json_path, flymon::verify::to_json(*report))) return 1;
  // Inverted: the seeded corruption is expected to produce diagnostics.
  return report->empty() ? 0 : 1;
}

std::vector<std::string> load_scenario(const std::string& path, bool& ok) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  ok = in.good();
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  bool selftest = false;
  bool paranoid = false;
  bool dataflow = false;
  bool translate = false;
  bool concur = false;
  std::string selftest_prefix;
  std::string mutate_name;
  std::string scenario_path;
  std::string plan_diff_path;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg.rfind("--selftest=", 0) == 0) {
      selftest = true;
      selftest_prefix = arg.substr(11);
    } else if (arg == "--mutate" && i + 1 < argc) {
      mutate_name = argv[++i];
    } else if (arg == "--paranoid") {
      paranoid = true;
    } else if (arg == "--dataflow") {
      dataflow = true;
    } else if (arg == "--translate") {
      translate = true;
    } else if (arg == "--concur") {
      concur = true;
    } else if (arg == "--scenario" && i + 1 < argc) {
      scenario_path = argv[++i];
    } else if (arg == "--plan-diff" && i + 1 < argc) {
      plan_diff_path = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: flymon_verify [--scenario <file>] [--paranoid] "
                   "[--dataflow] [--translate] [--concur] "
                   "[--plan-diff <opsfile>] [--selftest[=prefix]] "
                   "[--mutate <name>] [--json <path>]\n";
      return 0;
    } else {
      std::cerr << "error: unknown argument '" << arg << "' (--help)\n";
      return 1;
    }
  }

  if (selftest) return run_selftest(selftest_prefix, json_path);
  if (!mutate_name.empty()) return run_mutate(mutate_name, json_path);

  std::vector<std::string> lines(std::begin(kDefaultScenario),
                                 std::end(kDefaultScenario));
  if (!scenario_path.empty()) {
    bool ok = false;
    lines = load_scenario(scenario_path, ok);
    if (!ok) {
      std::cerr << "error: cannot read scenario '" << scenario_path << "'\n";
      return 1;
    }
  }

  flymon::FlyMonDataPlane dp(9);
  flymon::control::Controller ctl(dp);
  ctl.set_paranoid(paranoid);
  flymon::control::Shell shell(ctl);
  // Witness the scenario's own deploys too (publish_mu edges), not just
  // the sharded workload below.
  if (concur) flymon::common::LockWitness::global().enable(true);
  for (const std::string& line : lines) {
    const auto hash = line.find('#');
    std::istringstream trimmed(hash == std::string::npos ? line
                                                         : line.substr(0, hash));
    std::string first;
    if (!(trimmed >> first)) continue;  // blank / comment-only line
    const std::string response = shell.execute(line.substr(0, hash));
    if (response.rfind("error:", 0) == 0) {
      std::cerr << "scenario failed at '" << line << "': " << response << '\n';
      return 1;
    }
    std::cout << response << '\n';
  }

  if (!plan_diff_path.empty()) {
    // Stage the ops file as a 'plan' batch and print the compiled-entry
    // diff a commit would cause.  Dry-run only: the live pipeline keeps
    // running the scenario deployment.
    bool ok = false;
    const std::vector<std::string> ops = load_scenario(plan_diff_path, ok);
    if (!ok) {
      std::cerr << "error: cannot read ops file '" << plan_diff_path << "'\n";
      return 1;
    }
    for (const std::string& line : ops) {
      const auto hash = line.find('#');
      std::istringstream trimmed(
          hash == std::string::npos ? line : line.substr(0, hash));
      std::string first;
      if (!(trimmed >> first)) continue;  // blank / comment-only line
      const std::string response =
          shell.execute("plan " + line.substr(0, hash));
      if (response.rfind("error:", 0) == 0) {
        std::cerr << "staging failed at '" << line << "': " << response << '\n';
        return 1;
      }
    }
    const std::string diff = shell.execute("plan diff");
    std::cout << diff << '\n';
    if (!write_json(json_path, "{\"plan_diff\":\"" +
                                   flymon::telemetry::json_escape(diff) +
                                   "\"}\n")) {
      return 1;
    }
    return diff.find("note: plan FAILED") == std::string::npos ? 0 : 1;
  }

  if (concur) {
    // Exercise the full lock protocol with the witness on: a 2-worker
    // sharded batch (submit/job/done hand-off), a fence + merge (publish
    // path inside the pool lock), then analyze the combined declared +
    // witnessed acquisition graph.
    auto& witness = flymon::common::LockWitness::global();
    dp.enable_parallel(2);
    flymon::TraceConfig tcfg;
    tcfg.num_flows = 64;
    tcfg.num_packets = 2048;
    tcfg.seed = 7;
    const auto trace = flymon::TraceGenerator::generate(tcfg);
    dp.process_batch(trace);
    dp.merge_shards();
    dp.disable_parallel();
    witness.enable(false);

    flymon::verify::VerifyContext cctx;
    cctx.controller = &ctl;
    cctx.dataplane = &dp;
    const flymon::verify::VerifyReport creport =
        flymon::verify::Verifier{}.run_one("concur", cctx);
    std::cout << creport.format();
    std::cout << witness.acquisitions() << " witnessed acquisition(s), "
              << witness.edges().size() << " edge(s), "
              << creport.count(flymon::verify::Severity::kError)
              << " error(s), "
              << creport.count(flymon::verify::Severity::kWarning)
              << " warning(s)\n";
    if (!write_json(json_path, flymon::verify::to_json(creport))) return 1;
    return creport.has_errors() ? 1 : 0;
  }

  if (translate) {
    // Translation-validate the compiled plan the scenario published: the
    // deploys above recompiled after every add, so current_plan() is the
    // plan that would serve traffic right now.
    const auto plan = dp.current_plan();
    if (plan == nullptr) {
      std::cerr << "error: scenario published no compiled plan\n";
      return 1;
    }
    const flymon::verify::VerifyReport report =
        flymon::verify::validate_plan(dp, *plan);
    std::cout << report.format();
    std::cout << "plan generation " << plan->generation() << ": "
              << plan->num_entries() << " compiled entries, "
              << report.count(flymon::verify::Severity::kError)
              << " divergence error(s), "
              << report.count(flymon::verify::Severity::kWarning)
              << " warning(s)\n";
    if (!write_json(json_path, flymon::verify::to_json(report))) return 1;
    return report.has_errors() ? 1 : 0;
  }

  flymon::verify::VerifyReport report;
  if (dataflow) {
    // Route through the dry-run planner: replay the deployment on a shadow
    // world, run all analyzers there, leave the live pipeline untouched.
    const flymon::verify::PlanResult plan_result = ctl.plan({});
    if (!plan_result.error.empty() &&
        plan_result.error != "verification failed") {
      std::cerr << "plan replay failed: " << plan_result.error << '\n';
      return 1;
    }
    report = plan_result.report;
  } else {
    const auto plan = flymon::control::cross_stack(
        flymon::dataplane::TofinoModel::kNumStages, dp.group(0).config());
    report = flymon::verify::verify_deployment(ctl, &plan);
  }
  std::cout << report.format();
  std::cout << ctl.num_tasks() << " task(s), "
            << report.count(flymon::verify::Severity::kError) << " error(s), "
            << report.count(flymon::verify::Severity::kWarning)
            << " warning(s)\n";
  if (!write_json(json_path, flymon::verify::to_json(report))) return 1;
  return report.has_errors() ? 1 : 0;
}
