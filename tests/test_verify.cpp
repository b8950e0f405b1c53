// Static deployment verifier (src/verify): report plumbing, the TCAM lint
// library on hand-built rule sets, analyzer registry behaviour, clean
// verification of Table-1 task mixes up to full capacity, the seeded
// mutation catalogue, and the paranoid deploy gate / rollback regression.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/controller.hpp"
#include "control/crossstack.hpp"
#include "control/shell.hpp"
#include "core/flymon_dataplane.hpp"
#include "dataplane/tcam.hpp"
#include "telemetry/telemetry.hpp"
#include "trace/span.hpp"
#include "verify/diagnostics.hpp"
#include "verify/mutations.hpp"
#include "verify/planner.hpp"
#include "verify/tcam_lint.hpp"
#include "verify/verifier.hpp"

namespace flymon {
namespace {

using dataplane::TernaryPattern;
using verify::Severity;

TernaryPattern pat(std::uint64_t value, std::uint64_t mask) {
  return TernaryPattern{value, mask};
}

// ---- report plumbing ----

TEST(VerifyReport, CountsAndChecks) {
  verify::VerifyReport r;
  EXPECT_TRUE(r.empty());
  r.add(Severity::kError, "memory.overlap", "g0.cmu0", "two partitions collide");
  r.add(Severity::kWarning, "tcam.conflict", "g1.cmu2", "same priority", "renumber");
  r.add(Severity::kInfo, "resources.note", "pipeline", "fyi");
  EXPECT_EQ(r.count(Severity::kError), 1u);
  EXPECT_EQ(r.count(Severity::kWarning), 1u);
  EXPECT_EQ(r.count(Severity::kInfo), 1u);
  EXPECT_TRUE(r.has_errors());
  EXPECT_TRUE(r.has_check("memory.overlap"));
  EXPECT_TRUE(r.has_check("tcam.conflict"));
  EXPECT_FALSE(r.has_check("memory.pow2"));
}

TEST(VerifyReport, FormatFiltersBySeverity) {
  verify::VerifyReport r;
  r.add(Severity::kError, "memory.overlap", "g0.cmu0", "boom", "fix it");
  r.add(Severity::kWarning, "tcam.conflict", "g1.cmu2", "meh");
  const std::string all = r.format();
  EXPECT_NE(all.find("memory.overlap"), std::string::npos);
  EXPECT_NE(all.find("tcam.conflict"), std::string::npos);
  EXPECT_NE(all.find("(hint: fix it)"), std::string::npos);
  const std::string errors_only = r.format(Severity::kError);
  EXPECT_NE(errors_only.find("memory.overlap"), std::string::npos);
  EXPECT_EQ(errors_only.find("tcam.conflict"), std::string::npos);
}

TEST(VerifyReport, MergeCombinesFindings) {
  verify::VerifyReport a;
  a.add(Severity::kError, "memory.overlap", "g0.cmu0", "boom");
  a.analyzers_run.push_back("memory");
  verify::VerifyReport b;
  b.add(Severity::kWarning, "tcam.conflict", "g1.cmu2", "meh");
  b.analyzers_run.push_back("tcam");
  a.merge(std::move(b));
  EXPECT_EQ(a.diagnostics().size(), 2u);
  EXPECT_EQ(a.analyzers_run.size(), 2u);
}

// ---- ternary cover / overlap relations ----

TEST(TcamLint, CoversAndOverlaps) {
  const auto wildcard = pat(0, 0);
  const auto ten_slash_8 = pat(0x0A000000u, 0xFF000000u);
  const auto ten_one_slash_16 = pat(0x0A010000u, 0xFFFF0000u);
  const auto eleven_slash_8 = pat(0x0B000000u, 0xFF000000u);

  EXPECT_TRUE(verify::covers(wildcard, ten_slash_8));
  EXPECT_FALSE(verify::covers(ten_slash_8, wildcard));
  EXPECT_TRUE(verify::covers(ten_slash_8, ten_one_slash_16));
  EXPECT_FALSE(verify::covers(ten_one_slash_16, ten_slash_8));
  EXPECT_TRUE(verify::covers(ten_slash_8, ten_slash_8));
  EXPECT_FALSE(verify::covers(ten_slash_8, eleven_slash_8));

  EXPECT_TRUE(verify::overlaps(wildcard, ten_slash_8));
  EXPECT_TRUE(verify::overlaps(ten_slash_8, ten_one_slash_16));
  EXPECT_FALSE(verify::overlaps(ten_slash_8, eleven_slash_8));
}

// ---- shadow / conflict lint on hand-built rule sets ----

/// One hand-built rule, with the members lint_entries reads.
struct LintEntry {
  TernaryPattern pattern;
  std::uint32_t priority = 0;
  std::string action;
  bool terminal = true;
  std::string label;
};

TEST(TcamLint, EarlierTerminalEntryShadowsLaterCoveredEntry) {
  std::vector<LintEntry> entries;
  entries.push_back({pat(0, 0), 100, "taskA", true, "entry 0"});
  entries.push_back({pat(0x0A000000u, 0xFF000000u), 200, "taskB", true, "entry 1"});
  const auto findings = verify::lint_entries(entries);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, verify::LintFinding::Kind::kShadowed);
  EXPECT_EQ(findings[0].entry, 1u);
  EXPECT_EQ(findings[0].blocker, 0u);
}

TEST(TcamLint, NonTerminalEntryDoesNotShadow) {
  std::vector<LintEntry> entries;
  // A sampled rule (terminal=false) lets unmatched-coin packets fall through,
  // so the later specific entry is still reachable.
  entries.push_back({pat(0, 0), 100, "taskA", false, "entry 0"});
  entries.push_back({pat(0x0A000000u, 0xFF000000u), 200, "taskB", true, "entry 1"});
  EXPECT_TRUE(verify::lint_entries(entries).empty());
}

TEST(TcamLint, SamePriorityOverlapDifferentActionsIsConflict) {
  std::vector<LintEntry> entries;
  entries.push_back({pat(0x0A000000u, 0xFF000000u), 100, "add@0", false, "entry 0"});
  entries.push_back({pat(0x0A010000u, 0xFFFF0000u), 100, "max@4096", false, "entry 1"});
  const auto findings = verify::lint_entries(entries);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, verify::LintFinding::Kind::kConflict);
  EXPECT_EQ(findings[0].entry, 1u);
  EXPECT_EQ(findings[0].blocker, 0u);
}

TEST(TcamLint, SamePrioritySameActionIsNotAConflict) {
  std::vector<LintEntry> entries;
  entries.push_back({pat(0x0A000000u, 0xFF000000u), 100, "add@0", false, "entry 0"});
  entries.push_back({pat(0x0A010000u, 0xFFFF0000u), 100, "add@0", false, "entry 1"});
  EXPECT_TRUE(verify::lint_entries(entries).empty());
}

TEST(TcamLint, DisjointSamePriorityIsNotAConflict) {
  std::vector<LintEntry> entries;
  entries.push_back({pat(0x0A000000u, 0xFF000000u), 100, "add@0", true, "entry 0"});
  entries.push_back({pat(0x0B000000u, 0xFF000000u), 100, "max@64", true, "entry 1"});
  EXPECT_TRUE(verify::lint_entries(entries).empty());
}

TEST(TcamLint, ShadowedEntryIsNotAlsoReportedAsConflict) {
  std::vector<LintEntry> entries;
  entries.push_back({pat(0x0A000000u, 0xFF000000u), 100, "add@0", true, "entry 0"});
  entries.push_back({pat(0x0A010000u, 0xFFFF0000u), 100, "max@64", true, "entry 1"});
  const auto findings = verify::lint_entries(entries);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].kind, verify::LintFinding::Kind::kShadowed);
}

// ---- range-expansion reassembly ----

TEST(TcamLint, RangeExpansionReassemblesExactly) {
  // [3, 12] over 4 bits: the classic aligned-block split.
  const auto patterns = dataplane::range_to_ternary(3, 12, 4);
  EXPECT_TRUE(verify::check_range_reassembly(patterns, 3, 12, 4).empty());
}

TEST(TcamLint, RangeReassemblyDetectsMissingBlock) {
  auto patterns = dataplane::range_to_ternary(3, 12, 4);
  ASSERT_GT(patterns.size(), 1u);
  patterns.pop_back();
  EXPECT_FALSE(verify::check_range_reassembly(patterns, 3, 12, 4).empty());
}

TEST(TcamLint, RangeReassemblyDetectsForeignBlock) {
  auto patterns = dataplane::range_to_ternary(4, 7, 4);  // one aligned block
  ASSERT_EQ(patterns.size(), 1u);
  patterns.push_back(pat(0x8u, 0xCu));  // [8,11]: outside [4,7]
  EXPECT_FALSE(verify::check_range_reassembly(patterns, 4, 7, 4).empty());
}

TEST(TcamLint, RangeReassemblyDetectsDuplicateBlock) {
  auto patterns = dataplane::range_to_ternary(0, 7, 4);
  ASSERT_EQ(patterns.size(), 1u);
  patterns.push_back(patterns.front());
  EXPECT_FALSE(verify::check_range_reassembly(patterns, 0, 7, 4).empty());
}

// ---- analyzer registry ----

TEST(Verifier, RegistersTenBuiltInAnalyzers) {
  const verify::Verifier v;
  ASSERT_EQ(v.analyzers().size(), 10u);
  EXPECT_NE(v.find("resources"), nullptr);
  EXPECT_NE(v.find("tcam"), nullptr);
  EXPECT_NE(v.find("memory"), nullptr);
  EXPECT_NE(v.find("tasks"), nullptr);
  EXPECT_NE(v.find("dataflow-key"), nullptr);
  EXPECT_NE(v.find("dataflow-range"), nullptr);
  EXPECT_NE(v.find("dataflow-accuracy"), nullptr);
  EXPECT_NE(v.find("translate"), nullptr);
  EXPECT_NE(v.find("merge"), nullptr);
  EXPECT_NE(v.find("concur"), nullptr);
  EXPECT_EQ(v.find("nonesuch"), nullptr);
}

TEST(Verifier, RunOneUnknownAnalyzerThrows) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  const verify::Verifier v;
  const verify::VerifyContext ctx{&ctl, &dp, nullptr};
  EXPECT_THROW((void)v.run_one("nonesuch", ctx), std::invalid_argument);
}

TEST(Verifier, RunRecordsAnalyzersRun) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  const verify::Verifier v;
  const verify::VerifyContext ctx{&ctl, &dp, nullptr};
  const auto report = v.run(ctx);
  EXPECT_EQ(report.analyzers_run.size(), 10u);
  EXPECT_TRUE(report.empty());  // empty deployment is trivially clean
}

// ---- clean deployments (every analyzer must stay silent) ----

TaskSpec make_spec(const std::string& name, FlowKeySpec key, AttributeKind attr,
                   Algorithm algo, std::uint32_t buckets,
                   TaskFilter filter = TaskFilter::any()) {
  TaskSpec s;
  s.name = name;
  s.key = key;
  s.attribute = attr;
  s.algorithm = algo;
  s.memory_buckets = buckets;
  s.filter = filter;
  return s;
}

TEST(VerifyClean, SingleCmsTask) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  const auto report = verify::verify_deployment(ctl);
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(VerifyClean, Table1MixWithChainsAndPlan) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ASSERT_TRUE(ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  ASSERT_TRUE(ctl.add_task(make_spec("blacklist", FlowKeySpec::ip_pair(),
                                     AttributeKind::kExistence,
                                     Algorithm::kBloomFilter, 16384,
                                     TaskFilter::src(0x0A000000u, 8)))
                  .ok);
  ASSERT_TRUE(ctl.add_task(make_spec("similarity", FlowKeySpec::src_ip(),
                                     AttributeKind::kSimilarity,
                                     Algorithm::kOddSketch, 8192,
                                     TaskFilter::dst(0xC0A80000u, 16)))
                  .ok);
  auto sumax = make_spec("congestion", FlowKeySpec::dst_ip(), AttributeKind::kMax,
                         Algorithm::kSuMaxMax, 4096,
                         TaskFilter::src(0xAC100000u, 12));
  sumax.param = ParamSpec::metadata(MetaField::kQueueLen);
  ASSERT_TRUE(ctl.add_task(sumax).ok);

  const auto plan = control::cross_stack(dataplane::TofinoModel::kNumStages,
                                         dp.group(0).config());
  const auto report = verify::verify_deployment(ctl, &plan);
  EXPECT_TRUE(report.empty()) << report.format();
}

// The flymon_verify CLI's built-in scenario, driven through the shell: nine
// 3-row tasks with pairwise-intersecting full-rate filters spread one per
// group, occupying all 27 CMUs.  Must verify with zero diagnostics.
TEST(VerifyClean, FullCapacityNineGroupsTwentySevenCmus) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  control::Shell shell(ctl);
  const char* const scenario[] = {
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
  for (const char* line : scenario) {
    const std::string response = shell.execute(line);
    ASSERT_EQ(response.rfind("error:", 0), std::string::npos) << response;
  }
  ASSERT_EQ(ctl.num_tasks(), 9u);

  unsigned occupied = 0;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      if (!dp.group(g).cmu(c).entries().empty()) ++occupied;
    }
  }
  EXPECT_EQ(occupied, 27u);

  const auto plan = control::cross_stack(dataplane::TofinoModel::kNumStages,
                                         dp.group(0).config());
  const auto report = verify::verify_deployment(ctl, &plan);
  EXPECT_TRUE(report.empty()) << report.format();
  EXPECT_EQ(report.count(Severity::kWarning), 0u);
}

// ---- mutation self-test (the 10-corruption catalogue) ----

TEST(VerifyMutations, CatalogueHasFifteenDistinctMutations) {
  const auto catalogue = verify::mutation_catalogue();
  ASSERT_EQ(catalogue.size(), 15u);
  std::vector<std::string> names;
  for (const auto& m : catalogue) {
    EXPECT_FALSE(m.expected_check.empty());
    names.push_back(m.name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_TRUE(std::unique(names.begin(), names.end()) == names.end());
}

TEST(VerifyMutations, EverySeededCorruptionIsDetected) {
  const auto result = verify::run_mutation_self_test();
  EXPECT_TRUE(result.baseline_clean) << result.baseline_diagnostics;
  // 15 deployment corruptions plus 7 seeded miscompiles (miscompile-*).
  ASSERT_EQ(result.cases.size(), 22u);
  for (const auto& c : result.cases) {
    EXPECT_TRUE(c.detected) << c.mutation << ": expected " << c.expected_check
                            << " in\n"
                            << c.diagnostics;
  }
  EXPECT_TRUE(result.passed());
  const std::string text = verify::format(result);
  EXPECT_NE(text.find("caught"), std::string::npos);
}

// ---- paranoid gate & rollback regression ----

// Stable textual fingerprint of everything a deployment mutates: compression
// specs, CMU task entries, SALU slots, register bytes and allocator state.
std::string dataplane_fingerprint(const FlyMonDataPlane& dp,
                                  const control::Controller& ctl) {
  std::ostringstream out;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    const CmuGroup& grp = dp.group(g);
    out << "group " << g << '\n';
    for (unsigned u = 0; u < grp.compression().num_units(); ++u) {
      const auto& spec = grp.compression().spec_of(u);
      out << "  unit " << u << ": " << (spec ? spec->name() : "-") << '\n';
    }
    for (unsigned c = 0; c < grp.num_cmus(); ++c) {
      const Cmu& cmu = grp.cmu(c);
      out << "  cmu " << c << ": ops=" << cmu.salu().loaded_ops() << '\n';
      for (const CmuTaskEntry& e : cmu.entries()) {
        out << "    task " << e.task_id << " prio " << e.priority << " part ["
            << e.partition.base << '+' << e.partition.size << ") op "
            << static_cast<int>(e.op) << " filter " << e.filter.src_ip << '/'
            << int(e.filter.src_len) << ' ' << e.filter.dst_ip << '/'
            << int(e.filter.dst_len) << '\n';
      }
      std::uint64_t register_sum = 0;
      for (std::uint32_t i = 0; i < cmu.reg().size(); ++i) {
        register_sum += cmu.reg().read(i);
      }
      out << "    register_sum " << register_sum << '\n';
      out << "    free " << ctl.free_buckets(g, c) << '\n';
    }
  }
  out << "tasks " << ctl.num_tasks() << '\n';
  return out.str();
}

TEST(VerifyParanoid, CleanDeployPassesTheGate) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  const auto r = ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096));
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(ctl.last_verify_errors().empty()) << ctl.last_verify_errors();
  EXPECT_TRUE(ctl.remove_task(r.task_id));
  EXPECT_TRUE(ctl.last_verify_errors().empty()) << ctl.last_verify_errors();
}

TEST(VerifyParanoid, FailedDeployLeavesDataPlaneByteIdentical) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  ASSERT_TRUE(ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  const std::string before = dataplane_fingerprint(dp, ctl);

  // Absurd memory demand: allocation fails mid-placement and the staged
  // rows must unwind completely.
  const auto r = ctl.add_task(make_spec("whale", FlowKeySpec::dst_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 1u << 30));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());

  EXPECT_EQ(dataplane_fingerprint(dp, ctl), before);
  const auto report = verify::verify_deployment(ctl);
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(VerifyParanoid, ExhaustionUnderLoadRollsBackAndStaysClean) {
  FlyMonDataPlane dp(2);  // tiny data plane: third wildcard task cannot fit
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  ASSERT_TRUE(ctl.add_task(make_spec("a", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  ASSERT_TRUE(ctl.add_task(make_spec("b", FlowKeySpec::dst_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  const std::string before = dataplane_fingerprint(dp, ctl);
  const auto r = ctl.add_task(make_spec("c", FlowKeySpec::ip_pair(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(dataplane_fingerprint(dp, ctl), before);
  EXPECT_TRUE(verify::verify_deployment(ctl).empty());
}

// ---- one transaction per reconfiguration ----

/// Enables span tracing against a clean collector for one test.
struct TraceOn {
  TraceOn() {
    trace::SpanCollector::global().clear();
    trace::set_enabled(true);
  }
  ~TraceOn() {
    trace::set_enabled(false);
    trace::SpanCollector::global().clear();
  }
};

/// Spans named `name` recorded under the most recent reconfiguration tag.
std::size_t spans_in_latest_reconfig(const std::string& name) {
  const std::uint64_t tag = trace::latest_reconfig();
  const auto events = trace::SpanCollector::global().collect();
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [&](const auto& e) {
        return e.gen == tag && e.kind == trace::EventKind::kSpan &&
               name == e.name;
      }));
}

TEST(VerifyParanoid, ResizeAndSplitGateOnceAndPublishOnce) {
  TraceOn on;
  FlyMonDataPlane dp(9);
  dp.enable_parallel(2);  // so every live publish runs a pool fence
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  const auto r = ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096,
                                        TaskFilter::src(0x0A00'0000u, 8)));
  ASSERT_TRUE(r.ok) << r.error;

  std::uint64_t gen = dp.plan_generation();
  const auto resized = ctl.resize_task(r.task_id, 8192);
  ASSERT_TRUE(resized.ok) << resized.error;
  EXPECT_EQ(resized.task_id, r.task_id);
  EXPECT_EQ(spans_in_latest_reconfig("ctl.verify_gate"), 1u);
  EXPECT_EQ(spans_in_latest_reconfig("exec.fence"), 1u);
  EXPECT_EQ(dp.plan_generation(), gen + 1);

  gen = dp.plan_generation();
  const auto [lo, hi] = ctl.split_task(r.task_id);
  ASSERT_TRUE(lo.ok && hi.ok) << lo.error;
  EXPECT_EQ(spans_in_latest_reconfig("ctl.verify_gate"), 1u);
  EXPECT_EQ(spans_in_latest_reconfig("exec.fence"), 1u);
  EXPECT_EQ(dp.plan_generation(), gen + 1);
  EXPECT_TRUE(ctl.last_verify_errors().empty()) << ctl.last_verify_errors();
}

// `plan commit` of N ops is the dry run plus one transaction, whatever N:
// two checkpoints, two compiles, two verifier passes and one publish.
TEST(VerifyParanoid, PlanCommitOfABatchIsTwoPassesAndOnePublish) {
  TraceOn on;
  FlyMonDataPlane dp(9);
  dp.enable_parallel(2);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  control::Shell shell(ctl);
  ASSERT_EQ(shell.execute("add name=a key=SrcIP attr=Frequency mem=4096 rows=3")
                .rfind("error:", 0),
            std::string::npos);
  ASSERT_EQ(shell.execute("add name=b key=DstIP attr=Frequency mem=4096 rows=3")
                .rfind("error:", 0),
            std::string::npos);
  shell.execute("plan add name=c key=5Tuple attr=Frequency mem=4096 rows=3");
  shell.execute("plan resize 1 8192");
  shell.execute("plan remove 2");
  const std::uint64_t gen = dp.plan_generation();
  const std::uint64_t first = trace::latest_reconfig() + 1;
  const std::string out = shell.execute("plan commit");
  EXPECT_EQ(out,
            "add \"c\": deployed as task 3\nresize task 1 -> 8192 buckets: resized "
            "to 8192 buckets\nremove task 2: removed\n3 op(s) committed");
  EXPECT_EQ(dp.plan_generation(), gen + 1);
  const auto events = trace::SpanCollector::global().collect();
  const auto spans = [&](const std::string& name) {
    return std::count_if(events.begin(), events.end(), [&](const auto& e) {
      return e.gen >= first && e.kind == trace::EventKind::kSpan && name == e.name;
    });
  };
  EXPECT_EQ(trace::latest_reconfig(), first + 1) << "plan, then apply";
  EXPECT_EQ(spans("ctl.checkpoint"), 2);
  EXPECT_EQ(spans("exec.compile"), 2);
  EXPECT_EQ(spans("ctl.verify_gate"), 2);
  EXPECT_EQ(spans("exec.publish"), 1);
  EXPECT_EQ(spans("exec.fence"), 1);
}

// Each operation compiles, gates and fences exactly once; no dry-run
// planner runs on the way.
TEST(VerifyParanoid, EveryReconfigurationCompilesOnceAndGatesOnce) {
  TraceOn on;
  FlyMonDataPlane dp(9);
  dp.enable_parallel(2);  // so every publish runs a pool fence
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  ASSERT_TRUE(ctl.add_task(make_spec("base", FlowKeySpec::dst_ip(),
                                     AttributeKind::kFrequency,
                                     Algorithm::kCms, 4096))
                  .ok);
  std::uint64_t gen = dp.plan_generation();
  const auto expect_one_transaction = [&](const char* op) {
    EXPECT_EQ(spans_in_latest_reconfig("exec.compile"), 1u) << op;
    EXPECT_EQ(spans_in_latest_reconfig("ctl.verify_gate"), 1u) << op;
    EXPECT_EQ(spans_in_latest_reconfig("exec.fence"), 1u) << op;
    EXPECT_EQ(spans_in_latest_reconfig("ctl.plan"), 0u) << op;
    EXPECT_EQ(dp.plan_generation(), gen + 1) << op;
    EXPECT_TRUE(ctl.last_verify_errors().empty())
        << op << ": " << ctl.last_verify_errors();
    gen = dp.plan_generation();
  };

  const auto r = ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096,
                                        TaskFilter::src(0x0A00'0000u, 8)));
  ASSERT_TRUE(r.ok) << r.error;
  expect_one_transaction("add");
  ASSERT_TRUE(ctl.resize_task(r.task_id, 8192).ok);
  expect_one_transaction("resize");
  const auto [lo, hi] = ctl.split_task(r.task_id);
  ASSERT_TRUE(lo.ok && hi.ok) << lo.error;
  expect_one_transaction("split");
  ASSERT_TRUE(ctl.remove_task(lo.task_id));
  expect_one_transaction("remove");
}

/// Flips the global telemetry switch on for one test (counters only count
/// while it is on).
struct TelemetryOn {
  TelemetryOn() : prev(telemetry::enabled()) { telemetry::set_enabled(true); }
  ~TelemetryOn() { telemetry::set_enabled(prev); }
  bool prev;
};

/// The controller's reconfiguration counters: deploys, removals, resizes
/// and deploy failures.
std::array<std::uint64_t, 4> reconfig_counters(telemetry::Registry& reg) {
  return {reg.counter("flymon_task_deploys_total").value(),
          reg.counter("flymon_task_removals_total").value(),
          reg.counter("flymon_task_resizes_total").value(),
          reg.counter("flymon_task_deploy_failures_total").value()};
}

// A corruption the verifier catches, in a task no operation below touches:
// the gate sees it in the final state of every reconfiguration.
TEST(VerifyParanoid, RejectedReconfigurationsRollBackExactly) {
  TelemetryOn telemetry_on;
  telemetry::Registry reg;
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ctl.bind_telemetry(reg);
  ctl.set_paranoid(true);
  ASSERT_TRUE(ctl.add_task(make_spec("victim", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  const auto r = ctl.add_task(make_spec("hh", FlowKeySpec::dst_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096,
                                        TaskFilter::src(0x0A00'0000u, 8)));
  ASSERT_TRUE(r.ok) << r.error;

  auto plan = control::cross_stack(dataplane::TofinoModel::kNumStages,
                                   dp.group(0).config());
  verify::MutableWorld world{dp, ctl, plan};
  const auto catalogue = verify::mutation_catalogue();
  const auto orphan =
      std::find_if(catalogue.begin(), catalogue.end(),
                   [](const auto& m) { return m.name == "orphaned-placement"; });
  ASSERT_NE(orphan, catalogue.end());
  orphan->apply(world);  // uninstalls the victim's first entry

  const std::string before = dataplane_fingerprint(dp, ctl);
  const std::uint64_t gen = dp.plan_generation();
  auto counters = reconfig_counters(reg);
  const auto expect_rejected = [&](const std::string& error, const char* op) {
    EXPECT_NE(error.find("paranoid verify rejected"), std::string::npos)
        << op << ": " << error;
    EXPECT_NE(ctl.last_verify_errors().find("task.placement"),
              std::string::npos)
        << op << ": " << ctl.last_verify_errors();
    EXPECT_EQ(dataplane_fingerprint(dp, ctl), before) << op;
    EXPECT_EQ(dp.plan_generation(), gen) << op;
    ++counters[3];  // only the failure count moves
    EXPECT_EQ(reconfig_counters(reg), counters) << op;
  };

  const auto resized = ctl.resize_task(r.task_id, 8192);
  EXPECT_FALSE(resized.ok);
  expect_rejected(resized.error, "resize");
  ASSERT_NE(ctl.task(r.task_id), nullptr);
  EXPECT_EQ(ctl.task(r.task_id)->buckets, 4096u);

  const auto [lo, hi] = ctl.split_task(r.task_id);
  EXPECT_FALSE(lo.ok);
  EXPECT_FALSE(hi.ok);
  expect_rejected(lo.error, "split");

  const auto added = ctl.add_task(make_spec("late", FlowKeySpec::five_tuple(),
                                            AttributeKind::kFrequency,
                                            Algorithm::kCms, 4096));
  EXPECT_FALSE(added.ok);
  expect_rejected(added.error, "add");
  EXPECT_EQ(ctl.num_tasks(), 2u);

  // A pure remove has nothing to roll back: it goes through and reports.
  EXPECT_TRUE(ctl.remove_task(r.task_id));
  EXPECT_NE(ctl.last_verify_errors().find("task.placement"), std::string::npos)
      << ctl.last_verify_errors();
  EXPECT_EQ(ctl.task(r.task_id), nullptr);
  EXPECT_NE(dp.plan_generation(), gen);
}

// Staging and the sweep before the compile clear the hash units nothing
// references; a rejected reconfiguration configures them again.
TEST(VerifyRollback, RejectionRestoresTheHashUnitsItCleared) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  ASSERT_TRUE(ctl.add_task(make_spec("victim", FlowKeySpec::src_ip(),
                                     AttributeKind::kFrequency, Algorithm::kCms,
                                     4096))
                  .ok);
  const auto r = ctl.add_task(make_spec("hh", FlowKeySpec::dst_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096,
                                        TaskFilter::src(0x0A00'0000u, 8)));
  ASSERT_TRUE(r.ok) << r.error;
  auto plan = control::cross_stack(dataplane::TofinoModel::kNumStages,
                                   dp.group(0).config());
  verify::MutableWorld world{dp, ctl, plan};
  const auto catalogue = verify::mutation_catalogue();
  const auto orphan =
      std::find_if(catalogue.begin(), catalogue.end(),
                   [](const auto& m) { return m.name == "orphaned-placement"; });
  ASSERT_NE(orphan, catalogue.end());
  orphan->apply(world);  // the victim's: the gate rejects what follows
  // A configured unit no entry reads: the next reconfiguration clears it.
  CompressionStage& comp = dp.group(dp.num_groups() - 1).compression();
  const auto spare = comp.free_unit();
  ASSERT_TRUE(spare.has_value());
  comp.configure(*spare, FlowKeySpec::dst_ip());

  const std::string before = dataplane_fingerprint(dp, ctl);
  EXPECT_FALSE(ctl.resize_task(r.task_id, 8192).ok);
  EXPECT_EQ(dataplane_fingerprint(dp, ctl), before);
  ASSERT_TRUE(comp.spec_of(*spare).has_value());
  EXPECT_EQ(*comp.spec_of(*spare), FlowKeySpec::dst_ip());
}

// Only one half of a split fits: the split fails with no other trace — no
// deploy or removal counted, no plan published, the next id not consumed.
TEST(VerifyRollback, FailedSplitMovesOnlyTheFailureCounter) {
  TelemetryOn telemetry_on;
  telemetry::Registry reg;
  CmuGroupConfig cfg;
  cfg.register_buckets = 4096;
  FlyMonDataPlane dp(1, cfg);
  control::Controller ctl(dp);
  ctl.bind_telemetry(reg);
  TaskSpec spec = make_spec("x", FlowKeySpec::src_ip(),
                            AttributeKind::kFrequency, Algorithm::kCms, 4096,
                            TaskFilter::src(0x0A00'0000u, 8));
  spec.rows = 1;
  const auto x = ctl.add_task(spec);  // fills CMU 0
  spec.name = "y";
  const auto y = ctl.add_task(spec);  // overlaps x: fills CMU 1
  ASSERT_TRUE(x.ok && y.ok) << x.error << y.error;

  const std::string before = dataplane_fingerprint(dp, ctl);
  const std::uint64_t gen = dp.plan_generation();
  const std::uint64_t deploys = reg.counter("flymon_task_deploys_total").value();
  const std::uint64_t failures =
      reg.counter("flymon_task_deploy_failures_total").value();

  // x/lo fits in CMU 2; x/hi overlaps x and y and finds CMU 2 full.
  const auto [lo, hi] = ctl.split_task(x.task_id);
  EXPECT_FALSE(lo.ok);
  EXPECT_FALSE(lo.error.empty());
  EXPECT_FALSE(hi.ok);

  EXPECT_EQ(dataplane_fingerprint(dp, ctl), before);
  EXPECT_EQ(dp.plan_generation(), gen);
  EXPECT_EQ(reg.counter("flymon_task_deploys_total").value(), deploys);
  EXPECT_EQ(reg.counter("flymon_task_removals_total").value(), 0u);
  EXPECT_EQ(reg.counter("flymon_task_deploy_failures_total").value(),
            failures + 1);
  ASSERT_NE(ctl.task(x.task_id), nullptr);
  EXPECT_EQ(ctl.task(x.task_id)->spec.filter.src_len, 8u);

  ASSERT_TRUE(ctl.remove_task(y.task_id));
  spec.name = "z";
  const auto z = ctl.add_task(spec);
  ASSERT_TRUE(z.ok) << z.error;
  EXPECT_EQ(z.task_id, y.task_id + 1);
}

// ASan and TSan quarantine freed heap blocks and shadow the heap, which
// adds ~8 MB of resident memory to the test below that is not the
// program's own.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FLYMON_SANITIZED_HEAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FLYMON_SANITIZED_HEAP 1
#endif
#endif

/// Resident set size in bytes (Linux /proc/self/statm), or -1 if unknown.
long long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long long size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return -1;
  return resident_pages * static_cast<long long>(::sysconf(_SC_PAGESIZE));
}

// Register banks are lazily mapped, so the live pipeline, two worker
// shards and the dry-run planner's shadow world (20.25 MB of registers
// between the live banks and the shards alone) cost resident memory only
// for the cells a task writes — none here.
TEST(VerifyParanoid, GatedSetUpLeavesUnwrittenBanksNonResident) {
#if defined(FLYMON_SANITIZED_HEAP)
  GTEST_SKIP() << "the sanitizer's heap bookkeeping is resident too";
#endif
  const long long before = resident_bytes();
  if (before < 0) GTEST_SKIP() << "/proc/self/statm unavailable";

  FlyMonDataPlane dp(9);
  dp.enable_parallel(2);
  control::Controller ctl(dp);
  ctl.set_paranoid(true);
  const auto r = ctl.add_task(make_spec("hh", FlowKeySpec::src_ip(),
                                        AttributeKind::kFrequency,
                                        Algorithm::kCms, 4096));
  ASSERT_TRUE(r.ok) << r.error;
  const verify::PlanResult plan = ctl.plan({control::PlanOp::add(make_spec(
      "dst", FlowKeySpec::dst_ip(), AttributeKind::kFrequency, Algorithm::kCms,
      4096))});
  ASSERT_TRUE(plan.ok) << plan.error;

  const long long grown = resident_bytes() - before;
  EXPECT_LT(grown, 2LL << 20) << "resident memory grew by " << grown
                              << " bytes";
}

// ---- shell front end ----

TEST(VerifyShell, CommandFamily) {
  FlyMonDataPlane dp(9);
  control::Controller ctl(dp);
  control::Shell shell(ctl);
  ASSERT_EQ(shell
                .execute("add name=hh key=SrcIP attr=Frequency algo=CMS "
                         "mem=4096")
                .rfind("error:", 0),
            std::string::npos);

  const std::string all = shell.execute("verify");
  EXPECT_NE(all.find("0 error(s)"), std::string::npos) << all;

  const std::string listing = shell.execute("verify list");
  EXPECT_NE(listing.find("resources"), std::string::npos);
  EXPECT_NE(listing.find("tcam"), std::string::npos);
  EXPECT_NE(listing.find("memory"), std::string::npos);
  EXPECT_NE(listing.find("tasks"), std::string::npos);

  const std::string one = shell.execute("verify memory");
  EXPECT_NE(one.find("0 error(s)"), std::string::npos) << one;

  const std::string unknown = shell.execute("verify nonesuch");
  EXPECT_EQ(unknown.rfind("error:", 0), 0u) << unknown;

  EXPECT_EQ(shell.execute("verify paranoid on").rfind("error:", 0),
            std::string::npos);
  EXPECT_TRUE(ctl.paranoid());
  EXPECT_EQ(shell.execute("verify paranoid off").rfind("error:", 0),
            std::string::npos);
  EXPECT_FALSE(ctl.paranoid());
}

}  // namespace
}  // namespace flymon
