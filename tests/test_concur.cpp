// Concurrency checker (src/verify/concur): the sim primitives under the
// DPOR scheduler, exhaustive exploration of the bounded protocol model,
// the seeded mutation catalogue, and the lock-order analyzer over declared
// facts merged with the runtime witness.
//
// Every explore() test is gated on checker_supported(): under
// ThreadSanitizer the fiber scheduler cannot run and the tests skip (the
// production protocol is what TSan builds exercise).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/lock_witness.hpp"
#include "verify/concur/model.hpp"
#include "verify/concur/ring_model.hpp"
#include "verify/concur/sim.hpp"
#include "verify/verifier.hpp"

namespace flymon {
namespace {

using verify::Severity;
using verify::concur::ExploreOptions;
using verify::concur::ExploreResult;
using verify::concur::ModelConfig;
using verify::concur::Mutation;
namespace sim = verify::concur::sim;

// ---- sim primitives under the scheduler ----

TEST(ConcurSim, AtomicIncrementsAreExactAcrossAllInterleavings) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::atomic<int> counter{0};
    sim::thread a([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    sim::thread b([&] { counter.fetch_add(1, std::memory_order_relaxed); });
    a.join();
    b.join();
    sim::check(counter.load() == 2, "lost atomic increment");
  });
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.executions, 1u);  // the two RMWs are dependent: both orders
}

TEST(ConcurSim, UnsynchronisedVarWriteIsARace) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::var<int> shared{"test.shared", 0};
    sim::thread a([&] { shared.write(1); });
    shared.write(2);  // main thread races the spawned writer
    a.join();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("data race"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("test.shared"), std::string::npos) << r.error;
}

TEST(ConcurSim, MutexSerialisesVarAccess) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::mutex mu;
    sim::var<int> shared{"test.guarded", 0};
    sim::thread a([&] {
      sim::lock_guard lk(mu);
      shared.write(shared.read() + 1);
    });
    {
      sim::lock_guard lk(mu);
      shared.write(shared.read() + 1);
    }
    a.join();
    sim::check(shared.read() == 2, "lost guarded increment");
  });
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ConcurSim, ReleaseAcquireEdgePublishesPlainData) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::atomic<int> flag{0};
    sim::var<int> payload{"test.payload", 0};
    sim::thread producer([&] {
      payload.write(42);
      flag.store(1, std::memory_order_release);
    });
    // Spin-free consumer: only read the payload when the flag is up; the
    // acquire load orders the read after the producer's write.
    if (flag.load(std::memory_order_acquire) == 1) {
      sim::check(payload.read() == 42, "stale payload after acquire");
    }
    producer.join();
  });
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ConcurSim, RelaxedFlagDoesNotPublishPlainData) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::atomic<int> flag{0};
    sim::var<int> payload{"test.relaxed_payload", 0};
    sim::thread producer([&] {
      payload.write(42);
      flag.store(1, std::memory_order_relaxed);  // no release edge
    });
    if (flag.load(std::memory_order_relaxed) == 1) {
      (void)payload.read();  // unordered with the producer's write
    }
    producer.join();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("data race"), std::string::npos) << r.error;
}

TEST(ConcurSim, LostWakeupIsAStructuralDeadlock) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::explore(ExploreOptions{}, [] {
    sim::mutex mu;
    sim::condvar cv;
    sim::thread waiter([&] {
      sim::lock_guard lk(mu);
      cv.wait(mu);  // nobody ever notifies
    });
    waiter.join();
  });
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("deadlock"), std::string::npos) << r.error;
}

// ---- bounded protocol model ----

TEST(ConcurModel, TinyCleanScenarioExploresExhaustively) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  ModelConfig cfg;
  cfg.workers = 1;
  cfg.publishes = 1;
  cfg.batches = 1;
  cfg.chunks = 1;
  cfg.collector = false;
  const ExploreResult r =
      verify::concur::check_protocol(cfg, ExploreOptions{});
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_GT(r.executions, 10u);
}

TEST(ConcurModel, TwoWorkerScenarioWithCollectorIsClean) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  ModelConfig cfg;
  cfg.workers = 2;
  cfg.publishes = 1;
  cfg.batches = 1;
  cfg.chunks = 2;
  cfg.collector = true;
  const ExploreResult r =
      verify::concur::check_protocol(cfg, ExploreOptions{});
  EXPECT_TRUE(r.ok()) << r.error;
}

// The second publish's fence finds the batch running and preempts it: the
// lock-free plan observer runs against every cut and continuation.
TEST(ConcurModel, PreemptingFenceWithCollectorIsClean) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  ModelConfig cfg;
  cfg.workers = 1;
  cfg.publishes = 2;
  cfg.batches = 1;
  cfg.chunks = 2;
  cfg.collector = true;
  const ExploreResult r =
      verify::concur::check_protocol(cfg, ExploreOptions{});
  EXPECT_TRUE(r.ok()) << r.error;
}

// Lock-free queries after every batch, against a second publish that
// moves the batch's region (full fold) and one that does not (scoped: the
// shard keeps its deltas, so the next query folds them).
TEST(ConcurModel, CleanQueriesSeeEveryEarlierBatchAcrossBothPublishPaths) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  for (const unsigned moved : {0b10u, 0b00u}) {
    ModelConfig cfg;
    cfg.workers = 1;
    cfg.publishes = 2;
    cfg.batches = 2;
    cfg.chunks = 1;
    cfg.collector = false;
    cfg.moved_regions = moved;
    cfg.query = true;
    const ExploreResult r =
        verify::concur::check_protocol(cfg, ExploreOptions{});
    EXPECT_TRUE(r.ok()) << "moved_regions " << moved << ": " << r.error;
    EXPECT_TRUE(r.complete);
  }
}

TEST(ConcurModel, PublishVetoLeavesNoVetoedPlanObservable) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  ModelConfig cfg;
  cfg.workers = 1;
  cfg.publishes = 2;
  cfg.batches = 1;
  cfg.chunks = 1;
  cfg.collector = true;
  cfg.reject_last = true;  // the gate rejects the final candidate
  const ExploreResult r =
      verify::concur::check_protocol(cfg, ExploreOptions{});
  EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ConcurModel, ExecutionBoundReportsTruncationNotSuccess) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  ModelConfig cfg;
  cfg.workers = 1;
  cfg.publishes = 1;
  cfg.batches = 1;
  cfg.chunks = 1;
  cfg.collector = false;
  ExploreOptions opts;
  opts.max_executions = 1;  // far below the scenario's interleaving count
  const ExploreResult r = verify::concur::check_protocol(cfg, opts);
  EXPECT_FALSE(r.failed) << r.error;
  EXPECT_FALSE(r.complete);
  EXPECT_FALSE(r.ok());
}

TEST(ConcurModel, EverySeededMutationIsCaught) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  auto& witness = common::LockWitness::global();
  for (Mutation m : verify::concur::all_mutations()) {
    witness.clear();
    const ExploreResult r = verify::concur::check_protocol(
        verify::concur::scenario_for(m), ExploreOptions{});
    EXPECT_TRUE(r.failed) << "mutation not caught: "
                          << verify::concur::to_string(m) << " after "
                          << r.executions << " execution(s)";
  }
  witness.clear();
}

TEST(ConcurModel, DeadlockMutationsReportBlockedThreads) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::check_protocol(
      verify::concur::scenario_for(Mutation::kDroppedDoneNotify),
      ExploreOptions{});
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("deadlock"), std::string::npos) << r.error;
  EXPECT_FALSE(r.trace.empty());  // the failing schedule is reported
}

TEST(ConcurModel, RelaxedCompletionManifestsAsShardRace) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::check_protocol(
      verify::concur::scenario_for(Mutation::kRelaxedCompletion),
      ExploreOptions{});
  EXPECT_TRUE(r.failed);
  EXPECT_NE(r.error.find("data race"), std::string::npos) << r.error;
}

// ---- ingest ring model ----

TEST(ConcurRing, ShippedOrdersPassExhaustively) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  const ExploreResult r = verify::concur::check_ring(
      verify::concur::ring_acceptance_config(), ExploreOptions{});
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.complete) << "acceptance scenario must explore exhaustively";
}

TEST(ConcurRing, EveryWeakenedOrderIsCaught) {
  if (!verify::concur::checker_supported()) GTEST_SKIP() << "TSan build";
  for (verify::concur::RingMutation m : verify::concur::all_ring_mutations()) {
    const ExploreResult r = verify::concur::check_ring(
        verify::concur::ring_scenario_for(m), ExploreOptions{});
    EXPECT_TRUE(r.failed) << "ring mutation not caught: "
                          << verify::concur::to_string(m) << " after "
                          << r.executions << " execution(s)";
  }
}

// ---- lock-order analyzer ----

// Each test clears the process-global witness on entry and exit so tests
// never see each other's edges (declared rules and capability
// registrations persist by design).

TEST(ConcurLockOrder, CleanWitnessReportsNoErrors) {
  auto& witness = common::LockWitness::global();
  witness.clear();
  // Acquisitions matching the declared protocol direction.
  witness.inject_sequence({"exec.submit_mu", "exec.job_mu"});
  const verify::VerifyReport r =
      verify::Verifier{}.run_one("concur", verify::VerifyContext{});
  EXPECT_FALSE(r.has_errors()) << r.format();
  EXPECT_TRUE(r.has_check("concur.lock_order.graph"));
  witness.clear();
}

TEST(ConcurLockOrder, InversionAgainstDeclaredFactIsAnError) {
  auto& witness = common::LockWitness::global();
  witness.clear();
  // worker_pool.cpp declares exec.submit_mu before exec.job_mu; witness
  // the reverse.
  witness.inject_sequence({"exec.job_mu", "exec.submit_mu"});
  const verify::VerifyReport r =
      verify::Verifier{}.run_one("concur", verify::VerifyContext{});
  EXPECT_TRUE(r.has_errors()) << r.format();
  EXPECT_TRUE(r.has_check("concur.lock_order.inversion")) << r.format();
  witness.clear();
}

TEST(ConcurLockOrder, WitnessedCycleAcrossThreadsIsAnError) {
  auto& witness = common::LockWitness::global();
  witness.clear();
  // Two synthetic locks taken in both orders (as two different threads
  // would): a cycle in the combined graph with no declared fact involved.
  witness.inject_sequence({"test.lock_a", "test.lock_b"});
  witness.inject_sequence({"test.lock_b", "test.lock_a"});
  const verify::VerifyReport r =
      verify::Verifier{}.run_one("concur", verify::VerifyContext{});
  EXPECT_TRUE(r.has_errors()) << r.format();
  EXPECT_TRUE(r.has_check("concur.lock_order.cycle")) << r.format();
  witness.clear();
}

TEST(ConcurLockOrder, UndeclaredEdgeIsAWarningNotAnError) {
  auto& witness = common::LockWitness::global();
  witness.clear();
  witness.inject_sequence({"test.outer", "test.inner"});
  const verify::VerifyReport r =
      verify::Verifier{}.run_one("concur", verify::VerifyContext{});
  EXPECT_FALSE(r.has_errors()) << r.format();
  EXPECT_TRUE(r.has_check("concur.lock_order.undeclared")) << r.format();
  witness.clear();
}

TEST(ConcurLockOrder, DeclaredTransitivityImpliesWitnessedEdge) {
  auto& witness = common::LockWitness::global();
  witness.clear();
  // submit_mu -> job_mu and submit_mu -> done_mu are declared; an edge the
  // declaration set reaches transitively must not warn.  submit_mu ->
  // plan_cell is direct; check a chained stack stays clean too.
  witness.inject_sequence({"exec.submit_mu", "exec.plan_cell"});
  const verify::VerifyReport r =
      verify::Verifier{}.run_one("concur", verify::VerifyContext{});
  EXPECT_FALSE(r.has_errors()) << r.format();
  EXPECT_FALSE(r.has_check("concur.lock_order.undeclared")) << r.format();
  witness.clear();
}

TEST(ConcurLockOrder, ClearDropsEdgesButKeepsCapabilities) {
  auto& witness = common::LockWitness::global();
  witness.inject_sequence({"test.ephemeral_a", "test.ephemeral_b"});
  EXPECT_FALSE(witness.edges().empty());
  witness.clear();
  EXPECT_TRUE(witness.edges().empty());
  EXPECT_EQ(witness.acquisitions(), 0u);
  // Capability registrations survive clear(): they describe the program.
  const auto caps = witness.capabilities();
  bool found = false;
  for (const auto& c : caps) found = found || c == "test.ephemeral_a";
  EXPECT_TRUE(found);
}

TEST(ConcurLockOrder, AnalyzerIsRegisteredInTheVerifier) {
  const verify::Verifier v;
  ASSERT_NE(v.find("concur"), nullptr);
  EXPECT_EQ(v.find("concur")->name(), "concur");
}

}  // namespace
}  // namespace flymon
