#include "verify/concur/ring_model.hpp"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "exec/protocol.hpp"
#include "ingest/ring.hpp"

namespace flymon::verify::concur {

namespace {

/// One weakened-order traits set per mutation.  Compile-time, like the
/// shipped RingOrders — the checker explores the exact template the data
/// plane would ship if someone "optimised" that one edge to relaxed.
template <std::memory_order P, std::memory_order O, std::memory_order R,
          std::memory_order U>
struct Orders {
  static constexpr std::memory_order publish = P;
  static constexpr std::memory_order observe = O;
  static constexpr std::memory_order recycle = R;
  static constexpr std::memory_order reuse = U;
};

constexpr auto kRel = std::memory_order_release;
constexpr auto kAcq = std::memory_order_acquire;
constexpr auto kRlx = std::memory_order_relaxed;

using CleanOrders = Orders<kRel, kAcq, kRel, kAcq>;
using WeakPublish = Orders<kRlx, kAcq, kRel, kAcq>;
using WeakObserve = Orders<kRel, kRlx, kRel, kAcq>;
using WeakRecycle = Orders<kRel, kAcq, kRlx, kAcq>;
using WeakReuse = Orders<kRel, kAcq, kRel, kRlx>;

/// The republisher's plan stand-in (mirrors model.cpp's ModelPlan).
struct RingPlan {
  explicit RingPlan(std::uint64_t g) : gen(g) {}
  std::uint64_t gen;
  std::uint64_t generation() const noexcept { return gen; }
};

using SimPlanCell = exec::BasicPlanCell<SimSync, const RingPlan>;

/// Ghost ledger: plain fields on purpose — they are the spec, not part of
/// the modelled program (cooperative scheduling keeps them safe; producer
/// writes `accepted` before join, main reads it after).
struct Ghost {
  std::uint64_t accepted = 0;
  std::vector<std::uint64_t> popped;
};

template <class O>
void ring_body(const RingModelConfig& cfg) {
  ingest::BasicSpscRing<SimSync, std::uint64_t, O> ring(cfg.capacity);
  Ghost ghost;
  SimPlanCell cell{"exec.plan_cell"};
  cell.store(std::make_shared<const RingPlan>(0));  // construction-time plan

  sim::thread producer([&] {
    std::uint64_t next = 1;
    std::vector<std::uint64_t> batch;
    for (int a = 0; a < cfg.push_attempts; ++a) {
      if (next > static_cast<std::uint64_t>(cfg.items)) break;
      batch.clear();
      for (std::uint64_t v = next;
           v <= static_cast<std::uint64_t>(cfg.items) &&
           batch.size() < static_cast<std::size_t>(cfg.push_batch);
           ++v) {
        batch.push_back(v);
      }
      const std::size_t n =
          ring.try_push(std::span<const std::uint64_t>(batch));
      // try_push accepts a prefix, so the accepted set is always exactly
      // 1..ghost.accepted — the ledger the drain audits against.
      next += n;
      ghost.accepted += n;
    }
  });

  std::unique_ptr<sim::thread> republisher;
  if (cfg.republish) {
    republisher = std::make_unique<sim::thread>([&] {
      for (std::uint64_t g = 1; g <= 2; ++g) {
        cell.store_if_newer(std::make_shared<const RingPlan>(g));
      }
    });
  }

  // Consumer (main body fiber): bounded concurrent pops while the
  // producer runs, interleaved with lock-free plan observations (R5).
  std::vector<std::uint64_t> buf(static_cast<std::size_t>(cfg.pop_batch));
  std::uint64_t last_gen = 0;
  for (int a = 0; a < cfg.pop_attempts; ++a) {
    const std::size_t n = ring.try_pop(std::span<std::uint64_t>(buf));
    for (std::size_t i = 0; i < n; ++i) ghost.popped.push_back(buf[i]);
    if (cfg.republish) {
      std::shared_ptr<const RingPlan> p = cell.load();
      sim::check(p->generation() >= last_gen,
                 "consumer saw the plan generation move backwards while "
                 "the ring churned");
      last_gen = p->generation();
    }
  }

  producer.join();
  if (republisher != nullptr) republisher->join();

  // Quiescent drain: both sides joined, so occupancy is exact (R4) and
  // the remaining values come out deterministically.
  sim::check(ring.occupancy() <= cfg.capacity,
             "ring occupancy exceeds capacity");
  for (;;) {
    const std::size_t n = ring.try_pop(std::span<std::uint64_t>(buf));
    if (n == 0) break;
    for (std::size_t i = 0; i < n; ++i) ghost.popped.push_back(buf[i]);
  }
  sim::check(ring.empty(), "drained ring still reports occupancy");

  // R1 + R2: the popped sequence must be exactly 1..accepted, in order.
  sim::check(ghost.popped.size() == ghost.accepted,
             "ring lost or duplicated packets (popped != accepted)");
  for (std::size_t i = 0; i < ghost.popped.size(); ++i) {
    sim::check(ghost.popped[i] == i + 1,
               "FIFO violated: packets popped out of push order");
  }
}

}  // namespace

const char* to_string(RingMutation m) noexcept {
  switch (m) {
    case RingMutation::kNone: return "none";
    case RingMutation::kWeakPublish: return "weak_ring_publish";
    case RingMutation::kWeakObserve: return "weak_ring_observe";
    case RingMutation::kWeakRecycle: return "weak_ring_recycle";
    case RingMutation::kWeakReuse: return "weak_ring_reuse";
  }
  return "?";
}

const char* ring_mutation_description(RingMutation m) noexcept {
  switch (m) {
    case RingMutation::kNone:
      return "no mutation (shipped RingOrders)";
    case RingMutation::kWeakPublish:
      return "tail publish store weakened from release to relaxed";
    case RingMutation::kWeakObserve:
      return "tail observe load weakened from acquire to relaxed";
    case RingMutation::kWeakRecycle:
      return "head recycle store weakened from release to relaxed";
    case RingMutation::kWeakReuse:
      return "head reuse load weakened from acquire to relaxed";
  }
  return "?";
}

std::vector<RingMutation> all_ring_mutations() {
  return {
      RingMutation::kWeakPublish,
      RingMutation::kWeakObserve,
      RingMutation::kWeakRecycle,
      RingMutation::kWeakReuse,
  };
}

RingModelConfig ring_acceptance_config() {
  RingModelConfig cfg;
  cfg.capacity = 2;   // 3 values wrap the ring: both order pairs exercised
  cfg.items = 3;
  cfg.push_batch = 2;
  cfg.pop_batch = 2;
  cfg.push_attempts = 6;
  cfg.pop_attempts = 2;
  cfg.republish = true;
  return cfg;
}

RingModelConfig ring_scenario_for(RingMutation m) {
  RingModelConfig cfg;
  cfg.republish = false;
  cfg.mutation = m;
  switch (m) {
    case RingMutation::kNone:
      return ring_acceptance_config();
    case RingMutation::kWeakPublish:
    case RingMutation::kWeakObserve:
      // One value is enough: slot write vs slot read with the
      // publish/observe edge broken races on the very first hand-off.
      cfg.capacity = 2;
      cfg.items = 1;
      cfg.push_batch = 1;
      cfg.pop_batch = 1;
      cfg.push_attempts = 2;
      cfg.pop_attempts = 1;
      break;
    case RingMutation::kWeakRecycle:
    case RingMutation::kWeakReuse:
      // The recycle/reuse edge only matters when a slot is reused, so the
      // ring must wrap: 3 values through capacity 2.
      cfg.capacity = 2;
      cfg.items = 3;
      cfg.push_batch = 1;
      cfg.pop_batch = 1;
      cfg.push_attempts = 6;
      cfg.pop_attempts = 3;
      break;
  }
  return cfg;
}

ExploreResult check_ring(const RingModelConfig& cfg,
                         const ExploreOptions& opts) {
  switch (cfg.mutation) {
    case RingMutation::kWeakPublish:
      return explore(opts, [&cfg] { ring_body<WeakPublish>(cfg); });
    case RingMutation::kWeakObserve:
      return explore(opts, [&cfg] { ring_body<WeakObserve>(cfg); });
    case RingMutation::kWeakRecycle:
      return explore(opts, [&cfg] { ring_body<WeakRecycle>(cfg); });
    case RingMutation::kWeakReuse:
      return explore(opts, [&cfg] { ring_body<WeakReuse>(cfg); });
    case RingMutation::kNone:
      break;
  }
  return explore(opts, [&cfg] { ring_body<CleanOrders>(cfg); });
}

}  // namespace flymon::verify::concur
