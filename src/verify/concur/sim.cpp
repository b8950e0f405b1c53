// The controlled scheduler behind sim.hpp: ucontext fibers, enabledness,
// vector-clock happens-before, FastTrack-style race detection, and
// stateless DFS with classic (Flanagan–Godefroid) dynamic partial-order
// reduction.  See sim.hpp for the semantic model and DESIGN.md §14 for the
// soundness argument.
#include "verify/concur/sim.hpp"

#include <ucontext.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "common/lock_witness.hpp"

// ---------------------------------------------------------------------------
// Sanitizer handling.  ASan needs explicit fiber-switch annotations so its
// fake-stack machinery follows the ucontext switches; TSan cannot follow
// them at all (its shadow stack has no fiber API hooked up to ucontext),
// so the checker reports itself unsupported there and callers skip.
#if defined(__SANITIZE_ADDRESS__)
#define FLYMON_MC_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FLYMON_MC_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define FLYMON_MC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define FLYMON_MC_TSAN 1
#endif
#endif

#if defined(FLYMON_MC_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old, size_t* size_old);
}
#endif

namespace flymon::verify::concur {

bool checker_supported() noexcept {
#if defined(FLYMON_MC_TSAN)
  return false;
#else
  return true;
#endif
}

namespace {

using sim::kMaxThreads;
using sim::detail::AtomicOp;
using sim::detail::AtomicState;
using sim::detail::CondVarState;
using sim::detail::MutexState;
using sim::detail::VarState;
using sim::detail::VectorClock;

/// Thrown into a fiber to unwind it when the execution aborts (failure
/// found, or exploration tearing down); caught by the fiber trampoline.
struct AbortExecution {};

constexpr std::size_t kFiberStackSize = 256 * 1024;

/// One declared visible operation, pending execution by the scheduler.
struct Pending {
  enum class Kind : std::uint8_t {
    kNone,
    kAtomic,
    kMutexLock,
    kMutexUnlock,
    kCvWait,
    kCvNotify,
    kSpawn,
    kJoin,
  };
  Kind kind = Kind::kNone;
  const void* obj = nullptr;   ///< primary identity for dependence
  const void* obj2 = nullptr;  ///< cv-wait also touches the mutex
  const char* label = "";      ///< object name for traces
  AtomicOp aop = AtomicOp::kLoad;
  std::memory_order mo = std::memory_order_seq_cst;
  MutexState* mu = nullptr;
  CondVarState* cv = nullptr;
  bool notify_all = false;
  int join_tid = -1;
  std::function<void()>* spawn_fn = nullptr;  ///< owned by the spawn caller
  int spawn_result = -1;
};

const char* kind_name(Pending::Kind k, AtomicOp aop) {
  switch (k) {
    case Pending::Kind::kNone: return "none";
    case Pending::Kind::kAtomic:
      switch (aop) {
        case AtomicOp::kLoad: return "atomic_load";
        case AtomicOp::kStore: return "atomic_store";
        case AtomicOp::kRmw: return "atomic_rmw";
      }
      return "atomic";
    case Pending::Kind::kMutexLock: return "mutex_lock";
    case Pending::Kind::kMutexUnlock: return "mutex_unlock";
    case Pending::Kind::kCvWait: return "cv_wait";
    case Pending::Kind::kCvNotify: return "cv_notify";
    case Pending::Kind::kSpawn: return "spawn";
    case Pending::Kind::kJoin: return "join";
  }
  return "?";
}

/// One simulated thread: a fiber plus its scheduling / clock state.
struct Fiber {
  enum class Status : std::uint8_t {
    kRunnable,   ///< has a declared pending op (or is about to start)
    kBlockedCv,  ///< parked in a condvar wait set
    kFinished,
  };
  ucontext_t ctx;
  std::unique_ptr<char[]> stack;
  std::function<void()> fn;        ///< spawned-thread body (tid > 0)
  const std::function<void()>* body = nullptr;  ///< tid 0 only
  Status status = Status::kRunnable;
  Pending pending;
  VectorClock clock;
  CondVarState* wait_cv = nullptr;  ///< valid while kBlockedCv
  MutexState* wait_mu = nullptr;    ///< mutex to reacquire after notify
  std::vector<const char*> held;    ///< named mutexes, outermost first
  bool started = false;
  void* fake_stack = nullptr;  ///< ASan fake-stack save slot for this fiber
};

/// One DFS/DPOR frame: the scheduling decision at one step of the current
/// execution prefix, with the backtracking sets that outlive re-execution.
struct Frame {
  int chosen = -1;
  Pending op;                 ///< the chosen thread's op (for dependence)
  std::vector<int> enabled;   ///< enabled tids at this state
  std::vector<int> backtrack; ///< DPOR: alternatives to explore
  std::vector<int> done;      ///< alternatives already explored
  /// Godefroid sleep set: threads whose pending op was already explored
  /// from this state along an earlier branch and has since commuted only
  /// with independent transitions — re-exploring them here is provably
  /// redundant.  Inherited at frame creation from the parent (dependent
  /// ops wake a sleeper); `done \ {chosen}` supplies the parent's
  /// already-explored siblings.
  std::vector<int> sleep;
};

bool contains(const std::vector<int>& v, int x) {
  for (int e : v) {
    if (e == x) return true;
  }
  return false;
}

bool is_acquire(std::memory_order mo) {
  return mo == std::memory_order_acquire || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}
bool is_release(std::memory_order mo) {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

/// Two visible ops are dependent when reordering them can change the
/// execution (conservative approximation on shared objects).
bool dependent(const Pending& a, const Pending& b) {
  const bool share_primary = a.obj != nullptr && a.obj == b.obj;
  const bool share_any = share_primary ||
                         (a.obj2 != nullptr &&
                          (a.obj2 == b.obj || a.obj2 == b.obj2)) ||
                         (b.obj2 != nullptr && b.obj2 == a.obj);
  if (!share_any) return false;
  // Same atomic object: only load/load commutes.
  if (a.kind == Pending::Kind::kAtomic && b.kind == Pending::Kind::kAtomic) {
    return !(a.aop == AtomicOp::kLoad && b.aop == AtomicOp::kLoad);
  }
  // Same mutex: unlock/unlock cannot be co-enabled; everything else on the
  // same mutex (lock/lock, lock/unlock, cv-wait's embedded unlock) orders.
  if (a.kind == Pending::Kind::kMutexUnlock &&
      b.kind == Pending::Kind::kMutexUnlock) {
    return false;
  }
  return true;
}

class Scheduler {
 public:
  static Scheduler* current;

  ExploreResult run(const ExploreOptions& opts,
                    const std::function<void()>& body) {
    opts_ = opts;
    result_ = ExploreResult{};
    frames_.clear();
    for (;;) {
      if (opts_.max_executions != 0 &&
          result_.executions >= opts_.max_executions) {
        result_.complete = false;
        break;
      }
      ++result_.executions;
      run_one_execution(body);
      if (result_.failed) {
        result_.complete = false;
        break;
      }
      if (!pick_next_schedule()) {
        // No frame has an unexplored backtrack alternative: the DFS has
        // covered every inequivalent interleaving.
        result_.complete = true;
        break;
      }
    }
    return result_;
  }

  // ---- entry points from fiber context -----------------------------------
  //
  // Every entry point is a no-op while the execution is aborting: fibers
  // are then unwinding via AbortExecution, and their destructors (scoped
  // locks, sim::thread) re-enter these hooks — yielding or throwing from
  // inside that unwind would std::terminate.

  void atomic_step(AtomicState& st, AtomicOp op, std::memory_order mo) {
    if (aborting_) return;
    Fiber& f = self();
    f.pending = Pending{};
    f.pending.kind = Pending::Kind::kAtomic;
    f.pending.obj = &st;
    f.pending.label = st.name;
    f.pending.aop = op;
    f.pending.mo = mo;
    yield_from_fiber();
  }

  void mutex_lock(MutexState& st) {
    if (aborting_) return;
    Fiber& f = self();
    f.pending = Pending{};
    f.pending.kind = Pending::Kind::kMutexLock;
    f.pending.obj = &st;
    f.pending.label = st.name != nullptr ? st.name : "mutex";
    f.pending.mu = &st;
    yield_from_fiber();
  }

  bool mutex_try_lock(MutexState& st) {
    // Modelled as a visible op that never blocks: the scheduler grants the
    // step and the outcome is decided by whether the mutex is free at that
    // point in the interleaving.
    if (aborting_) return false;
    Fiber& f = self();
    f.pending = Pending{};
    f.pending.kind = Pending::Kind::kAtomic;  // dependence: same-object rmw
    f.pending.obj = &st;
    f.pending.label = st.name != nullptr ? st.name : "mutex";
    f.pending.aop = AtomicOp::kRmw;
    // Relaxed, so the atomic transition leaves `obj` alone: it is a
    // MutexState, not an AtomicState.  Success synchronises through
    // grant_mutex below; a failed try_lock synchronises with nothing.
    f.pending.mo = std::memory_order_relaxed;
    yield_from_fiber();
    if (st.owner != -1) return false;
    grant_mutex(self_tid_, st);
    return true;
  }

  void mutex_unlock(MutexState& st) {
    if (aborting_) return;
    Fiber& f = self();
    if (st.owner != self_tid_) {
      fail(std::string("unlock of mutex '") +
           (st.name != nullptr ? st.name : "mutex") +
           "' not held by the unlocking thread");
    }
    f.pending = Pending{};
    f.pending.kind = Pending::Kind::kMutexUnlock;
    f.pending.obj = &st;
    f.pending.label = st.name != nullptr ? st.name : "mutex";
    f.pending.mu = &st;
    yield_from_fiber();
  }

  void condvar_wait(CondVarState& cv, MutexState& mu) {
    if (aborting_) return;
    Fiber& f = self();
    if (mu.owner != self_tid_) {
      fail("cv_wait without holding the associated mutex");
    }
    f.pending = Pending{};
    f.pending.kind = Pending::Kind::kCvWait;
    f.pending.obj = &cv;
    f.pending.obj2 = &mu;
    f.pending.label = cv.name != nullptr ? cv.name : "condvar";
    f.pending.cv = &cv;
    f.pending.mu = &mu;
    yield_from_fiber();
    // Control returns here only after the notify-triggered reacquire
    // transition was granted; the scheduler has already restored ownership.
  }

  void condvar_notify(CondVarState& cv, bool all) {
    if (aborting_) return;
    Fiber& f = self();
    f.pending = Pending{};
    f.pending.kind = Pending::Kind::kCvNotify;
    f.pending.obj = &cv;
    f.pending.label = cv.name != nullptr ? cv.name : "condvar";
    f.pending.cv = &cv;
    f.pending.notify_all = all;
    yield_from_fiber();
  }

  void var_read(VarState& st) {
    if (aborting_) return;
    Fiber& f = self();
    if (!st.last_write.le(f.clock)) {
      race(st, "read", st.last_writer);
    }
    st.reads.c[static_cast<std::size_t>(self_tid_)] =
        f.clock.c[static_cast<std::size_t>(self_tid_)];
  }

  void var_write(VarState& st) {
    if (aborting_) return;
    Fiber& f = self();
    if (!st.last_write.le(f.clock)) {
      race(st, "write", st.last_writer);
    }
    if (!st.reads.le(f.clock)) {
      int reader = -1;
      for (std::size_t i = 0; i < kMaxThreads; ++i) {
        if (st.reads.c[i] > f.clock.c[i]) reader = static_cast<int>(i);
      }
      race(st, "write (racing a read)", reader);
    }
    st.last_write = f.clock;
    st.last_writer = self_tid_;
    st.reads.clear();
  }

  int thread_spawn(std::function<void()> fn) {
    if (aborting_) return -1;
    Fiber& f = self();
    // The function object must stay alive until the scheduler moves it
    // into the new fiber during the grant.
    std::function<void()> holder = std::move(fn);
    f.pending = Pending{};
    f.pending.kind = Pending::Kind::kSpawn;
    f.pending.label = "thread";
    f.pending.spawn_fn = &holder;
    yield_from_fiber();
    return f.pending.spawn_result;
  }

  void thread_join(int tid) {
    if (aborting_) return;
    Fiber& f = self();
    f.pending = Pending{};
    f.pending.kind = Pending::Kind::kJoin;
    f.pending.label = "thread";
    f.pending.join_tid = tid;
    yield_from_fiber();
  }

  /// Assertion entry point (sim::check): ignored during abort-unwinding
  /// (state is being torn down and checks may legitimately see nonsense).
  void check_failed(const char* msg) {
    if (aborting_) return;
    fail(std::string("invariant violated: ") + msg);
  }

  [[noreturn]] void fail(std::string msg) {
    if (!result_.failed) {
      result_.failed = true;
      result_.error = std::move(msg);
      capture_trace();
    }
    aborting_ = true;
    throw AbortExecution{};
  }

 private:
  // ---- per-execution driver ----------------------------------------------

  void run_one_execution(const std::function<void()>& body) {
    fibers_.clear();
    aborting_ = false;
    step_idx_ = 0;

    auto* main_fiber = new_fiber();
    main_fiber->body = &body;
    start_fiber(0);
    advance(0);

    while (!aborting_) {
      if (all_finished()) break;
      std::vector<int> enabled = enabled_tids();
      if (enabled.empty()) {
        report_deadlock();
        break;
      }
      int chosen;
      if (step_idx_ < frames_.size()) {
        chosen = frames_[step_idx_].chosen;
        if (!contains(enabled, chosen)) {
          // Replay divergence means the model is not deterministic under
          // the sim primitives (e.g. it consulted real time or real
          // threads) — a model bug worth failing loudly on.
          result_.failed = true;
          result_.error = "replay divergence: model is not deterministic";
          capture_trace();
          break;
        }
        frames_[step_idx_].op = fibers_[static_cast<std::size_t>(chosen)]->pending;
        frames_[step_idx_].enabled = enabled;
      } else {
        Frame fr;
        // Sleep set at this fresh state: the parent's sleepers plus its
        // already-explored sibling choices, minus anyone the parent's
        // executed op is dependent with (a dependent op wakes a sleeper
        // because the reordering now matters).  A sleeper's pending op is
        // unchanged — it has not run since the parent state.
        if (step_idx_ > 0) {
          const Frame& prev = frames_[step_idx_ - 1];
          auto inherit = [&](int t) {
            if (t == prev.chosen || contains(fr.sleep, t)) return;
            if (!dependent(prev.op,
                           fibers_[static_cast<std::size_t>(t)]->pending)) {
              fr.sleep.push_back(t);
            }
          };
          for (int t : prev.sleep) inherit(t);
          for (int t : prev.done) inherit(t);
        }
        chosen = -1;
        for (int t : enabled) {
          if (!contains(fr.sleep, t)) {
            chosen = t;
            break;
          }
        }
        if (chosen < 0) {
          // Every enabled continuation is sleep-set blocked: this whole
          // suffix was covered by an earlier branch.  Prune.
          break;
        }
        fr.chosen = chosen;
        fr.op = fibers_[static_cast<std::size_t>(chosen)]->pending;
        fr.enabled = std::move(enabled);
        fr.done.push_back(chosen);
        frames_.push_back(std::move(fr));
      }
      update_backtrack_sets(chosen);
      execute_transition(chosen);
      ++step_idx_;
      ++result_.steps;
      if (step_idx_ > opts_.max_steps) {
        result_.failed = true;
        result_.error = "step bound exceeded (possible livelock)";
        capture_trace();
        break;
      }
    }

    unwind_all_fibers();
  }

  /// Classic DPOR: find a deeper-most frame with an unexplored backtrack
  /// alternative, re-point its choice, truncate, and signal a re-run.
  bool pick_next_schedule() {
    while (!frames_.empty()) {
      Frame& fr = frames_.back();
      int next_choice = -1;
      for (int cand : fr.backtrack) {
        // Skip sleepers: exploring a sleeping thread from this state is
        // redundant (covered when it was explored before entering sleep).
        if (!contains(fr.done, cand) && !contains(fr.sleep, cand)) {
          next_choice = cand;
          break;
        }
      }
      if (next_choice >= 0) {
        fr.chosen = next_choice;
        fr.done.push_back(next_choice);
        return true;
      }
      frames_.pop_back();
    }
    return false;
  }

  void update_backtrack_sets(int chosen) {
    const Pending& op =
        fibers_[static_cast<std::size_t>(chosen)]->pending;
    for (std::size_t j = step_idx_; j-- > 0;) {
      const Frame& fr = frames_[j];
      if (fr.chosen == chosen) continue;
      if (!dependent(fr.op, op)) continue;
      Frame& target = frames_[j];
      if (contains(target.enabled, chosen)) {
        if (!contains(target.backtrack, chosen)) {
          target.backtrack.push_back(chosen);
        }
      } else {
        for (int t : target.enabled) {
          if (!contains(target.backtrack, t)) target.backtrack.push_back(t);
        }
      }
      break;  // only the *last* dependent transition
    }
  }

  // ---- enabledness -------------------------------------------------------

  bool all_finished() const {
    for (const auto& f : fibers_) {
      if (f->status != Fiber::Status::kFinished) return false;
    }
    return true;
  }

  bool is_enabled(const Fiber& f) const {
    if (f.status != Fiber::Status::kRunnable) return false;
    switch (f.pending.kind) {
      case Pending::Kind::kNone:
        return false;
      case Pending::Kind::kMutexLock:
        return f.pending.mu->owner == -1;
      case Pending::Kind::kJoin:
        return fibers_[static_cast<std::size_t>(f.pending.join_tid)]->status ==
               Fiber::Status::kFinished;
      default:
        return true;
    }
  }

  std::vector<int> enabled_tids() const {
    std::vector<int> out;
    for (std::size_t i = 0; i < fibers_.size(); ++i) {
      if (is_enabled(*fibers_[i])) out.push_back(static_cast<int>(i));
    }
    return out;
  }

  // ---- transition execution ----------------------------------------------

  void execute_transition(int tid) {
    Fiber& f = *fibers_[static_cast<std::size_t>(tid)];
    Pending op = f.pending;  // copy: the fiber overwrites it on next declare
    const std::size_t t = static_cast<std::size_t>(tid);
    switch (op.kind) {
      case Pending::Kind::kAtomic: {
        auto& st = *const_cast<AtomicState*>(
            static_cast<const AtomicState*>(op.obj));
        if (op.aop == AtomicOp::kLoad) {
          if (is_acquire(op.mo)) f.clock.join(st.msg);
        } else if (op.aop == AtomicOp::kStore) {
          if (is_release(op.mo)) {
            st.msg = f.clock;
          } else {
            // A relaxed store starts a new release sequence with no
            // payload: later acquire loads get nothing to join.
            st.msg.clear();
          }
        } else {  // RMW
          if (is_acquire(op.mo)) f.clock.join(st.msg);
          if (is_release(op.mo)) {
            st.msg.join(f.clock);
          }
          // A relaxed RMW continues the release sequence: st.msg keeps the
          // head's clock, and readers still synchronise with the head.
        }
        break;
      }
      case Pending::Kind::kMutexLock:
        grant_mutex(tid, *op.mu);
        break;
      case Pending::Kind::kMutexUnlock:
        release_mutex(tid, *op.mu);
        break;
      case Pending::Kind::kCvWait: {
        // Atomically: release the mutex and park.  The fiber stays
        // suspended (its yield does not return) until a notify converts it
        // back to a runnable mutex-lock reacquire.
        release_mutex(tid, *op.mu);
        f.status = Fiber::Status::kBlockedCv;
        f.wait_cv = op.cv;
        f.wait_mu = op.mu;
        f.clock.c[t]++;
        return;  // do not resume the fiber
      }
      case Pending::Kind::kCvNotify: {
        for (auto& wp : fibers_) {
          Fiber& w = *wp;
          if (w.status != Fiber::Status::kBlockedCv || w.wait_cv != op.cv) {
            continue;
          }
          w.status = Fiber::Status::kRunnable;
          w.pending = Pending{};
          w.pending.kind = Pending::Kind::kMutexLock;
          w.pending.obj = w.wait_mu;
          w.pending.label =
              w.wait_mu->name != nullptr ? w.wait_mu->name : "mutex";
          w.pending.mu = w.wait_mu;
          w.wait_cv = nullptr;
          if (!op.notify_all) break;  // notify_one: lowest-tid waiter
        }
        break;
      }
      case Pending::Kind::kSpawn: {
        Fiber* child = new_fiber();
        const int child_tid = static_cast<int>(fibers_.size()) - 1;
        child->fn = std::move(*op.spawn_fn);
        child->clock = f.clock;
        child->clock.c[static_cast<std::size_t>(child_tid)]++;
        f.pending.spawn_result = child_tid;
        f.clock.c[t]++;
        start_fiber(child_tid);
        // Run the child's invisible prefix now, up to its first declared
        // visible op (or completion); invisible ops commute, so folding
        // them into the spawn transition loses no interleavings.
        advance(child_tid);
        advance(tid);
        return;
      }
      case Pending::Kind::kJoin: {
        f.clock.join(
            fibers_[static_cast<std::size_t>(op.join_tid)]->clock);
        break;
      }
      case Pending::Kind::kNone:
        break;
    }
    f.clock.c[t]++;
    advance(tid);
  }

  void grant_mutex(int tid, MutexState& mu) {
    Fiber& f = *fibers_[static_cast<std::size_t>(tid)];
    mu.owner = tid;
    f.clock.join(mu.clock);
    if (mu.name != nullptr) {
      common::LockWitness& w = common::LockWitness::global();
      if (w.enabled()) w.on_acquire_held(mu.name, f.held);
      f.held.push_back(mu.name);
    }
  }

  void release_mutex(int tid, MutexState& mu) {
    Fiber& f = *fibers_[static_cast<std::size_t>(tid)];
    mu.owner = -1;
    mu.clock = f.clock;
    if (mu.name != nullptr) {
      for (auto it = f.held.rbegin(); it != f.held.rend(); ++it) {
        if (*it == mu.name) {
          f.held.erase(std::next(it).base());
          break;
        }
      }
    }
  }

  // ---- failure reporting -------------------------------------------------

  void report_deadlock() {
    std::string msg = "deadlock: no enabled thread;";
    for (std::size_t i = 0; i < fibers_.size(); ++i) {
      const Fiber& f = *fibers_[i];
      if (f.status == Fiber::Status::kFinished) continue;
      msg += " T" + std::to_string(i) + " ";
      if (f.status == Fiber::Status::kBlockedCv) {
        msg += "waits on cv '";
        msg += f.wait_cv->name != nullptr ? f.wait_cv->name : "condvar";
        msg += "'";
      } else {
        msg += kind_name(f.pending.kind, f.pending.aop);
        msg += "('";
        msg += f.pending.label;
        msg += "')";
      }
      msg += ";";
    }
    result_.failed = true;
    result_.error = std::move(msg);
    capture_trace();
    aborting_ = true;
  }

  [[noreturn]] void race(const VarState& st, const char* what, int other) {
    std::string msg = "data race on '";
    msg += st.name != nullptr ? st.name : "var";
    msg += "': ";
    msg += what;
    msg += " by T" + std::to_string(self_tid_);
    msg += " unordered with T" + std::to_string(other);
    fail(std::move(msg));
  }

  void capture_trace() {
    result_.trace.clear();
    const std::size_t n = step_idx_;
    const std::size_t start =
        n > opts_.trace_tail ? n - opts_.trace_tail : 0;
    for (std::size_t i = start; i < n && i < frames_.size(); ++i) {
      const Frame& fr = frames_[i];
      std::string line = "#" + std::to_string(i) + " T" +
                         std::to_string(fr.chosen) + " " +
                         kind_name(fr.op.kind, fr.op.aop) + "(" +
                         (fr.op.label != nullptr ? fr.op.label : "") + ")";
      result_.trace.push_back(std::move(line));
    }
  }

  // ---- fibers ------------------------------------------------------------

  Fiber& self() { return *fibers_[static_cast<std::size_t>(self_tid_)]; }

  Fiber* new_fiber() {
    if (fibers_.size() >= kMaxThreads) {
      throw std::runtime_error("model spawns more than kMaxThreads threads");
    }
    fibers_.push_back(std::make_unique<Fiber>());
    Fiber& f = *fibers_.back();
    f.stack = std::make_unique<char[]>(kFiberStackSize);
    return &f;
  }

  void start_fiber(int tid) {
    Fiber& f = *fibers_[static_cast<std::size_t>(tid)];
    getcontext(&f.ctx);
    f.ctx.uc_stack.ss_sp = f.stack.get();
    f.ctx.uc_stack.ss_size = kFiberStackSize;
    f.ctx.uc_link = &sched_ctx_;
    makecontext(&f.ctx, &Scheduler::trampoline, 0);
    f.started = true;
  }

  static void trampoline() {
    Scheduler& s = *Scheduler::current;
#if defined(FLYMON_MC_ASAN)
    // First entry on this fiber stack: record the scheduler's stack bounds
    // (the stack we switched away from) for later switches back to it.
    __sanitizer_finish_switch_fiber(nullptr, &s.sched_stack_bottom_,
                                    &s.sched_stack_size_);
#endif
    const int tid = s.self_tid_;
    Fiber& f = *s.fibers_[static_cast<std::size_t>(tid)];
    try {
      if (f.body != nullptr) {
        (*f.body)();
      } else {
        f.fn();
      }
    } catch (AbortExecution&) {
      // unwound deliberately
    } catch (const std::exception& e) {
      if (!s.result_.failed) {
        s.result_.failed = true;
        s.result_.error = std::string("unhandled exception in model: ") +
                          e.what();
        s.capture_trace();
      }
      s.aborting_ = true;
    } catch (...) {
      if (!s.result_.failed) {
        s.result_.failed = true;
        s.result_.error = "unhandled non-std exception in model";
        s.capture_trace();
      }
      s.aborting_ = true;
    }
    f.status = Fiber::Status::kFinished;
    // Dying switch back to the scheduler; never returns.
#if defined(FLYMON_MC_ASAN)
    __sanitizer_start_switch_fiber(nullptr, s.sched_stack_bottom_,
                                   s.sched_stack_size_);
#endif
    swapcontext(&f.ctx, &s.sched_ctx_);
    std::abort();  // unreachable
  }

  /// Resume `tid` until it declares its next visible op or finishes.
  void advance(int tid) {
    Fiber& f = *fibers_[static_cast<std::size_t>(tid)];
    if (f.status == Fiber::Status::kFinished) return;
    const int prev = self_tid_;
    self_tid_ = tid;
    // Note: f.pending is NOT reset here — thread_spawn reads its result
    // out of the granted op after resuming; every declare overwrites the
    // whole struct anyway.
#if defined(FLYMON_MC_ASAN)
    void* fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, f.stack.get(), kFiberStackSize);
#endif
    swapcontext(&sched_ctx_, &f.ctx);
#if defined(FLYMON_MC_ASAN)
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
    self_tid_ = prev;
  }

  /// Fiber side of a declared op: hand control to the scheduler; on
  /// resumption bail out if the execution is being torn down.
  void yield_from_fiber() {
    Fiber& f = self();
#if defined(FLYMON_MC_ASAN)
    __sanitizer_start_switch_fiber(&f.fake_stack, sched_stack_bottom_,
                                   sched_stack_size_);
#endif
    swapcontext(&f.ctx, &sched_ctx_);
#if defined(FLYMON_MC_ASAN)
    __sanitizer_finish_switch_fiber(f.fake_stack, nullptr, nullptr);
#endif
    if (aborting_) throw AbortExecution{};
  }

  /// Resume every unfinished fiber with the abort flag set so it unwinds
  /// (running destructors) before the execution's state is torn down.
  void unwind_all_fibers() {
    aborting_ = true;
    // Reverse order: fiber 0 owns the model state the spawned fibers
    // reference, so it must unwind last.  One resume per fiber suffices —
    // with aborting_ set, yield_from_fiber throws immediately and every
    // sim entry point is a no-op, so a resumed fiber runs straight to its
    // trampoline.
    for (std::size_t i = fibers_.size(); i-- > 0;) {
      Fiber& f = *fibers_[i];
      if (f.status == Fiber::Status::kFinished || !f.started) continue;
      advance(static_cast<int>(i));
    }
    fibers_.clear();
  }

  ExploreOptions opts_;
  ExploreResult result_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  std::vector<Frame> frames_;
  ucontext_t sched_ctx_;
  int self_tid_ = -1;
  std::size_t step_idx_ = 0;
  bool aborting_ = false;
#if defined(FLYMON_MC_ASAN)
  const void* sched_stack_bottom_ = nullptr;
  size_t sched_stack_size_ = 0;
#endif
};

Scheduler* Scheduler::current = nullptr;

Scheduler& sched() {
  if (Scheduler::current == nullptr) {
    throw std::logic_error(
        "sim primitive used outside verify::concur::explore()");
  }
  return *Scheduler::current;
}

}  // namespace

ExploreResult explore(const ExploreOptions& opts,
                      const std::function<void()>& body) {
  if (!checker_supported()) {
    ExploreResult r;
    r.failed = false;
    r.complete = false;
    r.error = "model checker unsupported in this build (TSan)";
    return r;
  }
  Scheduler s;
  Scheduler* prev = Scheduler::current;
  Scheduler::current = &s;
  ExploreResult r = s.run(opts, body);
  Scheduler::current = prev;
  return r;
}

namespace sim::detail {

void atomic_step(AtomicState& st, AtomicOp op, std::memory_order mo) {
  sched().atomic_step(st, op, mo);
}
void mutex_lock(MutexState& st) { sched().mutex_lock(st); }
bool mutex_try_lock(MutexState& st) { return sched().mutex_try_lock(st); }
void mutex_unlock(MutexState& st) { sched().mutex_unlock(st); }
void condvar_wait(CondVarState& cv, MutexState& mu) {
  sched().condvar_wait(cv, mu);
}
void condvar_notify(CondVarState& cv, bool all) {
  sched().condvar_notify(cv, all);
}
void var_read(VarState& st) { sched().var_read(st); }
void var_write(VarState& st) { sched().var_write(st); }
int thread_spawn(std::function<void()> fn) {
  return sched().thread_spawn(std::move(fn));
}
void thread_join(int tid) { sched().thread_join(tid); }
void check_failed(const char* msg) { sched().check_failed(msg); }

}  // namespace sim::detail

}  // namespace flymon::verify::concur
