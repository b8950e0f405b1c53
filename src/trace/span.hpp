// Structured span tracing for the control path (and coarse data-path
// phases): RAII scoped spans write fixed-size events into lock-free
// per-thread ring buffers, gated on one relaxed atomic flag exactly like
// telemetry::enabled() — a disabled build costs a predicted-not-taken
// branch per instrumentation site and nothing else.
//
// Every reconfiguration entry point opens a ReconfigScope, which stamps a
// monotonic generation tag onto every span recorded while it is active, so
// a collected timeline decomposes each deploy into causally-linked
// plan / verify / compile / publish / fence / merge children.  Collected
// events export as Chrome trace-event JSON (trace/chrome_export.hpp,
// Perfetto / about:tracing compatible) and as span-duration histograms
// through the existing telemetry exporters (SpanCollector::
// flush_to_registry).
//
// Concurrency model: each thread owns one ring (registered on first
// write); slot fields are relaxed atomics and the ring head is
// released after the slot is complete, so concurrent collectors read
// only completed events and a wrapped slot mid-overwrite is detected and
// discarded (never torn).  Overwritten events are drop-accounted.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/annotated_mutex.hpp"
#include "common/thread_annotations.hpp"

namespace flymon::telemetry {
class Registry;
}  // namespace flymon::telemetry

namespace flymon::trace {

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// Global runtime switch (default off).  Spans record nothing while
/// disabled; ReconfigScope tags stay monotonic regardless.
inline bool enabled() noexcept {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on) noexcept;

/// Honour the FLYMON_TRACE environment variable (1/on/true enables).
/// Returns the resulting state.
bool init_from_env() noexcept;

// ---- clock ----

/// Nanosecond timestamps come from a process-wide clock hook so tests can
/// inject a deterministic clock (golden exports).  The default is
/// steady_clock relative to process start.
using ClockFn = std::uint64_t (*)();
std::uint64_t monotonic_now_ns() noexcept;
/// Replace the span clock; nullptr restores the monotonic default.
void set_clock(ClockFn fn) noexcept;
std::uint64_t now_ns() noexcept;

// ---- events ----

enum class EventKind : std::uint8_t { kSpan = 0, kInstant = 1 };

/// One completed event, snapshot from a thread ring.  `name` is always a
/// static string (instrumentation-site literal), so events stay
/// fixed-size and allocation-free on the recording path.
struct SpanEvent {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;   ///< 0 for instants
  std::uint64_t gen = 0;      ///< reconfiguration tag (0 = outside any)
  std::uint64_t arg = 0;      ///< site-specific (plan generation, batch size)
  std::uint32_t tid = 0;      ///< ring registration index (stable per thread)
  std::uint16_t depth = 0;    ///< span nesting depth at open
  EventKind kind = EventKind::kSpan;
};

/// Events per thread ring; oldest events are overwritten (and counted as
/// dropped) when a thread records more than this between collections.
inline constexpr std::size_t kRingCapacity = 4096;

/// Process-wide sink of every thread's span ring.
class SpanCollector {
 public:
  static SpanCollector& global();

  SpanCollector();
  SpanCollector(const SpanCollector&) = delete;
  SpanCollector& operator=(const SpanCollector&) = delete;

  /// Record one completed event into the calling thread's ring
  /// (registering the ring on first use).  Lock-free after registration.
  void emit(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns,
            std::uint64_t gen, std::uint64_t arg, std::uint16_t depth,
            EventKind kind) noexcept;

  struct Stats {
    std::uint64_t emitted = 0;  ///< events recorded since start/clear
    std::uint64_t dropped = 0;  ///< overwritten before collection
    std::size_t threads = 0;    ///< rings registered
  };
  Stats stats() const;

  /// Snapshot every ring's surviving events, sorted by (start, tid).
  /// Safe against concurrent writers: an event overwritten mid-read is
  /// discarded, never returned torn.
  std::vector<SpanEvent> collect() const;

  /// Reset every ring and the flush cursors (rings stay registered so
  /// live threads keep their ids).  Test/CLI setup only — not safe
  /// against concurrent writers.
  void clear();

  /// Feed span durations recorded since the last flush into `registry`:
  /// `flymon_span_duration_us{span=<name>}` histograms plus
  /// `flymon_trace_spans_total` / `flymon_trace_span_drops_total`
  /// counters.  Values then flow through the existing JSON/Prometheus
  /// exporters unchanged.
  void flush_to_registry(telemetry::Registry& registry);

 private:
  struct ThreadRing;
  ThreadRing& ring_for_this_thread();

  static thread_local ThreadRing* t_ring;
  static thread_local SpanCollector* t_ring_owner;

  mutable common::Mutex mu_{"trace.spans"};  ///< guards rings_ registration + flush cursors
  std::vector<std::unique_ptr<ThreadRing>> rings_ FLYMON_GUARDED_BY(mu_);
  std::vector<std::uint64_t> flushed_
      FLYMON_GUARDED_BY(mu_);  ///< per-ring flush cursor (head)
  std::uint64_t flushed_drops_ FLYMON_GUARDED_BY(mu_) = 0;
};

/// Record an instant event (zero duration) on the calling thread.
void instant(const char* name, std::uint64_t arg = 0) noexcept;

// ---- reconfiguration tagging ----

/// Monotonic tag linking every span of one reconfiguration.  Nested scopes
/// reuse the outermost tag (Controller::plan opens one scope, so the ops of
/// its batch share one tag); the counter only advances at top level, so
/// tags order reconfigurations totally.
class ReconfigScope {
 public:
  ReconfigScope() noexcept;
  ~ReconfigScope();
  ReconfigScope(const ReconfigScope&) = delete;
  ReconfigScope& operator=(const ReconfigScope&) = delete;

  /// The tag this scope is recording under.
  std::uint64_t tag() const noexcept { return tag_; }

 private:
  std::uint64_t tag_ = 0;
  bool top_ = false;
};

/// Largest tag handed out so far.
std::uint64_t latest_reconfig() noexcept;

// ---- RAII span ----

namespace detail {
extern thread_local std::uint16_t t_depth;
}  // namespace detail

/// Scoped span: opens at construction when tracing is enabled, records one
/// fixed-size event into the thread ring at close.  ~0 cost when tracing
/// is off (one relaxed load + branch).
class Span {
 public:
  explicit Span(const char* name, std::uint64_t arg = 0) noexcept {
    if (!enabled()) return;
    open(name, arg);
  }
  ~Span() {
    if (live_) close();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach / replace the site-specific argument before close.
  void set_arg(std::uint64_t v) noexcept { arg_ = v; }

  /// Record the event now (idempotent; the destructor then no-ops).
  void close() noexcept;

 private:
  void open(const char* name, std::uint64_t arg) noexcept;

  const char* name_ = "";
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
  std::uint16_t depth_ = 0;
  bool live_ = false;
};

// ---- timeline analysis (shared by flymon_trace and the tests) ----

/// Fraction of `parent`'s duration covered by the union of events nested
/// inside it (same tid, deeper, within the interval).  This is the
/// decomposition metric: >= 0.95 means the span children explain at least
/// 95% of the measured end-to-end time.
double child_coverage(const std::vector<SpanEvent>& events,
                      const SpanEvent& parent);

}  // namespace flymon::trace
