#include "trace/span.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/lock_witness.hpp"
#include "telemetry/telemetry.hpp"

// flush_to_registry holds the collector lock while creating/observing
// metrics (which take the registry lock); register the fact for the
// `concur` lock-order analyzer.
FLYMON_DECLARE_LOCK_ORDER("trace.spans", "telemetry.registry");

namespace flymon::trace {

namespace detail {
std::atomic<bool> g_enabled{false};
thread_local std::uint16_t t_depth = 0;
}  // namespace detail

void set_enabled(bool on) noexcept {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool init_from_env() noexcept {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): start-up only, pre-thread-spawn
  const char* v = std::getenv("FLYMON_TRACE");
  if (v != nullptr) {
    const bool on = std::strcmp(v, "1") == 0 || std::strcmp(v, "on") == 0 ||
                    std::strcmp(v, "true") == 0;
    set_enabled(on);
  }
  return enabled();
}

// ---------- clock ----------

namespace {
std::atomic<ClockFn> g_clock{nullptr};
}  // namespace

std::uint64_t monotonic_now_ns() noexcept {
  using clock = std::chrono::steady_clock;
  static const clock::time_point origin = clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                           origin)
          .count());
}

void set_clock(ClockFn fn) noexcept {
  g_clock.store(fn, std::memory_order_relaxed);
}

std::uint64_t now_ns() noexcept {
  const ClockFn fn = g_clock.load(std::memory_order_relaxed);
  return fn != nullptr ? fn() : monotonic_now_ns();
}

// ---------- collector ----------

// Slot fields are individual relaxed atomics: stores compile to plain MOVs
// on x86 yet keep concurrent collect() TSan-clean.  head_ is released
// after the slot is complete, so a reader that acquires head sees every
// field of the events below it; a slot being overwritten concurrently is
// detected by re-reading head after the copy (see collect()).
struct SpanCollector::ThreadRing {
  struct Slot {
    std::atomic<const char*> name{""};
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> dur_ns{0};
    std::atomic<std::uint64_t> gen{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint32_t> meta{0};  ///< depth << 8 | kind
  };

  explicit ThreadRing(std::uint32_t tid)
      : slots(std::make_unique<Slot[]>(kRingCapacity)), tid(tid) {}

  std::unique_ptr<Slot[]> slots;
  std::atomic<std::uint64_t> head{0};  ///< total events written
  std::uint32_t tid;
};

thread_local SpanCollector::ThreadRing* SpanCollector::t_ring = nullptr;
thread_local SpanCollector* SpanCollector::t_ring_owner = nullptr;

SpanCollector::SpanCollector() = default;

SpanCollector& SpanCollector::global() {
  static SpanCollector* c = new SpanCollector();  // immortal: worker threads
  return *c;                                      // may outlive static dtors
}

SpanCollector::ThreadRing& SpanCollector::ring_for_this_thread() {
  if (t_ring != nullptr && t_ring_owner == this) return *t_ring;
  common::MutexLock lock(mu_);
  rings_.push_back(
      std::make_unique<ThreadRing>(static_cast<std::uint32_t>(rings_.size())));
  flushed_.push_back(0);
  t_ring = rings_.back().get();
  t_ring_owner = this;
  return *t_ring;
}

void SpanCollector::emit(const char* name, std::uint64_t start_ns,
                         std::uint64_t dur_ns, std::uint64_t gen,
                         std::uint64_t arg, std::uint16_t depth,
                         EventKind kind) noexcept {
  ThreadRing& r = ring_for_this_thread();
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  ThreadRing::Slot& s = r.slots[h % kRingCapacity];
  s.name.store(name, std::memory_order_relaxed);
  s.start_ns.store(start_ns, std::memory_order_relaxed);
  s.dur_ns.store(dur_ns, std::memory_order_relaxed);
  s.gen.store(gen, std::memory_order_relaxed);
  s.arg.store(arg, std::memory_order_relaxed);
  s.meta.store((static_cast<std::uint32_t>(depth) << 8) |
                   static_cast<std::uint32_t>(kind),
               std::memory_order_relaxed);
  r.head.store(h + 1, std::memory_order_release);
}

SpanCollector::Stats SpanCollector::stats() const {
  common::MutexLock lock(mu_);
  Stats s;
  s.threads = rings_.size();
  for (const auto& r : rings_) {
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    s.emitted += h;
    if (h > kRingCapacity) s.dropped += h - kRingCapacity;
  }
  return s;
}

std::vector<SpanEvent> SpanCollector::collect() const {
  std::vector<SpanEvent> out;
  common::MutexLock lock(mu_);
  for (const auto& r : rings_) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t first = head > kRingCapacity ? head - kRingCapacity : 0;
    for (std::uint64_t i = first; i < head; ++i) {
      const ThreadRing::Slot& s = r->slots[i % kRingCapacity];
      SpanEvent e;
      e.name = s.name.load(std::memory_order_relaxed);
      e.start_ns = s.start_ns.load(std::memory_order_relaxed);
      e.dur_ns = s.dur_ns.load(std::memory_order_relaxed);
      e.gen = s.gen.load(std::memory_order_relaxed);
      e.arg = s.arg.load(std::memory_order_relaxed);
      const std::uint32_t meta = s.meta.load(std::memory_order_relaxed);
      e.depth = static_cast<std::uint16_t>(meta >> 8);
      e.kind = static_cast<EventKind>(meta & 0xFF);
      e.tid = r->tid;
      // Validity: the writer may have wrapped onto this slot while we were
      // copying it.  head2 - i == kRingCapacity means slot i's cell is (or
      // may be, for an unpublished in-flight write of index i + capacity)
      // being rewritten — discard the possibly-torn copy.
      const std::uint64_t head2 = r->head.load(std::memory_order_acquire);
      if (head2 - i >= kRingCapacity) continue;
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanEvent& a, const SpanEvent& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.dur_ns > b.dur_ns;  // parents before children at equal start
  });
  return out;
}

void SpanCollector::clear() {
  common::MutexLock lock(mu_);
  for (auto& r : rings_) r->head.store(0, std::memory_order_release);
  std::fill(flushed_.begin(), flushed_.end(), 0);
  flushed_drops_ = 0;
}

void SpanCollector::flush_to_registry(telemetry::Registry& registry) {
  common::MutexLock lock(mu_);
  // No thread ever recorded a span: leave the registry untouched so trace
  // metrics only appear once tracing has actually been used.
  if (rings_.empty()) return;
  telemetry::Counter& total = registry.counter("flymon_trace_spans_total");
  telemetry::Counter& drops = registry.counter("flymon_trace_span_drops_total");
  // Span-duration histograms in microseconds, 0.25us .. ~4s.
  const auto bounds = telemetry::Histogram::exponential_bounds(0.25, 4.0, 17);
  std::uint64_t dropped_now = 0;
  for (std::size_t ri = 0; ri < rings_.size(); ++ri) {
    ThreadRing& r = *rings_[ri];
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t first =
        std::max(flushed_[ri], head > kRingCapacity ? head - kRingCapacity : 0);
    if (head > kRingCapacity) dropped_now += head - kRingCapacity;
    for (std::uint64_t i = first; i < head; ++i) {
      const ThreadRing::Slot& s = r.slots[i % kRingCapacity];
      const char* name = s.name.load(std::memory_order_relaxed);
      const std::uint64_t dur = s.dur_ns.load(std::memory_order_relaxed);
      const std::uint32_t meta = s.meta.load(std::memory_order_relaxed);
      const std::uint64_t head2 = r.head.load(std::memory_order_acquire);
      if (head2 - i >= kRingCapacity) continue;  // overwritten mid-read
      if (static_cast<EventKind>(meta & 0xFF) != EventKind::kSpan) continue;
      registry.histogram("flymon_span_duration_us", {{"span", name}}, bounds)
          .observe(static_cast<double>(dur) / 1000.0);
      total.inc();
    }
    flushed_[ri] = head;
  }
  if (dropped_now > flushed_drops_) {
    drops.inc(dropped_now - flushed_drops_);
    flushed_drops_ = dropped_now;
  }
}

// ---------- instants / reconfiguration tags ----------

namespace {
std::atomic<std::uint64_t> g_reconfig{0};
thread_local std::uint64_t t_reconfig_tag = 0;
thread_local unsigned t_reconfig_depth = 0;
}  // namespace

void instant(const char* name, std::uint64_t arg) noexcept {
  if (!enabled()) return;
  SpanCollector::global().emit(name, now_ns(), 0, t_reconfig_tag, arg,
                               detail::t_depth, EventKind::kInstant);
}

ReconfigScope::ReconfigScope() noexcept {
  if (t_reconfig_depth++ == 0) {
    t_reconfig_tag = g_reconfig.fetch_add(1, std::memory_order_relaxed) + 1;
    top_ = true;
  }
  tag_ = t_reconfig_tag;
}

ReconfigScope::~ReconfigScope() {
  if (--t_reconfig_depth == 0 && top_) t_reconfig_tag = 0;
}

std::uint64_t latest_reconfig() noexcept {
  return g_reconfig.load(std::memory_order_relaxed);
}

// ---------- Span ----------

void Span::open(const char* name, std::uint64_t arg) noexcept {
  live_ = true;
  name_ = name;
  arg_ = arg;
  depth_ = detail::t_depth++;
  start_ns_ = now_ns();
}

void Span::close() noexcept {
  if (!live_) return;
  live_ = false;
  const std::uint64_t end = now_ns();
  --detail::t_depth;
  SpanCollector::global().emit(name_, start_ns_,
                               end > start_ns_ ? end - start_ns_ : 0,
                               t_reconfig_tag, arg_, depth_, EventKind::kSpan);
}

// ---------- timeline analysis ----------

double child_coverage(const std::vector<SpanEvent>& events,
                      const SpanEvent& parent) {
  if (parent.dur_ns == 0) return 0.0;
  const std::uint64_t p_end = parent.start_ns + parent.dur_ns;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
  for (const SpanEvent& e : events) {
    if (e.kind != EventKind::kSpan || e.tid != parent.tid) continue;
    if (e.depth <= parent.depth) continue;
    if (e.start_ns < parent.start_ns || e.start_ns >= p_end) continue;
    iv.emplace_back(e.start_ns, std::min(e.start_ns + e.dur_ns, p_end));
  }
  std::sort(iv.begin(), iv.end());
  std::uint64_t covered = 0, cur_begin = 0, cur_end = 0;
  bool open = false;
  for (const auto& [b, e] : iv) {
    if (!open || b > cur_end) {
      if (open) covered += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      open = true;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (open) covered += cur_end - cur_begin;
  return static_cast<double>(covered) / static_cast<double>(parent.dur_ns);
}

}  // namespace flymon::trace
