#include "harness.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/rng.hpp"
#include "trace/span.hpp"

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(
      v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lo + hi) / 2.0;
}

Tail tail_percentile(std::vector<double> v, double wanted) {
  Tail t;
  t.count = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  // At least ten samples strictly above the reported rank.
  const double supported = 100.0 * (1.0 - 10.0 / n);
  t.percentile = std::max(50.0, std::min(wanted, supported));
  // Nearest rank: the smallest value with at least p% of samples <= it.
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(t.percentile / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  t.value = v[rank - 1];
  return t;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double rss_mib() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double baseline_rss_mib() {
  malloc_trim(0);
  return rss_mib();
}

std::uint64_t register_digest(const flymon::FlyMonDataPlane& dp) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    const flymon::CmuGroup& group = dp.group(g);
    for (unsigned c = 0; c < group.num_cmus(); ++c) {
      const auto& reg = group.cmu(c).reg();
      for (std::uint32_t v : reg.read_range(0, reg.size())) {
        h = (h ^ v) * 1099511628211ull;
      }
    }
  }
  return h;
}

void corrupt_one_cell(flymon::FlyMonDataPlane& dp, std::uint64_t seed) {
  flymon::Rng rng(seed);
  // Prefer a bank with data so the flip lands where a referee looks.
  std::vector<std::pair<unsigned, unsigned>> live;
  for (unsigned g = 0; g < dp.num_groups(); ++g) {
    for (unsigned c = 0; c < dp.group(g).num_cmus(); ++c) {
      const auto& reg = dp.group(g).cmu(c).reg();
      const auto cells = reg.read_range(0, reg.size());
      if (std::any_of(cells.begin(), cells.end(),
                      [](std::uint32_t v) { return v != 0; })) {
        live.emplace_back(g, c);
      }
    }
  }
  if (live.empty()) live.emplace_back(0, 0);
  const auto [g, c] = live[rng.next() % live.size()];
  auto& reg = dp.group(g).cmu(c).reg();
  const std::uint32_t addr = static_cast<std::uint32_t>(rng.next() % reg.size());
  reg.write(addr, reg.read(addr) ^ 1u);
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  items_.push_back({name, {value, unit}});
}

std::string Metrics::to_json() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << '{';
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, vu] = items_[i];
    os << (i == 0 ? "" : ", ") << '"' << name << "\": {\"value\": "
       << (std::isfinite(vu.first) ? vu.first : 0.0) << ", \"unit\": \""
       << vu.second << "\"}";
  }
  os << '}';
  return os.str();
}

void harvest_spans(SpanDurations& out) {
  auto& collector = flymon::trace::SpanCollector::global();
  for (const auto& e : collector.collect()) {
    if (e.kind != flymon::trace::EventKind::kSpan) continue;
    out[e.name].push_back(static_cast<double>(e.dur_ns) / 1e3);
  }
  collector.clear();
}

std::size_t TimedSource::pull(std::span<flymon::Packet> out) {
  const std::uint64_t t0 = now_ns();
  if (last_n_ != 0) {
    const double us = static_cast<double>(t0 - last_return_ns_) / 1e3;
    batch_us.push_back(us);
    batch_packets += last_n_;
    if (boundary_) boundary_us.push_back(us);
  }
  boundary_ = false;
  if (on_pull_) on_pull_();
  if (detailed_ && ring_ != nullptr) {
    occupancy_sum += static_cast<double>(ring_->occupancy());
  }
  const std::size_t n = inner_.pull(out);
  const std::uint64_t t1 = now_ns();
  ++pulls;
  if (n == 0) {
    ++empty_pulls;
  } else {
    if (first_packet_ns_ == 0) first_packet_ns_ = t1;
    packets += n;
  }
  if (detailed_) pull_ns += t1 - t0;
  last_n_ = n;
  last_return_ns_ = t1;
  return n;
}

}  // namespace perfbench
