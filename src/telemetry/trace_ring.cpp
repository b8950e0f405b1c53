#include "telemetry/trace_ring.hpp"

#include <cstdio>

#include "telemetry/export.hpp"

namespace flymon::telemetry {

PacketTracer::PacketTracer(std::size_t capacity, std::uint64_t sample_every)
    : capacity_(capacity == 0 ? 1 : capacity),
      ring_(capacity_),
      every_(sample_every == 0 ? 1 : sample_every) {}

void PacketTracer::publish(TraceRecord&& rec) {
  const common::MutexLock lock(mu_);
  ring_[head_] = std::move(rec);
  head_ = (head_ + 1) % ring_.size();
  if (filled_ < ring_.size()) ++filled_;
}

std::size_t PacketTracer::size() const {
  const common::MutexLock lock(mu_);
  return filled_;
}

void PacketTracer::clear() {
  const common::MutexLock lock(mu_);
  for (TraceRecord& r : ring_) r = TraceRecord{};
  head_ = 0;
  filled_ = 0;
  seen_.store(0, std::memory_order_relaxed);
}

std::vector<TraceRecord> PacketTracer::records() const {
  const common::MutexLock lock(mu_);
  std::vector<TraceRecord> out;
  out.reserve(filled_);
  // Oldest record: when the ring has wrapped it sits at head_, otherwise at 0.
  const std::size_t start = filled_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < filled_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

namespace {

std::string ip_str(std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (ip >> 24) & 255, (ip >> 16) & 255,
                (ip >> 8) & 255, ip & 255);
  return buf;
}

}  // namespace

std::string PacketTracer::to_json() const {
  std::string out = "[";
  bool first = true;
  for (const TraceRecord& r : records()) {
    if (!first) out += ',';
    first = false;
    out += "{\"seq\":" + std::to_string(r.seq);
    out += ",\"ts_ns\":" + std::to_string(r.ts_ns);
    out += ",\"src\":\"" + ip_str(r.ft.src_ip) + "\"";
    out += ",\"dst\":\"" + ip_str(r.ft.dst_ip) + "\"";
    out += ",\"sport\":" + std::to_string(r.ft.src_port);
    out += ",\"dport\":" + std::to_string(r.ft.dst_port);
    out += ",\"proto\":" + std::to_string(r.ft.protocol);
    out += ",\"compressed_keys\":[";
    bool kf = true;
    for (const GroupKeys& g : r.keys) {
      if (!kf) out += ',';
      kf = false;
      out += "{\"group\":" + std::to_string(g.group) + ",\"keys\":[";
      for (std::size_t i = 0; i < g.unit_keys.size(); ++i) {
        if (i != 0) out += ',';
        out += std::to_string(g.unit_keys[i]);
      }
      out += "]}";
    }
    out += "],\"steps\":[";
    bool sf = true;
    for (const CmuTraceStep& s : r.steps) {
      if (!sf) out += ',';
      sf = false;
      out += "{\"group\":" + std::to_string(s.group);
      out += ",\"cmu\":" + std::to_string(s.cmu);
      out += ",\"task\":" + std::to_string(s.task_id);
      out += ",\"selected_key\":" + std::to_string(s.selected_key);
      out += ",\"sliced_key\":" + std::to_string(s.sliced_key);
      out += ",\"address\":" + std::to_string(s.address);
      out += ",\"op\":\"" + json_escape(s.op) + "\"";
      out += ",\"p1\":" + std::to_string(s.p1);
      out += ",\"p2\":" + std::to_string(s.p2);
      out += ",\"result\":" + std::to_string(s.result);
      out += ",\"aborted\":";
      out += s.aborted ? "true" : "false";
      out += '}';
    }
    out += "]}";
  }
  out += "]";
  return out;
}

}  // namespace flymon::telemetry
